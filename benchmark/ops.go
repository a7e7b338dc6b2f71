package main

import (
	"encoding/binary"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"repro/benchmark/hist"
)

var epoch = time.Now()

// now is the benchmark's monotonic clock, in nanoseconds since start-up.
func now() int64 { return int64(time.Since(epoch)) }

// Every op's payload ends in a 16-byte tag: a magic word and the op index.
// The layers between generator and application wrap payloads by prefixing
// them (kvstore ops, leaf casts, treecast records), so the tail survives and
// both the delivery callbacks and the tracenet tap can recognise an op.
const (
	tagMagic = 0x6973697362656e63 // "isisbenc"
	tagBytes = 16
)

func putTag(b []byte, idx uint64) {
	binary.BigEndian.PutUint64(b[len(b)-16:], tagMagic)
	binary.BigEndian.PutUint64(b[len(b)-8:], idx)
}

func tagOf(b []byte) (uint64, bool) {
	if len(b) < tagBytes || binary.BigEndian.Uint64(b[len(b)-16:]) != tagMagic {
		return 0, false
	}
	return binary.BigEndian.Uint64(b[len(b)-8:]), true
}

// opTimeout is how long an op may take before it counts as failed.
const opTimeout = 5 * time.Second

// ringSize bounds the ops in flight the tracker can follow; the generators
// keep at most window (1024) in flight, the open loop refuses to exceed half
// the ring.
const ringSize = 1 << 16

type opSlot struct {
	key  atomic.Uint64 // op index + 1; 0 = free or abandoned
	t0   atomic.Int64
	seen atomic.Uint32 // bitmask of members that delivered
}

// opTracker follows multicast ops from issue to delivery at every member.
// begin is called by the generator, delivered by the members' callbacks
// (each on its own actor goroutine).
type opTracker struct {
	full  uint32 // bitmask: every member
	slots []opSlot
	done  atomic.Uint64          // ops delivered everywhere
	dups  atomic.Uint64          // a member delivered an op it had already delivered
	lat   atomic.Pointer[hist.H] // where completions observe; nil = not recording
	wake  chan struct{}          // completion signal for the one-in-flight phase
	tr    *tracer                // nil unless this is the traced run
}

func newOpTracker(members int, tr *tracer) *opTracker {
	return &opTracker{
		full:  uint32(1)<<members - 1,
		slots: make([]opSlot, ringSize),
		wake:  make(chan struct{}, 1),
		tr:    tr,
	}
}

func (t *opTracker) begin(idx uint64, t0 int64) {
	s := &t.slots[idx%ringSize]
	s.seen.Store(0)
	s.t0.Store(t0)
	s.key.Store(idx + 1)
}

// abandon stops following an op that timed out.
func (t *opTracker) abandon(idx uint64) { t.slots[idx%ringSize].key.Store(0) }

func (t *opTracker) delivered(member int, idx uint64) {
	s := &t.slots[idx%ringSize]
	if s.key.Load() != idx+1 {
		return // no longer followed: it timed out
	}
	bit := uint32(1) << member
	old := s.seen.Or(bit)
	if old&bit != 0 {
		t.dups.Add(1)
		return
	}
	if old|bit != t.full {
		return
	}
	at := now()
	if h := t.lat.Load(); h != nil {
		h.Observe(at - s.t0.Load())
	}
	if t.tr != nil && idx%sampleEvery == 0 {
		if o, ok := t.tr.ops.Load(idx); ok {
			o.(*opTrace).done = at
		}
	}
	t.done.Add(1)
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

// --- resources -------------------------------------------------------------------

// resources is a snapshot of what the process has consumed so far.
type resources struct {
	cpu        time.Duration // user + system, RUSAGE_SELF
	allocBytes uint64
	allocs     uint64
	gcCycles   uint32
	gcPause    time.Duration
	heapSys    uint64
}

func readResources() resources {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return resources{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms.TotalAlloc,
		allocs:     ms.Mallocs,
		gcCycles:   ms.NumGC,
		gcPause:    time.Duration(ms.PauseTotalNs),
		heapSys:    ms.HeapSys,
	}
}

// --- slices ------------------------------------------------------------------------

// slicer cuts a phase into equal slices and records, at each boundary, the
// completed-op count and the resources consumed, so a phase reports its
// median slice instead of a mean that one hiccup or one protocol storm can
// move.
type slicer struct {
	start, width int64
	n            int
	closed       int         // boundaries passed so far
	marks        []sliceMark // marks[0] is the phase start, then one per recorded boundary
}

type sliceMark struct {
	at   int64
	done uint64
	res  resources
}

// newSlicer starts a phase of length d now, with done ops completed so far.
func newSlicer(d time.Duration, n int, done uint64) *slicer {
	s := &slicer{width: int64(d) / int64(n), n: n}
	s.marks = append(s.marks, sliceMark{done: done, res: readResources()})
	s.start = now()
	s.marks[0].at = s.start
	return s
}

func (s *slicer) end() int64 { return s.start + s.width*int64(s.n) }

// current is the index of the slice time t falls in.
func (s *slicer) current(t int64) int {
	return min(int((t-s.start)/s.width), s.n-1)
}

// tick records a boundary once the clock has passed it. A tick that comes
// late (the generator was stalled) makes one longer slice.
func (s *slicer) tick(done uint64) {
	t := now()
	if passed := min(int((t-s.start)/s.width), s.n); passed > s.closed {
		s.closed = passed
		s.marks = append(s.marks, sliceMark{at: t, done: done, res: readResources()})
	}
}

// whole is what the phase consumed from its start to its last boundary.
func (s *slicer) whole() (ops uint64, elapsed time.Duration, res resources) {
	last := s.marks[len(s.marks)-1]
	return last.done - s.marks[0].done, time.Duration(last.at - s.start), last.res.since(s.marks[0].res)
}

// perSlice returns, for each complete slice, ops per second, CPU
// microseconds per op and bytes allocated per op (the last two only for
// slices that completed an op).
func (s *slicer) perSlice() (rates, cpuUS, allocB []float64) {
	for i := 1; i < len(s.marks); i++ {
		a, b := s.marks[i-1], s.marks[i]
		ops := float64(b.done - a.done)
		rates = append(rates, ops/(float64(b.at-a.at)/1e9))
		if ops > 0 {
			r := b.res.since(a.res)
			cpuUS = append(cpuUS, float64(r.cpu)/1e3/ops)
			allocB = append(allocB, float64(r.allocBytes)/ops)
		}
	}
	return rates, cpuUS, allocB
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// phaseSlices is how many slices a timed phase is cut into.
const phaseSlices = 6

// phaseResult is what one timed phase measured.
type phaseResult struct {
	ops     uint64        // ops completed inside the phase
	elapsed time.Duration // length of the phase
	res     resources     // consumed during the phase
	rates   []float64     // per slice: ops/s
	cpuUS   []float64     // per slice: CPU microseconds per op
	allocB  []float64     // per slice: bytes allocated per op
	lat     []*hist.H     // one histogram per slice
	late    *hist.H       // open loop: how late the generator issued
}

// measuredBy fills in everything the slicer recorded.
func (p *phaseResult) measuredBy(s *slicer) {
	p.ops, p.elapsed, p.res = s.whole()
	p.rates, p.cpuUS, p.allocB = s.perSlice()
}

// latencyPercentile is the median over slices of each slice's percentile.
func (p phaseResult) latencyPercentile(pct float64) float64 {
	var per []float64
	for _, h := range p.lat {
		if h.Count() > 0 {
			per = append(per, h.Percentile(pct))
		}
	}
	return median(per)
}

// merged is the histogram of the whole phase.
func (p phaseResult) merged() *hist.H {
	all := hist.New()
	for _, h := range p.lat {
		all.Merge(h)
	}
	return all
}

func newSliceHists() []*hist.H {
	hs := make([]*hist.H, phaseSlices)
	for i := range hs {
		hs[i] = hist.New()
	}
	return hs
}

func (r resources) since(start resources) resources {
	return resources{
		cpu:        r.cpu - start.cpu,
		allocBytes: r.allocBytes - start.allocBytes,
		allocs:     r.allocs - start.allocs,
		gcCycles:   r.gcCycles - start.gcCycles,
		gcPause:    r.gcPause - start.gcPause,
		heapSys:    r.heapSys,
	}
}
