package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	isis "repro"
	"repro/benchmark/hist"
)

const (
	churnMembers = 16
	blobBytes    = 256 << 10
)

// blob is a member's application state: a fixed 256 KiB block every member
// snapshots identically and every joiner must restore.
type blob struct {
	data       []byte
	restoredAt atomic.Int64  // clock value of the first Restore call
	badLen     atomic.Int64  // length of a checkpoint that was not blobBytes long
	restored   chan struct{} // closed by the first Restore
	once       sync.Once
}

func newBlob(data []byte) *blob { return &blob{data: data, restored: make(chan struct{})} }

func (b *blob) Snapshot() ([]byte, error) { return b.data, nil }

func (b *blob) Restore(p []byte) error {
	if len(p) != blobBytes {
		b.badLen.Store(int64(len(p)))
	}
	b.once.Do(func() {
		b.restoredAt.Store(now())
		close(b.restored)
	})
	return nil
}

type churnMember struct {
	proc  process
	g     *isis.Group
	state *blob
}

// churn is churn_sim16: serial membership cycles in a 16-member flat group on
// netsim. One cycle crashes a non-founder (suspicion injected, so detector
// timers stay out), waits until all 15 survivors installed the smaller view,
// then spawns a replacement that joins and restores the streamed checkpoint,
// and waits until all 16 installed. A background goroutine issues blocking
// ABCASTs from the founder throughout.
type churn struct {
	p          params
	tr         *tracer
	warmCycles uint64
	data       []byte
	order      []int // victim rotation over member slots 1..15

	d       deployment
	members []*churnMember

	mu       sync.Mutex
	installs map[uint64]int // view id -> members that installed it
	complete chan int       // size of each view once all its members installed it

	cycles     uint64
	joins      uint64
	failed     uint64
	bgDone     atomic.Uint64
	bgFailed   atomic.Uint64
	bgRate     float64
	flushLat   *hist.H
	joinLat    *hist.H
	restoreLat *hist.H
	problems   []string
}

func newChurn(p params, tr *tracer) workload {
	w := &churn{p: p, tr: tr, warmCycles: p.scaled(20), data: make([]byte, blobBytes)}
	rng := rand.New(rand.NewSource(p.seed))
	rng.Read(w.data)
	for _, i := range rng.Perm(churnMembers - 1) {
		w.order = append(w.order, i+1)
	}
	return w
}

// onView counts installs per view and announces a view once every one of its
// members holds it. It runs on the installing member's actor goroutine.
func (w *churn) onView(v isis.View) {
	w.mu.Lock()
	w.installs[uint64(v.ID)]++
	done := w.installs[uint64(v.ID)] == v.Size()
	w.mu.Unlock()
	if done {
		w.complete <- v.Size()
	}
}

func (w *churn) config(b *blob) isis.GroupConfig {
	return isis.GroupConfig{State: b, OnView: w.onView, OnDeliver: func(isis.Delivery) {}}
}

// awaitView waits for a fully installed view of the given size.
func (w *churn) awaitView(size int) bool {
	timer := time.NewTimer(opTimeout)
	defer timer.Stop()
	for {
		select {
		case got := <-w.complete:
			if got == size {
				return true
			}
		case <-timer.C:
			return false
		}
	}
}

// join spawns a process and joins it to the group as member slot i.
func (w *churn) join(i int) (*churnMember, error) {
	p, err := w.d.Spawn()
	if err != nil {
		return nil, err
	}
	m := &churnMember{proc: p, state: newBlob(w.data)}
	if i == 0 {
		m.g, err = p.CreateGroup("bench", w.config(m.state))
		return m, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	m.g, err = p.JoinGroup(ctx, "bench", w.members[0].proc.ID(), w.config(m.state))
	return m, err
}

func (w *churn) setup() error {
	w.cycles, w.joins, w.failed, w.problems = 0, 0, 0, nil
	w.installs = make(map[uint64]int)
	// Buffered for every view a run can install, so onView never blocks an actor.
	w.complete = make(chan int, 1<<16)
	w.members = nil
	w.d = newDeployment(substrate{}, w.tr)
	for i := 0; i < churnMembers; i++ {
		m, err := w.join(i)
		if err != nil {
			return fmt.Errorf("member %d: %w", i, err)
		}
		w.members = append(w.members, m)
		if !w.awaitView(i + 1) {
			return fmt.Errorf("the %d-member view was never installed everywhere", i+1)
		}
	}
	w.drive(func() bool { return w.cycles < w.warmCycles }, func() { w.cycle(nil) })
	return nil
}

// drive runs cycles back to back while more() holds, with the background
// caster running, and returns the background casts completed per second.
func (w *churn) drive(more func() bool, each func()) float64 {
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go w.background(stop, &bg)
	start, startBG := now(), w.bgDone.Load()
	for more() {
		each()
	}
	rate := float64(w.bgDone.Load()-startBG) / (float64(now()-start) / 1e9)
	close(stop)
	bg.Wait()
	return rate
}

// cycle runs one crash + rejoin; lat receives the cycle time when non-nil.
func (w *churn) cycle(lat *hist.H) {
	slot := w.order[w.cycles%uint64(len(w.order))]
	victim := w.members[slot]
	op := w.cycles
	w.cycles++
	t0 := now()
	w.d.Crash(victim.proc)
	if !w.awaitView(churnMembers - 1) {
		w.failed++
		return
	}
	t1 := now()
	m, err := w.join(slot)
	if err != nil || !w.awaitView(churnMembers) {
		w.failed++
		return
	}
	select {
	case <-m.state.restored:
	case <-time.After(opTimeout):
		w.failed++
		return
	}
	t2 := now()
	w.joins++
	w.members[slot] = m
	restored := m.state.restoredAt.Load()
	if n := m.state.badLen.Load(); n != 0 {
		w.failed++
		w.problems = append(w.problems, fmt.Sprintf("cycle %d: the joiner restored %d bytes (want %d)", op, n, blobBytes))
		return
	}
	if lat != nil {
		lat.Observe(t2 - t0)
		w.flushLat.Observe(t1 - t0)
		w.joinLat.Observe(t2 - t1)
		w.restoreLat.Observe(restored - t1)
	}
	w.tr.cycleSpan(op, "flush", t0, t1)
	w.tr.cycleSpan(op, "join", t1, t2)
	w.tr.cycleSpan(op, "restore", t1, restored)
}

// background issues blocking ABCASTs from the founder until stop is closed.
func (w *churn) background(stop <-chan struct{}, done *sync.WaitGroup) {
	defer done.Done()
	g := w.members[0].g
	for idx := uint64(0); ; idx++ {
		select {
		case <-stop:
			return
		default:
		}
		payload := make([]byte, 64)
		putTag(payload, idx)
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		start := now()
		o := w.tr.begin(idx, opCast, 0, start)
		err := g.Cast(ctx, isis.ABCAST, payload)
		cancel()
		if err != nil {
			w.bgFailed.Add(1)
			continue
		}
		if o != nil {
			o.done = now()
		}
		w.bgDone.Add(1)
	}
}

// sat is the workload's only phase: cycles back to back for d.
func (w *churn) sat(d time.Duration) phaseResult {
	res := phaseResult{lat: newSliceHists()}
	w.flushLat, w.joinLat, w.restoreLat = hist.New(), hist.New(), hist.New()
	sl := newSlicer(d, phaseSlices, w.cycles)
	w.bgRate = w.drive(func() bool { return now() < sl.end() }, func() {
		w.cycle(res.lat[sl.current(now())])
		sl.tick(w.cycles)
	})
	res.measuredBy(sl)
	return res
}

func (w *churn) lat(time.Duration) phaseResult  { return phaseResult{} }
func (w *churn) load(time.Duration) phaseResult { return phaseResult{} }

func (w *churn) finish() []string {
	want := w.members[0].g.CurrentView()
	if want.Size() != churnMembers {
		w.problems = append(w.problems, fmt.Sprintf("the founder ends in a %d-member view (want %d)", want.Size(), churnMembers))
	}
	for i, m := range w.members {
		if v := m.g.CurrentView(); !v.Equal(want) {
			w.problems = append(w.problems, fmt.Sprintf("member slot %d ends in view %v, the founder in %v", i, v, want))
		}
	}
	if f := w.bgFailed.Load(); f != 0 {
		w.problems = append(w.problems, fmt.Sprintf("%d background casts failed", f))
	}
	if w.failed != 0 {
		w.problems = append(w.problems, fmt.Sprintf("%d cycles failed or timed out", w.failed))
	}
	return w.problems
}

func (w *churn) totals() (attempted, failed uint64) {
	return w.cycles + w.bgDone.Load() + w.bgFailed.Load(), w.failed + w.bgFailed.Load()
}

func (w *churn) snapshot() counters {
	c := counters{net: w.d.NetStats(), cycles: w.cycles, joins: w.joins}
	for _, m := range w.members {
		c.addProcess(m.proc)
		c.addGroup(m.g)
	}
	return c
}

func (w *churn) extras(rep *report) {
	rep.put("churn.bg_cast_ops_s", w.bgRate, "ops/s")
	if w.flushLat != nil {
		rep.put("churn.flush_p50_ms", w.flushLat.Percentile(50)/1e6, "ms")
		rep.put("churn.join_p50_ms", w.joinLat.Percentile(50)/1e6, "ms")
		rep.put("churn.restore_p50_ms", w.restoreLat.Percentile(50)/1e6, "ms")
	}
}

func (w *churn) teardown() { w.d.Shutdown() }
