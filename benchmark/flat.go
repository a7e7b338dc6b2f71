package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	isis "repro"
	"repro/benchmark/hist"
)

// satWindow is the closed loop's depth in the saturation phase.
const satWindow = 1024

// kvKeys is the kv workload's key space: 8192 keys of 16 B with 512 B values
// is a 4.4 MB map. The streamed checkpoint of a larger one (35 MB at 65536
// keys) never reaches a late joiner over TCP: the holder pushes every chunk
// at once into the transport's 256-frame per-peer queue, which sheds the
// oldest, and the workloads are chosen so that no operation fails.
const kvKeys = 8192

// flat is the generator shared by the two flat-group workloads: kv_tcp3_wal
// (ABCAST puts into a WAL'd replicated map over loopback TCP) and cast_sim8
// (CBCAST in an 8-member group on netsim). One goroutine issues every op,
// rotating over the members; an op is complete when every member's delivery
// callback has seen it.
type flat struct {
	p        params
	kv       bool
	n        int     // members
	warmOps  uint64  // fixed-count warm-up inside setup
	loadRate float64 // open-loop offered rate, ops/s
	tr       *tracer

	// inputs, made from the seed once
	keys    []string
	filler  []byte
	keyPick *rand.Rand

	// one deployment's state, rebuilt by every setup
	gen       int // setups so far; names the WAL directory
	walDir    string
	d         deployment
	procs     []process
	groups    []*isis.Group
	kvs       []kvReplica
	trk       *opTracker
	issued    uint64
	lost      uint64 // ops that timed out
	refused   uint64 // op numbers the open loop skipped: the backlog was too deep
	senderSeq []uint64
	expect    [][]uint64 // [member][sender]: next per-sender sequence expected
	seen      []uint64   // [member]: tagged deliveries
	gaps      atomic.Uint64
	views     atomic.Int64
	setupView int64
	extraPuts uint64

	joinStateMS float64
	problems    []string
}

func newFlat(p params, tr *tracer) *flat {
	w := &flat{p: p, tr: tr}
	rng := rand.New(rand.NewSource(p.seed))
	if p.workload == "kv_tcp3_wal" {
		w.kv, w.n, w.loadRate = true, 3, 10000
		w.warmOps = p.scaled(90000)
		w.keys = make([]string, kvKeys)
		for i := range w.keys {
			w.keys[i] = fmt.Sprintf("k%07d-%07d", i, rng.Intn(10000000)) // 16 bytes
		}
		w.filler = make([]byte, 512)
	} else {
		w.n, w.loadRate = 8, 8000
		w.warmOps = p.scaled(70000)
		w.filler = make([]byte, 64)
	}
	rng.Read(w.filler)
	w.keyPick = rand.New(rand.NewSource(p.seed + 1))
	return w
}

func (w *flat) substrate() substrate {
	if !w.kv {
		return substrate{}
	}
	return substrate{
		tcp:      true,
		walDir:   w.walDir,
		detector: isis.DetectorConfig{Interval: 100 * time.Millisecond, Timeout: 3 * time.Second},
	}
}

// onDeliver is member r's delivery callback. It runs on r's actor goroutine.
func (w *flat) onDeliver(r int) func(isis.Delivery) {
	return func(d isis.Delivery) {
		idx, ok := tagOf(d.Payload)
		if !ok {
			return
		}
		w.seen[r]++
		if !w.kv {
			// CBCAST is FIFO per sender: each member must see every
			// sender's sequence gap-free and exactly once.
			sender, seq := int(d.Payload[8]), binary.BigEndian.Uint64(d.Payload)
			if seq != w.expect[r][sender] {
				w.gaps.Add(1)
			}
			w.expect[r][sender] = seq + 1
		}
		w.trk.delivered(r, idx)
	}
}

func (w *flat) setup() error {
	w.gen++
	w.issued, w.lost, w.refused, w.extraPuts = 0, 0, 0, 0
	w.trk = newOpTracker(w.n, w.tr)
	w.senderSeq = make([]uint64, w.n)
	w.seen = make([]uint64, w.n)
	w.expect = make([][]uint64, w.n)
	for r := range w.expect {
		w.expect[r] = make([]uint64, w.n)
	}
	w.views.Store(0)
	if w.kv {
		w.walDir = filepath.Join(w.p.tmpDir, fmt.Sprintf("wal-%d", w.gen))
	}
	w.d = newDeployment(w.substrate(), w.tr)
	w.procs, w.groups, w.kvs = nil, nil, nil
	for r := 0; r < w.n; r++ {
		p, err := w.d.Spawn()
		if err != nil {
			return fmt.Errorf("spawn member %d: %w", r, err)
		}
		cfg := isis.GroupConfig{OnDeliver: w.onDeliver(r), OnView: func(isis.View) { w.views.Add(1) }}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		var g *isis.Group
		switch {
		case w.kv && r == 0:
			var kv kvReplica
			kv, err = w.d.CreateKV(p, "bench", cfg)
			w.kvs = append(w.kvs, kv)
		case w.kv:
			var kv kvReplica
			kv, err = w.d.JoinKV(ctx, p, "bench", w.procs[0].ID(), cfg)
			w.kvs = append(w.kvs, kv)
		case r == 0:
			g, err = p.CreateGroup("bench", cfg)
		default:
			g, err = p.JoinGroup(ctx, "bench", w.procs[0].ID(), cfg)
		}
		cancel()
		if err != nil {
			return fmt.Errorf("member %d: %w", r, err)
		}
		if w.kv {
			g = w.kvs[r].Group()
		}
		w.procs, w.groups = append(w.procs, p), append(w.groups, g)
	}
	if !await(10*time.Second, func() bool {
		for _, g := range w.groups {
			if g.Size() != w.n {
				return false
			}
		}
		return true
	}) {
		return fmt.Errorf("members never all held the %d-member view", w.n)
	}
	for w.issued < w.warmOps {
		w.fill(satWindow, w.warmOps)
		time.Sleep(time.Millisecond)
	}
	w.quiesce()
	w.setupView = w.views.Load()
	return nil
}

// issue sends op number w.issued from the next member in rotation.
func (w *flat) issue(t0 int64) *opTrace {
	idx := w.issued
	sender := int(idx % uint64(w.n))
	w.issued++
	w.trk.begin(idx, t0)
	o := w.tr.begin(idx, opCast, sender, t0)
	if w.kv {
		val := make([]byte, len(w.filler))
		copy(val, w.filler)
		putTag(val, idx)
		w.kvs[sender].PutAsync(w.keys[w.keyPick.Intn(len(w.keys))], string(val))
	} else {
		b := make([]byte, len(w.filler))
		copy(b, w.filler)
		binary.BigEndian.PutUint64(b, w.senderSeq[sender])
		b[8] = byte(sender)
		w.senderSeq[sender]++
		putTag(b, idx)
		w.groups[sender].CastAsync(isis.CBCAST, b)
	}
	if o != nil {
		o.submitted = now()
	}
	return o
}

func (w *flat) inFlight() uint64 { return w.issued - w.refused - w.lost - w.trk.done.Load() }

// fill tops the closed loop up to window ops in flight (never past limit
// ops issued in total; 0 = no limit).
func (w *flat) fill(window, limit uint64) {
	for w.inFlight() < window && (limit == 0 || w.issued < limit) {
		w.issue(now())
	}
}

// quiesce waits until every op issued so far is delivered everywhere; ops
// still outstanding after opTimeout without any progress are given up.
func (w *flat) quiesce() {
	last, lastAt := w.trk.done.Load(), now()
	for w.inFlight() > 0 {
		time.Sleep(time.Millisecond)
		if d := w.trk.done.Load(); d != last {
			last, lastAt = d, now()
		} else if now()-lastAt > int64(opTimeout) {
			lo := uint64(0)
			if w.issued > ringSize {
				lo = w.issued - ringSize
			}
			for idx := lo; idx < w.issued; idx++ {
				if s := &w.trk.slots[idx%ringSize]; s.key.Load() == idx+1 && s.seen.Load() != w.trk.full {
					w.trk.abandon(idx)
				}
			}
			w.lost += w.inFlight()
			return
		}
	}
}

// sat is the closed loop at depth satWindow, refilled by a 1ms poll.
func (w *flat) sat(d time.Duration) phaseResult {
	w.trk.lat.Store(nil)
	sl := newSlicer(d, phaseSlices, w.trk.done.Load())
	for now() < sl.end() {
		w.fill(satWindow, 0)
		time.Sleep(time.Millisecond)
		sl.tick(w.trk.done.Load())
	}
	var res phaseResult
	res.measuredBy(sl)
	w.quiesce()
	return res
}

// lat is the closed loop with exactly one op in flight: the next op is
// issued by the generator the moment the previous one is delivered at every
// member.
func (w *flat) lat(d time.Duration) phaseResult {
	res := phaseResult{lat: newSliceHists()}
	sl := newSlicer(d, phaseSlices, w.trk.done.Load())
	timer := time.NewTimer(opTimeout)
	defer timer.Stop()
	select {
	case <-w.trk.wake: // a completion signal left over from the last phase
	default:
	}
	for t := now(); t < sl.end(); t = now() {
		w.trk.lat.Store(res.lat[sl.current(t)])
		want := w.trk.done.Load() + 1
		idx := w.issued
		o := w.issue(t)
		timer.Reset(opTimeout)
		for w.trk.done.Load() < want {
			select {
			case <-w.trk.wake:
				continue
			case <-timer.C:
			}
			w.trk.abandon(idx)
			w.lost++
			break
		}
		if o != nil {
			o.acked = now()
		}
		sl.tick(w.trk.done.Load())
	}
	w.trk.lat.Store(nil)
	res.measuredBy(sl)
	return res
}

// load is the open loop: ops are due at a fixed rate whatever the system
// does, and latency counts from the due time. It is diagnostic only: pacing
// below a millisecond is the generator's own noise (reported as late).
func (w *flat) load(d time.Duration) phaseResult {
	res := phaseResult{lat: []*hist.H{hist.New()}, late: hist.New()}
	w.trk.lat.Store(res.lat[0])
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := now()
	interval := 1e9 / w.loadRate
	total := int(d.Seconds() * w.loadRate)
	for k := 0; k < total; k++ {
		due := start + int64(float64(k)*interval)
		for t := now(); t < due; t = now() {
			pause(time.Duration(due - t))
		}
		res.late.Observe(now() - due)
		if w.inFlight() >= ringSize/2 {
			w.issued++ // the backlog outgrew what the tracker follows
			w.refused++
			continue
		}
		w.issue(due)
	}
	w.quiesce()
	w.trk.lat.Store(nil)
	return res
}

func (w *flat) problem(format string, args ...any) {
	w.problems = append(w.problems, fmt.Sprintf(format, args...))
}

// finish runs the untimed tail: the late-join diagnostic (kv) and every
// output check.
func (w *flat) finish() []string {
	if v := w.views.Load(); v != w.setupView {
		w.problem("%d view installs during the timed phases (want none)", v-w.setupView)
	}
	if d := w.trk.dups.Load(); d != 0 {
		w.problem("%d duplicate deliveries", d)
	}
	if g := w.gaps.Load(); g != 0 {
		w.problem("%d per-sender sequence gaps or repeats", g)
	}
	for r, c := range w.seen {
		if c != w.issued-w.refused {
			w.problem("member %d delivered %d ops, %d were issued", r, c, w.issued-w.refused)
		}
	}
	if w.kv {
		w.finishKV()
	}
	return w.problems
}

// finishKV joins a fourth replica into the loaded map (timing the streamed
// checkpoint, and compacting every replica's log to one snapshot), issues a
// few blocking puts, compares the replicas, then stops the runtime and
// re-creates the map from the founder's write-ahead log alone.
func (w *flat) finishKV() {
	p, err := w.d.Spawn()
	if err != nil {
		w.problem("spawn late joiner: %v", err)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := now()
	late, err := w.d.JoinKV(ctx, p, "bench", w.procs[0].ID(), isis.GroupConfig{StateGrace: 30 * time.Second})
	if err != nil {
		w.problem("late join: %v", err)
		return
	}
	if !await(30*time.Second, func() bool { return late.Len() == w.kvs[0].Len() }) {
		w.problem("late joiner restored %d keys, founder holds %d", late.Len(), w.kvs[0].Len())
	}
	w.joinStateMS = float64(now()-start) / 1e6
	w.extraPuts = w.p.scaled(400)
	for i := uint64(0); i < w.extraPuts; i++ {
		if err := w.kvs[i%uint64(w.n)].Put(ctx, w.keys[i%uint64(len(w.keys))], fmt.Sprintf("after-join-%d", i)); err != nil {
			w.problem("blocking put %d: %v", i, err)
			break
		}
	}
	want := w.issued - w.refused + w.extraPuts
	all := append(append([]kvReplica(nil), w.kvs...), late)
	if !await(10*time.Second, func() bool {
		for _, kv := range w.kvs {
			if kv.Applied() != want {
				return false
			}
		}
		return late.Applied() == w.extraPuts
	}) {
		for r, kv := range all {
			w.problem("replica %d applied %d ops (want %d; the late joiner %d)", r, kv.Applied(), want, w.extraPuts)
		}
	}
	digest := w.kvs[0].Digest()
	for r, kv := range all {
		if kv.Digest() != digest {
			w.problem("replica %d digest %x differs from the founder's %x", r, kv.Digest(), digest)
		}
	}
	w.d.Shutdown()
	re := newDeployment(substrate{walDir: w.walDir}, nil)
	defer re.Shutdown()
	rp, err := re.Spawn()
	if err != nil {
		w.problem("respawn on the founder's log: %v", err)
		return
	}
	recovered, err := re.CreateKV(rp, "bench", isis.GroupConfig{})
	if err != nil {
		w.problem("re-create from the founder's log: %v", err)
		return
	}
	if recovered.Digest() != digest {
		w.problem("map recovered from the founder's log has digest %x, want %x (%d keys vs %d)",
			recovered.Digest(), digest, recovered.Len(), w.kvs[0].Len())
	}
}

func (w *flat) totals() (attempted, failed uint64) {
	return w.issued + w.extraPuts, w.lost + w.refused + w.trk.dups.Load() + w.gaps.Load()
}

func (w *flat) teardown() {
	w.d.Shutdown()
	if w.walDir != "" {
		_ = os.RemoveAll(w.walDir) // scratch space; a leftover directory is harmless
	}
}

func (w *flat) snapshot() counters {
	c := counters{net: w.d.NetStats(), walBytes: dirSize(w.walDir)}
	for _, p := range w.procs {
		c.addProcess(p)
	}
	for _, g := range w.groups {
		c.addGroup(g)
	}
	return c
}

func (w *flat) extras(m *report) {
	if w.kv {
		m.put("diag.join_state_ms", w.joinStateMS, "ms")
	}
}
