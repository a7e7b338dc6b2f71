package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	isis "repro"
	"repro/internal/types"
)

// sampleEvery is the traced run's sampling stride: one op in 64 gets spans.
const sampleEvery = 64

// Classes of traced op; they decide how the event log becomes spans.
const (
	opCast    = iota // flat-group multicast or KV put: delivered at every member
	opRequest        // ServiceClient.Request: routed to one leaf coordinator
	opBcast          // ServiceClient.Broadcast: treecast to every member
)

type evKind uint8

const (
	evFrameOut evKind = iota // a frame carrying the op leaves proc for peer
	evFrameIn                // ... comes off the inner inbox at proc, sent by peer
	evOrderIn                // the op's KindOrder binding arrives at proc
	evApply                  // the application callback ran at proc over [t, t2]
)

type event struct {
	t, t2      int64
	ev         evKind
	proc, peer int
	kind       types.Kind
}

// opTrace is the event log of one sampled op. The generator fills the
// scalar stamps; taps and callback wrappers append events.
type opTrace struct {
	idx    uint64
	class  int
	sender int // index of the process the op was issued from

	start     int64 // when the op was due (== issued, outside the load phase)
	submitted int64 // the asynchronous call into the facade returned
	done      int64 // delivered at every member / blocking call returned
	acked     int64 // the generator observed completion

	mu     sync.Mutex
	events []event
}

func (o *opTrace) add(e event) {
	o.mu.Lock()
	o.events = append(o.events, e)
	o.mu.Unlock()
}

// span is one row of trace.json.
type span struct {
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Proc   int    `json:"proc"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

// tracer is the traced run's recorder: the tracenet tap, the callback
// wrappers and the generator all write into it; nothing is read until the
// run is over.
type tracer struct {
	sampling atomic.Bool
	ops      sync.Map // op index -> *opTrace

	mu    sync.RWMutex
	pids  map[types.ProcessID]int
	byMsg map[types.MsgID]*opTrace // sampled casts, to recognise their KindOrder
	all   []*opTrace
	extra []span // spans the generator measured itself (churn cycles)

	frames, msgs atomic.Uint64
	kinds        [128]atomic.Uint64
}

func newTracer() *tracer {
	return &tracer{pids: make(map[types.ProcessID]int), byMsg: make(map[types.MsgID]*opTrace)}
}

func (t *tracer) register(pid types.ProcessID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := len(t.pids)
	t.pids[pid] = idx
	return idx
}

func (t *tracer) index(pid types.ProcessID) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if i, ok := t.pids[pid]; ok {
		return i
	}
	return -1
}

// begin starts the log of op idx if it falls on the sampling stride.
func (t *tracer) begin(idx uint64, class, sender int, start int64) *opTrace {
	if t == nil || !t.sampling.Load() || idx%sampleEvery != 0 {
		return nil
	}
	o := &opTrace{idx: idx, class: class, sender: sender, start: start}
	t.ops.Store(idx, o)
	t.mu.Lock()
	t.all = append(t.all, o)
	t.mu.Unlock()
	return o
}

// sampled returns the log of the op tagged in payload, if it has one.
func (t *tracer) sampled(payload []byte) *opTrace {
	idx, ok := tagOf(payload)
	if !ok || idx%sampleEvery != 0 {
		return nil
	}
	if o, ok := t.ops.Load(idx); ok {
		return o.(*opTrace)
	}
	return nil
}

func (t *tracer) count(frame []*types.Message) {
	t.frames.Add(1)
	t.msgs.Add(uint64(len(frame)))
	for _, m := range frame {
		if int(m.Kind) < len(t.kinds) {
			t.kinds[m.Kind].Add(1)
		}
	}
}

// FrameOut implements tracenet.Tap.
func (t *tracer) FrameOut(from types.ProcessID, frame []*types.Message) {
	t.count(frame)
	if !t.sampling.Load() {
		return
	}
	for _, m := range frame {
		o := t.sampled(m.Payload)
		if o == nil {
			continue
		}
		o.add(event{t: now(), ev: evFrameOut, proc: t.index(from), peer: t.index(m.To), kind: m.Kind})
		if m.Kind == types.KindCast && m.ID.Sender == from {
			t.mu.Lock()
			t.byMsg[m.ID] = o
			t.mu.Unlock()
		}
	}
}

// FrameIn implements tracenet.Tap.
func (t *tracer) FrameIn(at types.ProcessID, frame []*types.Message) {
	if !t.sampling.Load() {
		return
	}
	for _, m := range frame {
		if m.Kind == types.KindOrder {
			t.mu.RLock()
			o := t.byMsg[m.ID]
			t.mu.RUnlock()
			if o != nil {
				o.add(event{t: now(), ev: evOrderIn, proc: t.index(at), peer: t.index(m.From), kind: m.Kind})
			}
			continue
		}
		if o := t.sampled(m.Payload); o != nil {
			o.add(event{t: now(), ev: evFrameIn, proc: t.index(at), peer: t.index(m.From), kind: m.Kind})
		}
	}
}

// netStats are the tap's counters in the fabric's shape (the traced TCP run
// has no other per-kind source).
func (t *tracer) netStats() isis.Stats {
	s := isis.Stats{
		MessagesSent: t.msgs.Load(),
		FramesSent:   t.frames.Load(),
		PerKind:      make(map[types.Kind]uint64),
	}
	for k := range t.kinds {
		if c := t.kinds[k].Load(); c > 0 {
			s.PerKind[types.Kind(k)] = c
		}
	}
	s.StabilitySent = s.PerKind[types.KindStability]
	return s
}

// applied records that the application callback for payload ran at proc r
// from start until now.
func (t *tracer) applied(r int, payload []byte, start int64) {
	if !t.sampling.Load() {
		return
	}
	if o := t.sampled(payload); o != nil {
		o.add(event{t: start, t2: now(), ev: evApply, proc: r})
	}
}

// wrapDeliver times a group's OnDeliver callback at process r.
func (t *tracer) wrapDeliver(r int, inner func(isis.Delivery)) func(isis.Delivery) {
	if inner == nil {
		return nil
	}
	return func(d isis.Delivery) {
		start := now()
		inner(d)
		t.applied(r, d.Payload, start)
	}
}

// cycleSpan records a span the generator timed itself.
func (t *tracer) cycleSpan(op uint64, name string, start, end int64) {
	if t == nil || !t.sampling.Load() {
		return
	}
	t.mu.Lock()
	t.extra = append(t.extra, span{Op: op, Name: name, Proc: -1, Start: start, End: end, Parent: "op"})
	t.mu.Unlock()
}

// --- turning event logs into spans --------------------------------------------

// stages collects, per stage name, one duration (ns) per sampled op.
type stages map[string][]float64

func (s stages) add(name string, from, to int64) {
	if from == 0 || to == 0 {
		return
	}
	d := to - from
	if d < 0 {
		d = 0
	}
	s[name] = append(s[name], float64(d))
}

// p50 returns the median of a stage in the given unit (ns per unit).
func (s stages) p50(name string, per float64) float64 {
	v := s[name]
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	return v[len(v)/2] / per
}

// first returns the earliest event matching pred (the zero event if none).
func first(evs []event, pred func(event) bool) event {
	var best event
	for _, e := range evs {
		if pred(e) && (best.t == 0 || e.t < best.t) {
			best = e
		}
	}
	return best
}

// analyse turns every completed sampled op into spans and per-stage
// durations. The stage durations follow the critical receiver — the member
// that delivered last — because that member sets the op's latency.
func (t *tracer) analyse() ([]span, stages) {
	t.mu.RLock()
	ops := append([]*opTrace(nil), t.all...)
	spans := append([]span(nil), t.extra...)
	t.mu.RUnlock()
	st := stages{}
	for _, sp := range spans {
		st.add(sp.Name, sp.Start, sp.End)
	}
	for _, o := range ops {
		if o.done == 0 {
			continue // never completed: counted as a failure by the generator
		}
		o.mu.Lock()
		evs := append([]event(nil), o.events...)
		o.mu.Unlock()
		var children []span
		child := func(name string, proc int, from, to int64) {
			if from == 0 || to == 0 || to < from {
				return
			}
			children = append(children, span{Op: o.idx, Name: name, Proc: proc, Start: from, End: to, Parent: "op"})
		}
		firstOut := first(evs, func(e event) bool { return e.ev == evFrameOut && e.proc == o.sender })
		child("send_path", o.sender, o.start, firstOut.t)
		st.add("send_path", o.start, firstOut.t)
		if o.submitted != 0 {
			child("submit", o.sender, o.start, o.submitted)
			st.add("submit", o.start, o.submitted)
		}
		var applies []event
		for _, e := range evs {
			if e.ev == evApply {
				applies = append(applies, e)
				child("apply", e.proc, e.t, e.t2)
			}
		}
		// crit is the apply that set the op's latency: the last remote one
		// for a multicast, the only one for a request.
		var crit event
		for _, e := range applies {
			if (e.proc != o.sender || len(applies) == 1) && e.t >= crit.t {
				crit = e
			}
		}
		if crit.t == 0 {
			continue
		}
		switch o.class {
		case opCast:
			for _, a := range applies {
				r := a.proc
				in := first(evs, func(e event) bool { return e.ev == evFrameIn && e.proc == r && e.kind == types.KindCast })
				out := first(evs, func(e event) bool { return e.ev == evFrameOut && e.peer == r && e.kind == types.KindCast })
				ord := first(evs, func(e event) bool { return e.ev == evOrderIn && e.proc == r })
				ready := in.t
				if r == o.sender {
					ready = firstOut.t // the origin holds its own copy from the start
				}
				child("net", r, out.t, in.t)
				if ord.t > ready && ready != 0 {
					child("order_wait", r, ready, ord.t)
					if r == crit.proc {
						st.add("order_wait", ready, ord.t)
					}
					ready = ord.t
				}
				if r != o.sender {
					child("recv_path", r, ready, a.t)
				}
				if r == crit.proc {
					st.add("net", out.t, in.t)
					st.add("recv_path", ready, a.t)
				}
			}
		case opRequest:
			in := first(evs, func(e event) bool { return e.ev == evFrameIn && e.proc != o.sender })
			child("net", in.proc, firstOut.t, in.t)
			st.add("net", firstOut.t, in.t)
			child("route", crit.proc, firstOut.t, crit.t)
			st.add("route", firstOut.t, crit.t)
			// The hop that reached the serving coordinator is the last
			// frame in at that process before its handler ran.
			var last event
			for _, e := range evs {
				if e.ev == evFrameIn && e.proc == crit.proc && e.t <= crit.t && e.t > last.t {
					last = e
				}
			}
			child("recv_path", crit.proc, last.t, crit.t)
			st.add("recv_path", last.t, crit.t)
		case opBcast:
			in := first(evs, func(e event) bool { return e.ev == evFrameIn && e.proc != o.sender })
			child("net", in.proc, firstOut.t, in.t)
			st.add("net", firstOut.t, in.t)
			var last event
			for _, e := range evs {
				if e.ev == evFrameIn && e.proc == crit.proc && e.t <= crit.t && e.t > last.t {
					last = e
				}
			}
			child("recv_path", crit.proc, last.t, crit.t)
			st.add("recv_path", last.t, crit.t)
			st.add("tree_total", o.start, crit.t)
		}
		st.add("apply", crit.t, crit.t2)
		// ack: from the moment the result existed to the moment the caller
		// had it. For an asynchronous cast that is the generator's wake-up
		// after the last delivery; for a blocking call it is the reply path,
		// from the handler's return (a request, a broadcast) or from the
		// first remote delivery (a blocking cast waits for one receipt).
		ackFrom, ackTo := o.done, o.acked
		if o.acked == 0 {
			ackFrom, ackTo = crit.t2, o.done
			if o.class == opCast {
				for _, a := range applies {
					if a.proc != o.sender && a.t2 < ackFrom {
						ackFrom = a.t2
					}
				}
			}
		}
		child("ack", o.sender, ackFrom, ackTo)
		st.add("ack", ackFrom, ackTo)
		end := max(o.done, ackTo)
		st.add("op", o.start, end)
		spans = append(spans, span{Op: o.idx, Name: "op", Proc: o.sender, Start: o.start, End: end})
		spans = append(spans, children...)
	}
	return spans, st
}

// writeTrace writes the spans to path as one JSON document.
func writeTrace(path, workload string, seed int64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
