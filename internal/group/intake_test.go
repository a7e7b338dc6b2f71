package group

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/member"
	"repro/internal/node"
	"repro/internal/reliability"
	"repro/internal/transport"
	"repro/internal/types"
)

// These tests drive the cast intake path of one real member whose peers
// exist only as process ids: frames, one-cast frames included, are handed to
// onCastBatch on the member's actor, and everything it sends is recorded
// instead of transmitted.

// recorder is a transport.Network with a single endpoint that keeps clones
// of what it is asked to send (an endpoint only borrows a frame).
type recorder struct {
	pid   types.ProcessID
	inbox chan []*types.Message
	mu    sync.Mutex
	sent  []*types.Message
}

func (r *recorder) Attach(types.ProcessID) (transport.Endpoint, error) { return r, nil }
func (r *recorder) PID() types.ProcessID                               { return r.pid }
func (r *recorder) Inbox() <-chan []*types.Message                     { return r.inbox }
func (r *recorder) Close() error                                       { return nil }
func (r *recorder) Send(m *types.Message) error                        { return r.SendBatch([]*types.Message{m}) }
func (r *recorder) SendBatch(ms []*types.Message) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range ms {
		r.sent = append(r.sent, m.Clone())
	}
	return nil
}

// sentTo counts the recorded messages of one kind addressed to p.
func (r *recorder) sentTo(p types.ProcessID, kind types.Kind) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, m := range r.sent {
		if m.To == p && m.Kind == kind {
			n++
		}
	}
	return n
}

func tpid(site uint32) types.ProcessID {
	return types.ProcessID{Site: types.SiteID(site), Incarnation: 1}
}

type rig struct {
	t    *testing.T
	net  *recorder
	node *node.Node
	g    *Group
}

// newRig makes p1 the coordinator (and sequencer) of view 2 = {p1, p2, p3}.
// The recovery timer is parked so the only traffic is what intake causes.
func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	return newRigView(t, cfg, tpid(1), tpid(2), tpid(3))
}

// newRigView is newRig with view 2's members in the given order: p1 is the
// member, the first one the coordinator.
func newRigView(t *testing.T, cfg Config, members ...types.ProcessID) *rig {
	t.Helper()
	self := tpid(1)
	net := &recorder{pid: self, inbox: make(chan []*types.Message, 64)}
	n, err := node.New(self, net)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	t.Cleanup(n.Stop)
	cfg.Reliability.NakInterval = time.Hour
	gid := types.FlatGroup("intake")
	g, err := NewStack(n, nil).Create(gid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{t: t, net: net, node: n, g: g}
	r.do(func() { g.install(member.NewView(gid, 2, members), nil) })
	return r
}

// do runs fn on the member's actor.
func (r *rig) do(fn func()) {
	r.t.Helper()
	if err := r.node.Call(fn); err != nil {
		r.t.Fatal(err)
	}
}

// frameFrom builds the frame p would send for its casts lo..hi of the
// current view: ABCASTs, each piggybacking p's watermarks at the time — all
// of p1's casts up to ackSelf, its own previous cast, peer's up to the same —
// and a delivered ABCAST prefix that trails its own sequence.
func frameFrom(g *Group, p, peer types.ProcessID, lo, hi, ackSelf uint64) []*types.Message {
	var frame []*types.Message
	for seq := lo; seq <= hi; seq++ {
		frame = append(frame, &types.Message{
			Kind:     types.KindCast,
			From:     p,
			Group:    g.id,
			View:     2,
			ID:       types.MsgID{Sender: p, Seq: seq},
			Ordering: types.Total,
			Payload:  []byte{byte(seq)},
			Stab: []types.StabEntry{
				{Sender: tpid(1), Seq: ackSelf},
				{Sender: p, Seq: seq - 1},
				{Sender: peer, Seq: seq - 1},
			},
			StabOrd: seq,
		})
	}
	return frame
}

func TestFrameFoldsOneReportAndMatchesPerCastIntake(t *testing.T) {
	const casts = 64
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Two identical members; one takes each frame whole, the other cast by
	// cast. Each has a blocking Cast waiting for both peers to acknowledge.
	var rigs [2]*rig
	var castErr [2]chan error
	for i := range rigs {
		r := newRig(t, Config{Resiliency: 2})
		rigs[i], castErr[i] = r, make(chan error, 1)
		go func(ch chan error) { ch <- r.g.Cast(ctx, types.Total, []byte("own")) }(castErr[i])
		for waiting := 0; waiting == 0; {
			r.do(func() { waiting = len(r.g.acks) })
		}
	}
	whole, single := rigs[0], rigs[1]

	reports := func(r *rig) (n uint64) {
		r.do(func() { n = r.g.relStats.Reports })
		return n
	}
	for _, from := range []struct{ p, peer types.ProcessID }{{tpid(2), tpid(3)}, {tpid(3), tpid(2)}} {
		before := [2]uint64{reports(whole), reports(single)}
		whole.do(func() { whole.g.onCastBatch(frameFrom(whole.g, from.p, from.peer, 1, casts, 1), false) })
		single.do(func() {
			for _, m := range frameFrom(single.g, from.p, from.peer, 1, casts, 1) {
				single.g.onCastBatch([]*types.Message{m}, false)
			}
		})
		if got := reports(whole) - before[0]; got != 1 {
			t.Errorf("a %d-cast frame from %v folded %d reports, want 1", casts, from.p, got)
		}
		if got := reports(single) - before[1]; got != casts {
			t.Errorf("%d single casts from %v folded %d reports, want %d", casts, from.p, got, casts)
		}
	}

	// Both members end in the same place: watermarks, report matrix,
	// retransmit buffer, ABCAST delivery and pruning, and the waiter.
	type state struct {
		stable, ctg    [3]uint64
		reported       [3][3]uint64
		buffered       int
		nextSeq        uint64
		doneLen, logSz int
		waiting        int
	}
	snapshot := func(r *rig) (s state) {
		r.do(func() {
			g := r.g
			for i := 0; i < 3; i++ {
				p := tpid(uint32(i + 1))
				s.stable[i], s.ctg[i] = g.rel.Stable(p), g.rel.Ctg(p)
				for j := 0; j < 3; j++ {
					s.reported[i][j] = g.rel.Reported(p, tpid(uint32(j+1)))
				}
			}
			s.buffered = g.rel.Buffered()
			s.nextSeq = g.total.NextSeq()
			s.doneLen, s.logSz = g.total.Retained()
			s.waiting = len(g.acks)
		})
		return s
	}
	a, b := snapshot(whole), snapshot(single)
	if a != b {
		t.Errorf("frame intake and per-cast intake diverge:\n frame:    %+v\n per cast: %+v", a, b)
	}
	// And it is the place the reports describe: p1's cast held by everyone,
	// each peer's casts stable up to what the other has reported, the
	// delivered-order log pruned to the slowest member's prefix.
	if want := [3]uint64{1, casts - 1, casts - 1}; a.stable != want {
		t.Errorf("stable = %v, want %v", a.stable, want)
	}
	if a.nextSeq != 2*casts+2 {
		t.Errorf("delivered %d ABCASTs, want %d", a.nextSeq-1, 2*casts+1)
	}
	if want := int(a.nextSeq-1) - (casts - 1); a.logSz != want || a.doneLen != want {
		t.Errorf("order.Total retains done=%d log=%d, want %d (pruned to the peers' delivered prefix %d)", a.doneLen, a.logSz, want, casts-1)
	}
	for i, ch := range castErr {
		select {
		case err := <-ch:
			if err != nil {
				t.Errorf("rig %d: blocking cast failed: %v", i, err)
			}
		case <-ctx.Done():
			t.Fatalf("rig %d: blocking cast never resolved", i)
		}
	}
	if a.waiting != 0 {
		t.Errorf("%d waiters left after both peers reported holding the cast", a.waiting)
	}
}

func TestFrameFoldsOnlyCurrentViewReports(t *testing.T) {
	r := newRig(t, Config{})
	p2, p3 := tpid(2), tpid(3)
	frame := frameFrom(r.g, p2, p3, 1, 3, 0)
	// The middle and the last cast belong to a view not installed yet; their
	// watermarks count sequences of that view and must not be folded here.
	frame = append(frame, frameFrom(r.g, p2, p3, 1, 1, 0)...)
	for _, i := range []int{1, 3} {
		frame[i].View = 3
		frame[i].Stab = []types.StabEntry{{Sender: p3, Seq: 1000}}
		frame[i].StabOrd = 1000
	}
	var reports, reported uint64
	var future int
	var missing []reliability.SeqRange
	r.do(func() {
		r.g.onCastBatch(frame, false)
		reports, future = r.g.relStats.Reports, len(r.g.futureCasts)
		reported = r.g.rel.Reported(p2, p3)
		missing = r.g.rel.Missing()
	})
	if reports != 1 {
		t.Errorf("folded %d reports, want 1 (the last current-view one)", reports)
	}
	if future != 2 {
		t.Errorf("%d casts kept for the next view, want 2", future)
	}
	// The last current-view cast is p2's seq 3, reporting p3 at 2.
	if reported != 2 {
		t.Errorf("Reported(p2, p3) = %d, want 2 from the last current-view report", reported)
	}
	// Known missing: p2's cast 2 (it went to the next view) and the two casts
	// of p3 the report revealed — nothing near 1000.
	want := []reliability.SeqRange{{Sender: p2, Lo: 2, Hi: 2}, {Sender: p3, Lo: 1, Hi: 2}}
	if !slices.Equal(missing, want) {
		t.Errorf("Missing = %v, want %v", missing, want)
	}
}

func TestWedgedFrameAcknowledgedOncePerOriginator(t *testing.T) {
	r := newRig(t, Config{})
	p2, p3 := tpid(2), tpid(3)
	// A frame from p3 while a view change is in progress: five casts of its
	// own and five of p2's it is flush-forwarding, each of those twice.
	frame := frameFrom(r.g, p3, p2, 1, 5, 0)
	for seq := uint64(1); seq <= 5; seq++ {
		fwd := &types.Message{
			Kind: types.KindCast, From: p3, Group: r.g.id, View: 2,
			ID: types.MsgID{Sender: p2, Seq: seq}, Ordering: types.FIFO,
		}
		frame = append(frame, fwd, fwd.Clone())
	}
	var parked int
	r.do(func() {
		r.g.wedged = true
		r.g.onCastBatch(frame, false)
		parked = len(r.g.parked)
	})
	r.do(func() {}) // the actor flushes its outbox when it runs out of work
	if parked != len(frame) {
		t.Errorf("parked %d of %d casts", parked, len(frame))
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.net.sentTo(p2, types.KindStability)+r.net.sentTo(p3, types.KindStability) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if a, b := r.net.sentTo(p2, types.KindStability), r.net.sentTo(p3, types.KindStability); a != 1 || b != 1 {
		t.Errorf("wedged frame answered with %d reports to p2 and %d to p3, want 1 each", a, b)
	}
}

// TestBusyPassiveMemberPaysWithinOneFrame: a member that never casts pays
// what intake owes from the node's idle hook, which also runs before every
// inbound frame. Kept busy by a backlog of frames — the actor never runs
// out of work until the backlog is gone — it still acknowledges each frame
// before taking in the next: one report per frame, not one per backlog and
// not one per cast.
func TestBusyPassiveMemberPaysWithinOneFrame(t *testing.T) {
	const frames, perFrame = 8, 4
	r := newRig(t, Config{})
	p2, p3 := tpid(2), tpid(3)
	gate := make(chan struct{})
	r.node.Do(func() { <-gate }) // hold the actor while the backlog queues
	for f := uint64(0); f < frames; f++ {
		r.net.inbox <- frameFrom(r.g, p2, p3, f*perFrame+1, (f+1)*perFrame, 0)
	}
	close(gate)
	deadline := time.Now().Add(5 * time.Second)
	for r.net.sentTo(p2, types.KindStability) < frames && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	r.do(func() {}) // the backlog is taken in and the outbox flushed
	if got := r.net.sentTo(p2, types.KindStability); got != frames {
		t.Errorf("%d frames of %d casts taken in back to back: %d reports to their originator, want %d", frames, perFrame, got, frames)
	}
	if got := r.net.sentTo(p3, types.KindStability); got != 0 {
		t.Errorf("%d reports to a member that sent nothing, want 0", got)
	}
	// Each report covers its frame: the last one acknowledges everything.
	r.net.mu.Lock()
	var last *types.Message
	for _, m := range r.net.sent {
		if m.Kind == types.KindStability && m.To == p2 {
			last = m
		}
	}
	r.net.mu.Unlock()
	if last == nil || len(last.Stab) == 0 || last.Stab[len(last.Stab)-1] != (types.StabEntry{Sender: p2, Seq: frames * perFrame}) {
		t.Errorf("last report %v does not acknowledge all %d casts", last, frames*perFrame)
	}
}

// TestInstallDropsOwedReports: acknowledgements intake owed in a view are
// not paid after the next view is installed — they would describe the new
// view's watermarks to a process that may no longer be a member — and the
// group leaves the stack's owing list when the stack pays. The member is not
// the sequencer: a sequencer relays the frame's ABCASTs and pays its debts
// before it applies them.
func TestInstallDropsOwedReports(t *testing.T) {
	p2, p3 := tpid(2), tpid(3)
	r := newRigView(t, Config{}, p2, tpid(1), p3) // p2 sequences
	var owed, owing int
	r.do(func() {
		r.g.onCastBatch(frameFrom(r.g, p3, p2, 1, 3, 0), false)
		owed = len(r.g.owed)
		r.g.install(member.NewView(r.g.id, 3, []types.ProcessID{p2, tpid(1)}), nil)
	})
	r.do(func() { owing = len(r.g.stack.owing) }) // after the idle hook ran
	if owed != 1 {
		t.Fatalf("intake of p3's frame left %d originators owed, want 1", owed)
	}
	if got := r.net.sentTo(p3, types.KindStability); got != 0 {
		t.Errorf("%d reports sent to p3 after the install dropped the debt, want 0", got)
	}
	if owing != 0 {
		t.Errorf("the stack still lists %d owing groups after paying", owing)
	}
}

// TestRelayedDuplicateYieldsBinding: a member that already holds a cast —
// its originator multicast it after suspecting the sequencer — still takes
// the slot from the sequencer's relayed copy, which the receive path drops
// as a duplicate, whether it arrives alone or in a frame.
func TestRelayedDuplicateYieldsBinding(t *testing.T) {
	for _, batch := range []bool{false, true} {
		p1, p2, p3 := tpid(1), tpid(2), tpid(3)
		r := newRigView(t, Config{}, p2, p1, p3) // p2 sequences
		cast := func(from types.ProcessID, seq, slot uint64) *types.Message {
			return &types.Message{
				Kind: types.KindCast, From: from, Group: r.g.id, View: 2,
				ID: types.MsgID{Sender: p3, Seq: seq}, Ordering: types.Total, Seq: slot,
			}
		}
		var delivered uint64
		r.do(func() {
			r.g.onCastBatch([]*types.Message{cast(p3, 1, 0), cast(p3, 2, 0)}, false)
			if batch {
				r.g.onCastBatch([]*types.Message{cast(p2, 1, 1), cast(p2, 2, 2)}, false)
			} else {
				r.g.onCastBatch([]*types.Message{cast(p2, 1, 1)}, false)
				r.g.onCastBatch([]*types.Message{cast(p2, 2, 2)}, false)
			}
			delivered = r.g.total.NextSeq() - 1
		})
		if delivered != 2 {
			t.Errorf("batch=%v: delivered %d of 2 held casts after their relayed duplicates", batch, delivered)
		}
	}
}

// TestRelayedCastPaysOnlyTheSequencer: a non-sequencer's ABCAST goes to the
// sequencer alone, so the report it carries pays only what the member owes
// the sequencer; what it owes another member still goes out as a report.
func TestRelayedCastPaysOnlyTheSequencer(t *testing.T) {
	p1, p2, p3 := tpid(1), tpid(2), tpid(3)
	r := newRigView(t, Config{}, p2, p1, p3) // p2 sequences
	r.do(func() {
		r.g.onCastBatch(frameFrom(r.g, p2, p3, 1, 2, 0), false)
		r.g.onCastBatch([]*types.Message{{
			Kind: types.KindCast, From: p2, Group: r.g.id, View: 2,
			ID: types.MsgID{Sender: p3, Seq: 1}, Ordering: types.Total, Seq: 3,
		}}, false)
		r.g.castOnActor(types.Total, []byte("own"), 0, nil)
	})
	r.do(func() {}) // the actor pays what is owed when it runs out of work
	if got := r.net.sentTo(p2, types.KindCast); got != 1 {
		t.Errorf("%d casts sent to the sequencer, want 1", got)
	}
	if got := r.net.sentTo(p3, types.KindCast); got != 0 {
		t.Errorf("%d casts sent to p3, want 0: the sequencer relays", got)
	}
	if got := r.net.sentTo(p2, types.KindStability); got != 0 {
		t.Errorf("%d reports sent to the sequencer, want 0: the cast paid it", got)
	}
	if got := r.net.sentTo(p3, types.KindStability); got != 1 {
		t.Errorf("%d reports sent to p3, want 1: the cast to the sequencer does not pay it", got)
	}
}
