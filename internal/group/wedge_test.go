package group

import (
	"slices"
	"testing"
	"time"

	"repro/internal/member"
	"repro/internal/reliability"
	"repro/internal/types"
)

// flushAckTo proposes view 3 with the given members to the rig's member on
// behalf of from, and decodes the flush acknowledgement the member answers
// with.
func flushAckTo(r *rig, from types.ProcessID, corr uint64, members ...types.ProcessID) member.OrderInfo {
	r.t.Helper()
	proposed := member.NewView(r.g.id, 3, members)
	r.do(func() {
		r.g.onViewPropose(&types.Message{
			Kind: types.KindViewPropose, From: from, Group: r.g.id, View: 3, Corr: corr,
			Payload: types.EncodeString(nil, string(proposed.Encode())),
		})
	})
	r.do(func() {}) // the actor flushes its outbox when it runs out of work
	r.net.mu.Lock()
	defer r.net.mu.Unlock()
	for _, m := range r.net.sent {
		if m.Kind != types.KindViewFlushAck || m.To != from || m.Corr != corr {
			continue
		}
		_, rest, ok := member.DecodeCut(m.Payload)
		if !ok {
			r.t.Fatalf("flush acknowledgement to %v: undecodable cut", from)
		}
		oi, _, ok := member.DecodeOrderInfo(rest)
		if !ok {
			r.t.Fatalf("flush acknowledgement to %v: undecodable order report", from)
		}
		return oi
	}
	r.t.Fatalf("no flush acknowledgement sent to %v", from)
	return member.OrderInfo{}
}

// TestFlushAckLeavesBindingsToTheSequencer: a member's flush acknowledgement
// to the closing view's coordinator — its sequencer, which retains every
// binding a survivor may still need — carries the member's delivered prefix
// and unbound casts but no bindings; the acknowledgement to a takeover
// proposer, whose sequencer died, carries them all.
func TestFlushAckLeavesBindingsToTheSequencer(t *testing.T) {
	p1, p2, p3 := tpid(1), tpid(2), tpid(3)
	r := newRigView(t, Config{}, p2, p1, p3) // p2 coordinates and sequences
	bound := []types.SeqBinding{
		{Seq: 1, ID: types.MsgID{Sender: p2, Seq: 1}},
		{Seq: 2, ID: types.MsgID{Sender: p3, Seq: 1}},
	}
	unbound := types.MsgID{Sender: p3, Seq: 2}
	r.do(func() {
		for _, b := range bound {
			r.g.deliverAll(r.g.total.AddOrder(b.Seq, b.ID))
		}
		r.g.onCastBatch([]*types.Message{{
			Kind: types.KindCast, From: p3, Group: r.g.id, View: 2,
			ID: unbound, Ordering: types.Total, Payload: []byte("u"),
		}}, false)
	})

	toSequencer := flushAckTo(r, p2, 7, p2, p1, p3)
	if len(toSequencer.Bindings) != 0 {
		t.Errorf("acknowledgement to the coordinator carries bindings %v, want none", toSequencer.Bindings)
	}
	toTakeover := flushAckTo(r, p3, 8, p1, p3)
	if !slices.Equal(toTakeover.Bindings, bound) {
		t.Errorf("acknowledgement to a takeover proposer carries bindings %v, want %v", toTakeover.Bindings, bound)
	}
	for _, oi := range []member.OrderInfo{toSequencer, toTakeover} {
		if oi.Next != 1 || !slices.Equal(oi.Unordered, []types.MsgID{unbound}) {
			t.Errorf("order report Next=%d Unordered=%v, want 1 and [%v]", oi.Next, oi.Unordered, unbound)
		}
	}
}

// TestWedgedMemberParksNoHeldCast: a wedged member parks only the casts its
// tracker does not hold yet. A flood of forwarded and network duplicates of
// casts it already took in parks nothing, though the originator is still
// acknowledged for them.
func TestWedgedMemberParksNoHeldCast(t *testing.T) {
	const held, fresh, copies = 5, 3, 10
	r := newRig(t, Config{})
	p2, p3 := tpid(2), tpid(3)
	r.do(func() { r.g.onCastBatch(frameFrom(r.g, p2, p3, 1, held, 0), false) })
	r.do(func() {})
	reports := r.net.sentTo(p2, types.KindStability)

	flood := frameFrom(r.g, p2, p3, held+1, held+fresh, 0)
	for k := 0; k < copies; k++ {
		for _, m := range frameFrom(r.g, p2, p3, 1, held, 0) {
			if k%2 == 1 {
				m.From = p3 // forwarded by p3
				m.Stab, m.StabOrd = nil, 0
			}
			flood = append(flood, m)
		}
	}
	var parked int
	r.do(func() {
		r.g.wedged = true
		r.g.onCastBatch(flood, false)
		r.g.onCastBatch([]*types.Message{flood[len(flood)-1].Clone()}, false)
		parked = len(r.g.parked)
	})
	if parked != fresh {
		t.Errorf("wedged member parked %d of %d casts, want only the %d it did not hold", parked, len(flood)+1, fresh)
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.net.sentTo(p2, types.KindStability) == reports && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if r.net.sentTo(p2, types.KindStability) == reports {
		t.Error("the originator of the duplicates was never acknowledged")
	}
}

// TestWedgedMemberIgnoresDeposedRelayBinding: the slot in a copy the
// sequencer relayed is the sequencer's binding, and onOrder's fence covers
// it. Once a member wedges for a view change that deposes the sequencer, a
// relayed copy from it binds nothing — neither as a duplicate of a cast the
// member holds nor as a fresh cast the pending install's cut admits — while
// the proposer's re-announcements still bind.
func TestWedgedMemberIgnoresDeposedRelayBinding(t *testing.T) {
	p1, p2, p3 := tpid(1), tpid(2), tpid(3)
	r := newRigView(t, Config{}, p2, p1, p3) // p2 coordinates and sequences
	held := types.MsgID{Sender: p3, Seq: 1}
	fresh := types.MsgID{Sender: p3, Seq: 2}
	cast := func(from types.ProcessID, id types.MsgID, slot uint64) *types.Message {
		return &types.Message{
			Kind: types.KindCast, From: from, Group: r.g.id, View: 2,
			ID: id, Ordering: types.Total, Seq: slot, Payload: []byte{byte(id.Seq)},
		}
	}
	order := func(from types.ProcessID, id types.MsgID, slot uint64) *types.Message {
		return &types.Message{Kind: types.KindOrder, From: from, Group: r.g.id, View: 2, ID: id, Seq: slot}
	}
	var delivered []types.MsgID
	r.do(func() {
		r.g.cfg.OnDeliver = func(d Delivery) { delivered = append(delivered, d.ID) }
		// p3 multicast its first cast (it suspected the sequencer), so p1
		// holds the data unbound.
		r.g.onCastBatch([]*types.Message{cast(p3, held, 0)}, false)
	})
	flushAckTo(r, p3, 9, p1, p3) // p3 takes the view change over, deposing p2

	// An install from p3 names the cut and the re-announced prefix.
	cut := map[types.ProcessID]uint64{p3: 2}
	proposed := member.NewView(r.g.id, 3, []types.ProcessID{p1, p3})
	payload := append(types.EncodeString(nil, string(proposed.Encode())), member.EncodeCut(cut)...)
	payload = types.EncodeUint64(payload, 2)
	var heldBound, freshBound bool
	var pending bool
	r.do(func() {
		r.g.onCastBatch([]*types.Message{cast(p2, held, 1)}, false) // the deposed sequencer's relay, a duplicate here
		heldBound = r.g.total.Ordered(held)
		r.g.onViewInstall(&types.Message{Kind: types.KindViewInstall, From: p3, Group: r.g.id, View: 3, Payload: payload})
		r.g.onCastBatch([]*types.Message{cast(p2, fresh, 2)}, false) // a relay the cut admits
		freshBound = r.g.total.Ordered(fresh)
		pending = r.g.pending != nil
	})
	if heldBound {
		t.Error("a duplicate relayed by the deposed sequencer bound its cast")
	}
	if freshBound {
		t.Error("a fresh cast relayed by the deposed sequencer arrived bound")
	}
	if !pending || len(delivered) != 0 {
		t.Fatalf("pending install %v, delivered %v: want the install held and nothing delivered", pending, delivered)
	}

	// The proposer's re-announcement binds both; the install completes.
	var view types.ViewID
	r.do(func() {
		r.g.onOrder(order(p3, fresh, 1))
		r.g.onOrder(order(p3, held, 2))
		view = r.g.view.ID
	})
	if want := []types.MsgID{fresh, held}; !slices.Equal(delivered, want) {
		t.Errorf("delivered %v, want %v in the re-announced order", delivered, want)
	}
	if view != 3 {
		t.Errorf("installed view %d, want 3", view)
	}
}

// TestInstallObligesReannouncedSlotsAboveTheCut: the sequencer may bind a
// cast whose sender's earlier casts no survivor holds — the cast then lies
// above its sender's delivery cut, yet its slot is in the install's
// re-announced prefix, which every member must deliver. A copy parked
// before the install is replayed rather than discarded, and a member that
// lacks the data NAKs it; the install completes with both delivered.
func TestInstallObligesReannouncedSlotsAboveTheCut(t *testing.T) {
	p1, p2, p3 := tpid(1), tpid(2), tpid(3)
	r := newRigView(t, Config{}, p2, p1, p3)  // p2 coordinates and sequences
	parked := types.MsgID{Sender: p3, Seq: 2} // p3's cast 1 was lost everywhere
	naked := types.MsgID{Sender: p3, Seq: 3}
	relay := func(id types.MsgID, slot uint64) *types.Message {
		return &types.Message{
			Kind: types.KindCast, From: p2, Group: r.g.id, View: 2,
			ID: id, Ordering: types.Total, Seq: slot, Payload: []byte{byte(id.Seq)},
		}
	}
	var delivered []types.MsgID
	r.do(func() { r.g.cfg.OnDeliver = func(d Delivery) { delivered = append(delivered, d.ID) } })
	flushAckTo(r, p2, 11, p2, p1) // p2 removes p3

	proposed := member.NewView(r.g.id, 3, []types.ProcessID{p2, p1})
	payload := append(types.EncodeString(nil, string(proposed.Encode())), member.EncodeCut(map[types.ProcessID]uint64{})...)
	payload = types.EncodeUint64(payload, 2)
	var parkedN int
	var pending bool
	r.do(func() {
		r.g.onCastBatch([]*types.Message{relay(parked, 1)}, false)
		parkedN = len(r.g.parked)
		for slot, id := range []types.MsgID{parked, naked} {
			r.g.onOrder(&types.Message{Kind: types.KindOrder, From: p2, Group: r.g.id, View: 2, ID: id, Seq: uint64(slot + 1)})
		}
		r.g.onViewInstall(&types.Message{Kind: types.KindViewInstall, From: p2, Group: r.g.id, View: 3, Payload: payload})
		pending = r.g.pending != nil
		r.g.onRecoveryTick()
	})
	if parkedN != 1 {
		t.Fatalf("%d casts parked before the install, want 1", parkedN)
	}
	if !pending || !slices.Equal(delivered, []types.MsgID{parked}) {
		t.Fatalf("pending install %v, delivered %v: want the parked cast delivered and the install held", pending, delivered)
	}
	var asked bool
	for _, m := range r.net.sentKind(types.KindNak) {
		ranges, _ := reliability.DecodeNak(m.Payload)
		asked = asked || slices.Contains(ranges, reliability.SeqRange{Sender: p3, Lo: 3, Hi: 3})
	}
	if !asked {
		t.Fatal("the member never NAKed the cast bound to a re-announced slot")
	}
	var view types.ViewID
	r.do(func() {
		r.g.onCastBatch([]*types.Message{relay(naked, 2)}, false) // the NAK's answer
		view = r.g.view.ID
	})
	if !slices.Equal(delivered, []types.MsgID{parked, naked}) || view != 3 {
		t.Errorf("delivered %v in view %d, want %v and view 3", delivered, view, []types.MsgID{parked, naked})
	}
}

// TestInstallReplaysHeldCastsThroughTheIntake: both replays an install makes
// go through the one cast intake. The member, the closing view's sequencer,
// wedges for a change p2 proposes. Casts parked during the wedge are
// replayed up to the install's cut — those beyond it are discarded — without
// a stability report, a folded report or a new ABCAST slot: each was owed
// its acknowledgement when parked, and the flush froze the closing view's
// order. Casts that arrived for the next view, out of order and duplicated,
// are delivered exactly once, in FIFO order, when that view installs.
func TestInstallReplaysHeldCastsThroughTheIntake(t *testing.T) {
	p1, p2, p3 := tpid(1), tpid(2), tpid(3)
	r := newRig(t, Config{InstallGrace: time.Hour}) // p1 coordinates and sequences
	cast := func(view types.ViewID, from types.ProcessID, seq uint64, o types.Ordering) *types.Message {
		return &types.Message{
			Kind: types.KindCast, From: from, Group: r.g.id, View: view,
			ID: types.MsgID{Sender: from, Seq: seq}, Ordering: o, Payload: []byte{byte(seq)},
			Stab: []types.StabEntry{{Sender: from, Seq: seq - 1}}, StabOrd: 1,
		}
	}
	type delivery struct {
		view types.ViewID
		seq  uint64
	}
	var delivered []delivery
	r.do(func() {
		r.g.cfg.OnDeliver = func(d Delivery) { delivered = append(delivered, delivery{d.View, d.ID.Seq}) }
		for _, seq := range []uint64{3, 1, 1, 2} {
			r.g.onCastBatch([]*types.Message{cast(3, p2, seq, types.FIFO)}, false)
		}
	})
	flushAckTo(r, p2, 5, p1, p2, p3)

	// p3's cast 4 is late; the rest of its casts and an ABCAST of p2's park.
	abcast := types.MsgID{Sender: p2, Seq: 1}
	var parked int
	r.do(func() {
		var frame []*types.Message
		for _, seq := range []uint64{1, 2, 3, 5} {
			frame = append(frame, cast(2, p3, seq, types.FIFO))
		}
		r.g.onCastBatch(frame, false)
		r.g.onCastBatch([]*types.Message{cast(2, p2, abcast.Seq, types.Total)}, false)
		parked = len(r.g.parked)
	})
	r.do(func() {}) // the parked casts' originators are acknowledged now
	if parked != 5 || len(delivered) != 0 {
		t.Fatalf("wedged member parked %d casts and delivered %v, want 5 and none", parked, delivered)
	}

	// The install's cut keeps p2's ABCAST and p3's casts up to 4, so the
	// member replays p3's casts 1..3, discards its cast 5 and waits for 4.
	cut := map[types.ProcessID]uint64{p2: 1, p3: 4}
	proposed := member.NewView(r.g.id, 3, []types.ProcessID{p1, p2, p3})
	payload := append(types.EncodeString(nil, string(proposed.Encode())), member.EncodeCut(cut)...)
	payload = types.EncodeUint64(payload, 0)
	sent := len(r.net.sent)
	var reportsBefore, reportsAfter uint64
	var bound, pending bool
	r.do(func() {
		reportsBefore = r.g.relStats.Reports
		r.g.onViewInstall(&types.Message{Kind: types.KindViewInstall, From: p2, Group: r.g.id, View: 3, Payload: payload})
		reportsAfter = r.g.relStats.Reports
		bound = r.g.total.Ordered(abcast)
		pending = r.g.pending != nil && len(r.g.parked) == 0 && r.g.rel.Holds(abcast)
	})
	r.do(func() {}) // anything the replay owed would be paid now
	if want := []delivery{{2, 1}, {2, 2}, {2, 3}}; !slices.Equal(delivered, want) {
		t.Fatalf("the replay delivered %v, want %v: the parked casts within the cut", delivered, want)
	}
	if !pending {
		t.Fatal("the install did not wait for p3's cast 4 holding p2's ABCAST, or left casts parked")
	}
	if bound {
		t.Error("the replay bound a slot to a parked ABCAST")
	}
	if reportsAfter != reportsBefore {
		t.Errorf("the replay folded %d reports, want 0", reportsAfter-reportsBefore)
	}
	r.net.mu.Lock()
	for _, m := range r.net.sent[sent:] {
		t.Errorf("the replay sent a %v to %v, want nothing", m.Kind, m.To)
	}
	r.net.mu.Unlock()

	// p3's cast 4 completes the install, which replays the next view's casts.
	var view types.ViewID
	var held, future int
	r.do(func() {
		delivered = nil
		r.g.onCastBatch([]*types.Message{cast(2, p3, 4, types.FIFO)}, false)
		view, held, future = r.g.view.ID, r.g.fifo.Pending(), len(r.g.futureCasts)
	})
	if want := []delivery{{2, 4}, {3, 1}, {3, 2}, {3, 3}}; view != 3 || !slices.Equal(delivered, want) {
		t.Errorf("delivered %v and installed view %d, want %v and view 3", delivered, view, want)
	}
	if held != 0 || future != 0 {
		t.Errorf("after the install the FIFO engine holds %d casts and %d wait for a later view, want none", held, future)
	}
}
