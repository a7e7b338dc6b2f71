package group

import (
	"slices"
	"testing"
	"time"

	"repro/internal/member"
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
		r.g.onCast(&types.Message{
			Kind: types.KindCast, From: p3, Group: r.g.id, View: 2,
			ID: unbound, Ordering: types.Total, Payload: []byte("u"),
		})
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
	r.do(func() { r.g.onCastBatch(frameFrom(r.g, p2, p3, 1, held, 0)) })
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
		r.g.onCastBatch(flood)
		r.g.onCast(flood[len(flood)-1].Clone())
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
