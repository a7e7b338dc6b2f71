package group_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	isis "repro"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/types"
)

// A non-sequencer's ABCAST goes to the sequencer alone, which relays it to
// the other members with its agreed slot and announces the slot to the
// originator. These tests drive that relay through a three-member group in
// which process 0 coordinates and sequences.

// TestRelayedCastSurvivesSequencerCrash: the sequencer takes a cast in and
// dies before its relay or announcement leaves. The originator still holds
// the cast, and the view change's flush forwarding is the only route to the
// third member (NAKs are off): every survivor delivers the cast, in one
// agreed slot.
func TestRelayedCastSurvivesSequencerCrash(t *testing.T) {
	const n = 3
	rt, procs := spawn(t, n)
	cols := make([]*collector, n)
	groups := buildGroup(t, procs, n, func(i int) group.Config {
		cols[i] = &collector{}
		return group.Config{OnDeliver: cols[i].onDeliver, Reliability: quietReliability}
	})
	seqr := procs[0].ID()
	rt.Fabric().AddDropRule(func(p netsim.Packet) bool {
		return p.From == seqr && (p.Msg.Kind == types.KindCast || p.Msg.Kind == types.KindOrder)
	})

	groups[1].CastAsync(types.Total, []byte("x"))
	if isis.Await(ctxT(t), func() bool { return cols[0].count() == 1 }) != nil {
		t.Fatal("the sequencer never took the cast in")
	}
	if cols[1].count() != 0 || cols[2].count() != 0 {
		t.Fatalf("delivered before the crash: %d, %d; the relay leaked", cols[1].count(), cols[2].count())
	}
	rt.Crash(procs[0])
	rt.InjectFailure(procs[0])

	survivors := []*group.Group{groups[1], groups[2]}
	if isis.Await(ctxT(t), sized(n-1, survivors...)) != nil {
		t.Fatal("survivors never installed the post-crash view")
	}
	if isis.Await(ctxT(t), func() bool { return cols[1].count() == 1 && cols[2].count() == 1 }) != nil {
		t.Fatalf("survivors delivered %d and %d casts, want 1 each", cols[1].count(), cols[2].count())
	}
	at := func(col *collector) group.Delivery {
		col.mu.Lock()
		defer col.mu.Unlock()
		return col.deliveries[0]
	}
	a, b := at(cols[1]), at(cols[2])
	if a.ID != b.ID || a.Seq == 0 || a.Seq != b.Seq {
		t.Errorf("survivors delivered %v in slot %d and %v in slot %d, want one cast in one slot", a.ID, a.Seq, b.ID, b.Seq)
	}
}

// TestRelayedCastResilientWithoutTicks: a blocking ABCAST at Resiliency 2
// from each non-sequencer returns with the recovery timer parked — no
// stability tick and no re-send of the cast. The third member holds the
// cast only through the relay, and its acknowledgement still reaches the
// originator.
func TestRelayedCastResilientWithoutTicks(t *testing.T) {
	const n = 3
	_, procs := spawn(t, n)
	groups := buildGroup(t, procs, n, func(int) group.Config {
		return group.Config{Resiliency: 2, Reliability: quietReliability}
	})
	for round := 0; round < 3; round++ {
		for _, i := range []int{1, 2} {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			err := groups[i].Cast(ctx, types.Total, []byte(fmt.Sprintf("m%d-%d", i, round)))
			cancel()
			if err != nil {
				t.Fatalf("member %d, cast %d: %v", i, round, err)
			}
		}
	}
}

// TestLostAnnouncementRepairedByOrderNak: the originator loses the
// sequencer's announcement of its own cast — the only message that carries
// the cast's slot to it — and the order NAK of its stalled delivered prefix
// brings the binding back.
func TestLostAnnouncementRepairedByOrderNak(t *testing.T) {
	const n = 3
	rt, procs := spawn(t, n)
	cols := make([]*collector, n)
	groups := buildGroup(t, procs, n, func(i int) group.Config {
		cols[i] = &collector{}
		return group.Config{OnDeliver: cols[i].onDeliver}
	})
	sender := procs[1].ID()
	var mu sync.Mutex
	dropped := false
	rt.Fabric().AddDropRule(func(p netsim.Packet) bool {
		mu.Lock()
		defer mu.Unlock()
		if p.Msg.Kind != types.KindOrder || p.To != sender || dropped {
			return false
		}
		dropped = true
		return true
	})
	groups[1].CastAsync(types.Total, []byte("x"))
	if isis.Await(ctxT(t), func() bool { return cols[1].count() == 1 }) != nil {
		t.Fatal("the originator never delivered its cast")
	}
	mu.Lock()
	defer mu.Unlock()
	if !dropped {
		t.Fatal("no announcement was dropped")
	}
	if got := groups[1].ReliabilityStats().OrderNaksSent; got == 0 {
		t.Error("the binding came back without an order NAK")
	}
}
