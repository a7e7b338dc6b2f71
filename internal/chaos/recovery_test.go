package chaos

import (
	"context"
	"testing"
	"time"

	isis "repro"
	"repro/internal/netsim"
	"repro/internal/types"
)

// Directed regression tests for the recovery mechanisms that retired the
// checker exemptions: each one reconstructs the exact failure shape an
// exemption used to paper over — dead-sequencer ABCAST views, crashed
// senders with partially fanned-out casts, lossy scenarios — and requires
// full virtually-synchronous set agreement from the histories.
//
// The first two tests disable the NAK timer (NakInterval far beyond the
// test horizon), so only the flush-driven mechanisms — flush forwarding and
// sequencer-failover re-announcement — can explain convergence: a
// regression in either cannot hide behind timer-driven retransmission.

const recoveryTimeout = 10 * time.Second

// slowNaks pushes timer-driven recovery beyond the test horizon.
func slowNaks() isis.Option {
	return isis.WithReliability(isis.ReliabilityConfig{NakInterval: time.Hour})
}

func awaitOrFatal(t *testing.T, what string, cond func() bool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), recoveryTimeout)
	defer cancel()
	if err := isis.Await(ctx, cond); err != nil {
		t.Fatalf("timed out waiting for %s", what)
	}
}

// buildRecoveryCluster spawns n processes, attaches histories, and joins
// them all to one group named name. Histories are attached before any join
// so no event is missed.
func buildRecoveryCluster(t *testing.T, rt *isis.Runtime, n int, name string) ([]*isis.Process, []*isis.Group, []*History) {
	t.Helper()
	procs := make([]*isis.Process, n)
	hists := make([]*History, n)
	groups := make([]*isis.Group, n)
	for i := range procs {
		p, err := rt.Spawn()
		if err != nil {
			t.Fatalf("spawn %d: %v", i, err)
		}
		procs[i] = p
		h := NewHistory(p.ID())
		p.ObserveGroups(isis.GroupObserver{OnView: h.OnView, OnDeliver: h.OnDeliver})
		hists[i] = h
	}
	g, err := procs[0].CreateGroup(name, isis.GroupConfig{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	groups[0] = g
	ctx, cancel := context.WithTimeout(context.Background(), recoveryTimeout)
	defer cancel()
	for i := 1; i < n; i++ {
		g, err := procs[i].JoinGroup(ctx, name, procs[0].ID(), isis.GroupConfig{})
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		groups[i] = g
	}
	for _, g := range groups {
		g := g
		awaitOrFatal(t, "initial convergence", func() bool { return g.Size() == n })
	}
	return procs, groups, hists
}

// delivered counts the deliveries history h recorded for group key gk.
func delivered(h *History, gk string) int { return len(h.Deliveries(gk)) }

// TestDeadSequencerReannounce pins ABCAST sequencer failover: the view
// coordinator (the sequencer) dies while one member is missing every order
// announcement it ever issued, and the new coordinator must re-announce the
// agreed order during the flush so the survivors install the next view with
// identical delivered sets.
func TestDeadSequencerReannounce(t *testing.T) {
	rt := isis.NewSimulated(slowNaks())
	defer rt.Shutdown()
	procs, groups, hists := buildRecoveryCluster(t, rt, 3, "dead-seqr")
	gk := types.FlatGroup("dead-seqr").Key()
	seqr, starved := procs[0], procs[2]

	// Starve p3 of every order announcement while the workload runs. The
	// casts are p3's own: a non-sequencer's cast reaches the other members
	// as the sequencer's relayed copy, which carries its agreed slot, but
	// its originator holds the data and learns the slot only from a
	// KindOrder announcement.
	removeRule := rt.Fabric().AddDropRule(func(pkt netsim.Packet) bool {
		return pkt.Msg.Kind == types.KindOrder && pkt.To == starved.ID()
	})
	const casts = 5
	ctx, cancel := context.WithTimeout(context.Background(), recoveryTimeout)
	defer cancel()
	for i := 0; i < casts; i++ {
		if err := groups[2].Cast(ctx, isis.ABCAST, []byte{byte(i)}); err != nil {
			t.Fatalf("cast %d: %v", i, err)
		}
	}
	awaitOrFatal(t, "sequencer-side delivery", func() bool { return delivered(hists[0], gk) == casts })
	if got := delivered(hists[2], gk); got != 0 {
		t.Fatalf("starved member delivered %d casts without announcements", got)
	}

	// Kill the sequencer. The flush's re-announcement is now the only way
	// the starved member can learn the agreed order (NAKs are disabled).
	removeRule()
	rt.Crash(seqr)
	rt.InjectFailure(seqr)
	hists[0].MarkCrashed()

	awaitOrFatal(t, "survivor view", func() bool {
		return groups[1].Size() == 2 && groups[2].Size() == 2
	})
	awaitOrFatal(t, "failover delivery", func() bool { return delivered(hists[2], gk) == casts })

	if vs := CheckHistories(hists, map[string]types.Ordering{gk: types.Total}); len(vs) != 0 {
		t.Fatalf("violations after sequencer failover: %v", vs)
	}
	var reann uint64
	for _, p := range []*isis.Process{procs[1], procs[2]} {
		reann += p.ReliabilityStats().Reannounced
	}
	if reann == 0 {
		t.Error("no bindings were re-announced: the failover path did not run")
	}
}

// TestCrashedSenderFlushForwarding pins flush forwarding: a sender crashes
// after its casts reached only one survivor, and that survivor must
// re-multicast them during the view-change flush so every member of the new
// view agrees on the dead sender's delivered set.
func TestCrashedSenderFlushForwarding(t *testing.T) {
	rt := isis.NewSimulated(slowNaks())
	defer rt.Shutdown()
	procs, groups, hists := buildRecoveryCluster(t, rt, 3, "dead-sender")
	gk := types.FlatGroup("dead-sender").Key()
	sender, starved := procs[2], procs[1]

	// The dying sender's casts reach p1 but never p2.
	rt.Fabric().AddDropRule(func(pkt netsim.Packet) bool {
		return pkt.Msg.Kind == types.KindCast && pkt.From == sender.ID() && pkt.To == starved.ID()
	})
	const casts = 3
	ctx, cancel := context.WithTimeout(context.Background(), recoveryTimeout)
	defer cancel()
	for i := 0; i < casts; i++ {
		if err := groups[2].Cast(ctx, isis.FBCAST, []byte{byte(i)}); err != nil {
			t.Fatalf("cast %d: %v", i, err)
		}
	}
	awaitOrFatal(t, "witness delivery", func() bool { return delivered(hists[0], gk) == casts })
	if got := delivered(hists[1], gk); got != 0 {
		t.Fatalf("starved member delivered %d casts despite the drop rule", got)
	}

	// Kill the sender. The drop rule only matches the dead sender's own
	// transmissions, so the only route to the starved member is the
	// witness's flush forwarding (NAKs are disabled).
	rt.Crash(sender)
	rt.InjectFailure(sender)
	hists[2].MarkCrashed()

	awaitOrFatal(t, "survivor view", func() bool {
		return groups[0].Size() == 2 && groups[1].Size() == 2
	})
	awaitOrFatal(t, "forwarded delivery", func() bool { return delivered(hists[1], gk) == casts })

	if vs := CheckHistories(hists, map[string]types.Ordering{gk: types.FIFO}); len(vs) != 0 {
		t.Fatalf("violations after crashed-sender flush: %v", vs)
	}
	if procs[0].ReliabilityStats().Forwarded == 0 {
		t.Error("the witness forwarded nothing: the flush-forwarding path did not run")
	}
}
