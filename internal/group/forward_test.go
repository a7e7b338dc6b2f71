package group_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	isis "repro"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/reliability"
	"repro/internal/types"
)

// Flush forwarding sends only what a survivor lacks. In a five-member group
// (process 0 coordinates), member 1 casts once; the fabric withholds the
// cast from member 2 alone, and member 4 is the one that crashes. NAKs are
// off, so a flush forward is the starved member's only route to the cast.

const (
	fwdSender  = 1
	fwdStarved = 2
	fwdCrashed = 4
)

// forwardRig is the five-member group with its one withheld cast.
type forwardRig struct {
	rt     *isis.Runtime
	procs  []*isis.Process
	groups []*group.Group
	cols   []*collector
	lost   types.MsgID

	mu     sync.Mutex // drop rules run under the fabric's lock
	after  bool       // the crash has happened: count the copies of lost
	copies map[[2]types.ProcessID]int
}

// newForwardRig builds the group and drops the first copy of the sender's
// cast addressed to the starved member; dropPropose additionally withholds
// every view proposal from the sender, so it never forwards anything.
func newForwardRig(t *testing.T, dropPropose bool) *forwardRig {
	t.Helper()
	const n = 5
	r := &forwardRig{
		cols:   make([]*collector, n),
		copies: make(map[[2]types.ProcessID]int),
	}
	r.rt, r.procs = spawn(t, n)
	r.groups = buildGroup(t, r.procs, n, func(i int) group.Config {
		r.cols[i] = &collector{}
		return group.Config{
			OnDeliver: r.cols[i].onDeliver,
			// The cast completes once every member but the starved one
			// acknowledged it, so the sender knows who lacks it.
			Resiliency:  n - 2,
			Reliability: reliability.Config{NakInterval: time.Hour},
		}
	})
	sender, starved := r.procs[fwdSender].ID(), r.procs[fwdStarved].ID()
	r.lost = types.MsgID{Sender: sender, Seq: 1}
	withheld := false
	r.rt.Fabric().AddDropRule(func(p netsim.Packet) bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		switch {
		case dropPropose && p.Msg.Kind == types.KindViewPropose && p.To == sender:
			return true
		case p.Msg.Kind != types.KindCast || p.Msg.ID != r.lost:
			return false
		case r.after:
			r.copies[[2]types.ProcessID{p.From, p.To}]++
		case p.To == starved && !withheld:
			withheld = true
			return true
		}
		return false
	})

	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	if err := r.groups[fwdSender].Cast(ctx, types.FIFO, []byte("x")); err != nil {
		t.Fatalf("cast: %v", err)
	}
	if got := r.cols[fwdStarved].count(); got != 0 {
		t.Fatalf("starved member delivered %d casts despite the drop rule", got)
	}
	return r
}

// crash crashes member i and tells the others.
func (r *forwardRig) crash(i int) {
	r.mu.Lock()
	r.after = true
	r.mu.Unlock()
	r.rt.Crash(r.procs[i])
	r.rt.InjectFailure(r.procs[i])
}

// awaitDelivered waits until every listed member delivered the cast.
func (r *forwardRig) awaitDelivered(t *testing.T, members ...int) {
	t.Helper()
	for _, i := range members {
		if isis.Await(ctxT(t), func() bool { return r.cols[i].count() == 1 }) != nil {
			t.Fatalf("member %d never delivered the cast (%s)", i, r.groups[i].DebugString())
		}
	}
}

func (r *forwardRig) forwarded(i int) uint64 {
	return r.procs[i].ReliabilityStats().Forwarded
}

// TestFlushForwardsOnlyWhatASurvivorLacks: the crash of a member that never
// cast makes every survivor forward at the view change. The cast held by
// all but the starved member is forwarded once, by its sender, to the
// starved member only — not by every holder to every survivor.
func TestFlushForwardsOnlyWhatASurvivorLacks(t *testing.T) {
	r := newForwardRig(t, false)
	r.crash(fwdCrashed)
	survivors := []*group.Group{r.groups[0], r.groups[1], r.groups[2], r.groups[3]}
	if isis.Await(ctxT(t), sized(4, survivors...)) != nil {
		t.Fatal("survivors never installed the post-crash view")
	}
	r.awaitDelivered(t, fwdStarved)

	for i := 0; i < 4; i++ {
		want := uint64(0)
		if i == fwdSender {
			want = 1
		}
		if got := r.forwarded(i); got != want {
			t.Errorf("member %d flush-forwarded %d casts, want %d", i, got, want)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	want := [2]types.ProcessID{r.procs[fwdSender].ID(), r.procs[fwdStarved].ID()}
	if len(r.copies) != 1 || r.copies[want] != 1 {
		t.Errorf("copies of the cast sent after the crash (from, to): %v; want one, sender to starved member", r.copies)
	}
}

// TestFlushForwardsASenderSuspectedMidFlush: the sender never receives the
// proposal, so it forwards nothing, and it is suspected (crashed) after the
// other survivors have wedged and forwarded. The holders then forward its
// cast themselves, and the starved member delivers it before the pending
// install's grace runs out.
func TestFlushForwardsASenderSuspectedMidFlush(t *testing.T) {
	r := newForwardRig(t, true)
	r.crash(fwdCrashed)
	for _, i := range []int{0, 2, 3} {
		if isis.Await(ctxT(t), func() bool { return strings.Contains(r.groups[i].DebugString(), "wedged=true") }) != nil {
			t.Fatalf("member %d never wedged: %s", i, r.groups[i].DebugString())
		}
	}
	if got := r.forwarded(0) + r.forwarded(3); got != 0 {
		t.Fatalf("holders forwarded %d casts of a surviving, unsuspected sender", got)
	}
	r.crash(fwdSender)
	survivors := []*group.Group{r.groups[0], r.groups[2], r.groups[3]}
	if isis.Await(ctxT(t), sized(3, survivors...)) != nil {
		t.Fatal("survivors never installed the view without the sender")
	}
	r.awaitDelivered(t, 0, fwdStarved, 3)
	if got := r.forwarded(0) + r.forwarded(3); got == 0 {
		t.Error("no holder forwarded the suspected sender's cast")
	}
}
