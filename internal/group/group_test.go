package group_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	isis "repro"
	"repro/internal/group"
	"repro/internal/member"
	"repro/internal/netsim"
	"repro/internal/reliability"
	"repro/internal/types"
)

const testTimeout = 5 * time.Second

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	t.Cleanup(cancel)
	return ctx
}

// collector accumulates deliveries and views for assertions.
type collector struct {
	mu         sync.Mutex
	deliveries []group.Delivery
	views      []member.View
}

func (c *collector) onDeliver(d group.Delivery) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deliveries = append(c.deliveries, d)
}

func (c *collector) onView(v member.View) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.views = append(c.views, v)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.deliveries)
}

func (c *collector) payloads() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.deliveries))
	for i, d := range c.deliveries {
		out[i] = string(d.Payload)
	}
	return out
}

func (c *collector) lastView() member.View {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.views) == 0 {
		return member.View{}
	}
	return c.views[len(c.views)-1]
}

// spawn starts a simulated runtime of n processes, shut down when the test
// ends.
func spawn(t *testing.T, n int, opts ...isis.Option) (*isis.Runtime, []*isis.Process) {
	t.Helper()
	rt := isis.NewSimulated(opts...)
	t.Cleanup(rt.Shutdown)
	procs := make([]*isis.Process, n)
	for i := range procs {
		procs[i] = rt.MustSpawn()
	}
	return rt, procs
}

// sized reports whether every listed membership's view has n members.
func sized(n int, groups ...*group.Group) func() bool {
	return func() bool {
		for _, g := range groups {
			if g == nil || g.Size() != n {
				return false
			}
		}
		return true
	}
}

// buildGroup creates a flat group named "g" whose members are the first n
// processes: process 0 creates, the rest join through it.
func buildGroup(t *testing.T, procs []*isis.Process, n int, cfgFor func(i int) group.Config) []*group.Group {
	t.Helper()
	groups := make([]*group.Group, n)
	g0, err := procs[0].CreateGroup("g", cfgFor(0))
	if err != nil {
		t.Fatal(err)
	}
	groups[0] = g0
	for i := 1; i < n; i++ {
		g, err := procs[i].JoinGroup(ctxT(t), "g", procs[0].ID(), cfgFor(i))
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		groups[i] = g
	}
	if isis.Await(ctxT(t), sized(n, groups...)) != nil {
		for i, g := range groups {
			t.Logf("member %d view: %v", i, g.CurrentView())
		}
		t.Fatalf("group never converged to %d members", n)
	}
	return groups
}

func TestCreateSingletonGroup(t *testing.T) {
	_, procs := spawn(t, 1)
	col := &collector{}
	g, err := procs[0].CreateGroup("solo", group.Config{OnView: col.onView})
	if err != nil {
		t.Fatal(err)
	}
	v := g.CurrentView()
	if v.Size() != 1 || v.ID != 1 || v.Coordinator() != procs[0].ID() {
		t.Errorf("view = %v", v)
	}
	if g.Coordinator() != procs[0].ID() || g.Size() != 1 {
		t.Error("accessors disagree with view")
	}
	if col.lastView().ID != 1 {
		t.Error("OnView not called for the founding view")
	}
}

func TestCreateTwiceRejected(t *testing.T) {
	_, procs := spawn(t, 1)
	if _, err := procs[0].CreateGroup("dup", group.Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := procs[0].CreateGroup("dup", group.Config{}); !errors.Is(err, types.ErrRejected) {
		t.Errorf("second create err = %v", err)
	}
}

func TestJoinGrowsView(t *testing.T) {
	_, procs := spawn(t, 4)
	groups := buildGroup(t, procs, 4, func(int) group.Config { return group.Config{} })

	// Every member must agree on the same membership and the same
	// coordinator (the founder, being oldest).
	want := groups[0].CurrentView()
	if want.Coordinator() != procs[0].ID() {
		t.Errorf("coordinator = %v", want.Coordinator())
	}
	for i, g := range groups {
		v := g.CurrentView()
		if v.Size() != 4 {
			t.Errorf("member %d size = %d", i, v.Size())
		}
		if v.Coordinator() != want.Coordinator() {
			t.Errorf("member %d coordinator = %v", i, v.Coordinator())
		}
	}
}

func TestJoinViaNonCoordinatorContact(t *testing.T) {
	_, procs := spawn(t, 3)
	name := "g"
	g0, err := procs[0].CreateGroup(name, group.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g1, err := procs[1].JoinGroup(ctxT(t), name, procs[0].ID(), group.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Process 2 joins via process 1, which is not the coordinator; the
	// request must be forwarded.
	g2, err := procs[2].JoinGroup(ctxT(t), name, procs[1].ID(), group.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if isis.Await(ctxT(t), sized(3, g0, g1, g2)) != nil {
		t.Fatal("group never reached 3 members")
	}
}

func TestJoinUnknownGroupTimesOut(t *testing.T) {
	_, procs := spawn(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	_, err := procs[1].JoinGroup(ctx, "nope", procs[0].ID(), group.Config{})
	if !errors.Is(err, types.ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

func TestJoinSameGroupTwiceRejected(t *testing.T) {
	_, procs := spawn(t, 2)
	name := "g"
	if _, err := procs[0].CreateGroup(name, group.Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := procs[1].JoinGroup(ctxT(t), name, procs[0].ID(), group.Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := procs[1].JoinGroup(ctxT(t), name, procs[0].ID(), group.Config{}); !errors.Is(err, types.ErrRejected) {
		t.Errorf("second join err = %v", err)
	}
}

func TestFIFOCastDeliveredToAllMembers(t *testing.T) {
	_, procs := spawn(t, 3)
	cols := make([]*collector, 3)
	groups := buildGroup(t, procs, 3, func(i int) group.Config {
		cols[i] = &collector{}
		return group.Config{OnDeliver: cols[i].onDeliver}
	})

	const casts = 10
	for i := 0; i < casts; i++ {
		if err := groups[0].Cast(ctxT(t), types.FIFO, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatalf("cast %d: %v", i, err)
		}
	}
	for i, col := range cols {
		if isis.Await(ctxT(t), func() bool { return col.count() == casts }) != nil {
			t.Fatalf("member %d delivered %d of %d", i, col.count(), casts)
		}
		got := col.payloads()
		for j, p := range got {
			if p != fmt.Sprintf("m%d", j) {
				t.Fatalf("member %d delivery %d = %q (FIFO violated)", i, j, p)
			}
		}
	}
}

func TestCastOrderingsDeliverEverywhere(t *testing.T) {
	for _, o := range []types.Ordering{types.Unordered, types.FIFO, types.Causal, types.Total} {
		o := o
		t.Run(o.String(), func(t *testing.T) {
			_, procs := spawn(t, 3)
			cols := make([]*collector, 3)
			groups := buildGroup(t, procs, 3, func(i int) group.Config {
				cols[i] = &collector{}
				return group.Config{OnDeliver: cols[i].onDeliver}
			})
			for i, g := range groups {
				if err := g.Cast(ctxT(t), o, []byte(fmt.Sprintf("from%d", i))); err != nil {
					t.Fatalf("cast from %d: %v", i, err)
				}
			}
			for i, col := range cols {
				if isis.Await(ctxT(t), func() bool { return col.count() == 3 }) != nil {
					t.Fatalf("member %d delivered %d of 3 (%s)", i, col.count(), o)
				}
			}
		})
	}
}

func TestTotalOrderAgreement(t *testing.T) {
	_, procs := spawn(t, 4)
	cols := make([]*collector, 4)
	groups := buildGroup(t, procs, 4, func(i int) group.Config {
		cols[i] = &collector{}
		return group.Config{OnDeliver: cols[i].onDeliver}
	})

	// Concurrent ABCASTs from every member.
	var wg sync.WaitGroup
	const perSender = 5
	for i, g := range groups {
		wg.Add(1)
		go func(i int, g *group.Group) {
			defer wg.Done()
			for k := 0; k < perSender; k++ {
				if err := g.Cast(ctxT(t), types.Total, []byte(fmt.Sprintf("s%d-%d", i, k))); err != nil {
					t.Errorf("cast: %v", err)
				}
			}
		}(i, g)
	}
	wg.Wait()

	total := perSender * len(groups)
	for i, col := range cols {
		if isis.Await(ctxT(t), func() bool { return col.count() == total }) != nil {
			t.Fatalf("member %d delivered %d of %d", i, col.count(), total)
		}
	}
	// All members must observe the identical delivery sequence.
	ref := cols[0].payloads()
	for i := 1; i < len(cols); i++ {
		got := cols[i].payloads()
		for j := range ref {
			if got[j] != ref[j] {
				t.Fatalf("ABCAST order differs at member %d position %d: %q vs %q", i, j, got[j], ref[j])
			}
		}
	}
}

func TestCausalOrderAcrossMembers(t *testing.T) {
	_, procs := spawn(t, 3)
	cols := make([]*collector, 3)
	groups := buildGroup(t, procs, 3, func(i int) group.Config {
		cols[i] = &collector{}
		return group.Config{OnDeliver: cols[i].onDeliver}
	})

	// Member 0 casts "question"; member 1 waits to see it, then casts
	// "answer" (causally dependent). No member may deliver the answer first.
	if err := groups[0].Cast(ctxT(t), types.Causal, []byte("question")); err != nil {
		t.Fatal(err)
	}
	if isis.Await(ctxT(t), func() bool { return cols[1].count() >= 1 }) != nil {
		t.Fatal("member 1 never saw the question")
	}
	if err := groups[1].Cast(ctxT(t), types.Causal, []byte("answer")); err != nil {
		t.Fatal(err)
	}
	for i, col := range cols {
		if isis.Await(ctxT(t), func() bool { return col.count() == 2 }) != nil {
			t.Fatalf("member %d delivered %d of 2", i, col.count())
		}
		p := col.payloads()
		if p[0] != "question" || p[1] != "answer" {
			t.Errorf("member %d causal order violated: %v", i, p)
		}
	}
}

func TestCastResiliencyAcks(t *testing.T) {
	_, procs := spawn(t, 4)
	groups := buildGroup(t, procs, 4, func(i int) group.Config { return group.Config{Resiliency: 3} })
	if err := groups[1].Cast(ctxT(t), types.FIFO, []byte("resilient")); err != nil {
		t.Fatalf("cast with resiliency 3 in a 4-member group: %v", err)
	}
}

func TestCastOnSingletonGroupSucceedsImmediately(t *testing.T) {
	_, procs := spawn(t, 1)
	col := &collector{}
	g, err := procs[0].CreateGroup("solo", group.Config{OnDeliver: col.onDeliver, Resiliency: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Cast(ctxT(t), types.Total, []byte("alone")); err != nil {
		t.Fatal(err)
	}
	if isis.Await(ctxT(t), func() bool { return col.count() == 1 }) != nil {
		t.Fatal("self-delivery missing")
	}
}

func TestStateTransferToJoiner(t *testing.T) {
	_, procs := spawn(t, 2)
	name := "kv"
	holder := newTestStore()
	holder.put("snapshot-of-application-state", 1)
	_, err := procs[0].CreateGroup(name, group.Config{State: holder})
	if err != nil {
		t.Fatal(err)
	}
	joiner := newTestStore()
	_, err = procs[1].JoinGroup(ctxT(t), name, procs[0].ID(), group.Config{State: joiner})
	if err != nil {
		t.Fatal(err)
	}
	want := holder.snapshotString()
	if isis.Await(ctxT(t), func() bool { return joiner.snapshotString() == want }) != nil {
		t.Fatalf("state transfer missing or wrong: %q", joiner.snapshotString())
	}
}

func TestLeaveShrinksView(t *testing.T) {
	_, procs := spawn(t, 3)
	groups := buildGroup(t, procs, 3, func(int) group.Config { return group.Config{} })

	if err := groups[2].Leave(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	if !groups[2].Closed() {
		t.Error("leaver not marked closed")
	}
	if isis.Await(ctxT(t), sized(2, groups[0], groups[1])) != nil {
		t.Fatalf("views did not shrink: %v / %v", groups[0].CurrentView(), groups[1].CurrentView())
	}
	if groups[0].CurrentView().Contains(procs[2].ID()) {
		t.Error("left member still in view")
	}
}

func TestCoordinatorLeaveHandsOver(t *testing.T) {
	_, procs := spawn(t, 3)
	groups := buildGroup(t, procs, 3, func(int) group.Config { return group.Config{} })

	if err := groups[0].Leave(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	if isis.Await(ctxT(t), sized(2, groups[1], groups[2])) != nil {
		t.Fatal("survivors never installed the shrunk view")
	}
	// The next-oldest member takes over as coordinator.
	if got := groups[1].Coordinator(); got != procs[1].ID() {
		t.Errorf("new coordinator = %v, want %v", got, procs[1].ID())
	}
}

func TestMemberFailureRemovedFromView(t *testing.T) {
	rt, procs := spawn(t, 3)
	groups := buildGroup(t, procs, 3, func(int) group.Config { return group.Config{} })

	rt.Crash(procs[2])
	rt.InjectFailure(procs[2])

	if isis.Await(ctxT(t), sized(2, groups[0], groups[1])) != nil {
		t.Fatalf("failed member never removed: %v / %v", groups[0].CurrentView(), groups[1].CurrentView())
	}
	if groups[0].CurrentView().Contains(procs[2].ID()) {
		t.Error("crashed member still in view")
	}
}

func TestCoordinatorFailureNextTakesOver(t *testing.T) {
	rt, procs := spawn(t, 4)
	groups := buildGroup(t, procs, 4, func(int) group.Config { return group.Config{} })

	rt.Crash(procs[0])
	rt.InjectFailure(procs[0])

	if isis.Await(ctxT(t), sized(3, groups[1], groups[2], groups[3])) != nil {
		t.Fatalf("survivors never installed a 3-member view: %v", groups[1].CurrentView())
	}
	for i := 1; i < 4; i++ {
		if got := groups[i].Coordinator(); got != procs[1].ID() {
			t.Errorf("member %d sees coordinator %v, want %v", i, got, procs[1].ID())
		}
	}
}

func TestCastingContinuesAfterFailure(t *testing.T) {
	rt, procs := spawn(t, 3)
	cols := make([]*collector, 3)
	groups := buildGroup(t, procs, 3, func(i int) group.Config {
		cols[i] = &collector{}
		return group.Config{OnDeliver: cols[i].onDeliver}
	})

	rt.Crash(procs[1])
	rt.InjectFailure(procs[1])
	if isis.Await(ctxT(t), sized(2, groups[0], groups[2])) != nil {
		t.Fatal("view never shrank after crash")
	}
	if err := groups[2].Cast(ctxT(t), types.Total, []byte("after-failure")); err != nil {
		t.Fatalf("cast after failure: %v", err)
	}
	if isis.Await(ctxT(t), func() bool { return cols[0].count() >= 1 && cols[2].count() >= 1 }) != nil {
		t.Fatal("post-failure cast not delivered to survivors")
	}
}

func TestViewSynchronyAllSurvivorsSeeSameViews(t *testing.T) {
	rt, procs := spawn(t, 4)
	cols := make([]*collector, 4)
	groups := buildGroup(t, procs, 4, func(i int) group.Config {
		cols[i] = &collector{}
		return group.Config{OnView: cols[i].onView}
	})

	// One leave and one failure.
	if err := groups[3].Leave(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	rt.Crash(procs[2])
	rt.InjectFailure(procs[2])
	if isis.Await(ctxT(t), sized(2, groups[0], groups[1])) != nil {
		t.Fatal("final view never installed")
	}
	// Survivors 0 and 1 must have installed the same sequence of view ids
	// with the same membership at each id.
	viewsAt := func(col *collector) map[types.ViewID]string {
		col.mu.Lock()
		defer col.mu.Unlock()
		out := make(map[types.ViewID]string)
		for _, v := range col.views {
			out[v.ID] = v.String()
		}
		return out
	}
	a, b := viewsAt(cols[0]), viewsAt(cols[1])
	for id, va := range a {
		if vb, ok := b[id]; ok && va != vb {
			t.Errorf("view %d differs between survivors:\n  %s\n  %s", id, va, vb)
		}
	}
}

func TestGroupsAccessor(t *testing.T) {
	_, procs := spawn(t, 2)
	g, err := procs[0].CreateGroup("g", group.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := procs[0].CreateGroup("h", group.Config{}); err != nil {
		t.Fatal(err)
	}
	stack := g.Stack()
	ids := stack.Groups()
	if len(ids) != 2 {
		t.Errorf("Groups = %v", ids)
	}
	if stack.Get(types.FlatGroup("g")) == nil {
		t.Error("Get returned nil for a joined group")
	}
	if stack.Get(types.FlatGroup("missing")) != nil {
		t.Error("Get returned a group for an unknown id")
	}
}

func TestCastAfterLeaveFails(t *testing.T) {
	_, procs := spawn(t, 2)
	groups := buildGroup(t, procs, 2, func(int) group.Config { return group.Config{} })
	if err := groups[1].Leave(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	err := groups[1].Cast(ctxT(t), types.FIFO, []byte("zombie"))
	if !errors.Is(err, types.ErrNotMember) {
		t.Errorf("cast after leave err = %v", err)
	}
}

func TestConcurrentJoinsConverge(t *testing.T) {
	const n = 8
	_, procs := spawn(t, n)
	name := "burst"
	g0, err := procs[0].CreateGroup(name, group.Config{})
	if err != nil {
		t.Fatal(err)
	}
	groups := make([]*group.Group, n)
	groups[0] = g0
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			groups[i], errs[i] = procs[i].JoinGroup(ctxT(t), name, procs[0].ID(), group.Config{})
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("join %d: %v", i, errs[i])
		}
	}
	if isis.Await(ctxT(t), sized(n, groups...)) != nil {
		t.Fatalf("concurrent joins never converged: %v", groups[0].CurrentView())
	}
}

func TestLargeFlatGroupFiftyMembers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const n = 50 // the paper's stated practical limit for flat ISIS groups
	_, procs := spawn(t, n)
	cols := make([]*collector, n)
	groups := buildGroup(t, procs, n, func(i int) group.Config {
		cols[i] = &collector{}
		return group.Config{OnDeliver: cols[i].onDeliver}
	})
	if err := groups[0].Cast(ctxT(t), types.FIFO, []byte("hello-50")); err != nil {
		t.Fatal(err)
	}
	if isis.Await(ctxT(t), func() bool { return cols[n-1].count() == 1 && cols[n/2].count() == 1 }) != nil {
		t.Fatal("cast not delivered across the 50-member group")
	}
	if v := groups[n-1].CurrentView(); v.Size() != n {
		t.Fatalf("view size = %d", v.Size())
	}
}

// TestCrashMidBatchUnderLossNoDupNoGap is the batching × chaos interaction
// test: the sender floods fast enough that coalesced multi-message frames
// are in flight, the data path both loses casts (a deterministic drop rule
// starves one member of every 23rd cast) and duplicates messages (fabric
// duplication injection), and the sender crashes mid-outbox-window. The
// crash-mid-batch guarantees from the batching PR must survive the added
// faults, per ordering:
//
//   - FBCAST/CBCAST: every survivor delivers a duplicate-free, gap-free,
//     in-order prefix 1..k of the sender's sequence (the engines hold back
//     past any lost message, so loss shortens the starved member's prefix,
//     never punches a hole in it);
//   - ABCAST: every survivor delivers a duplicate-free contiguous prefix
//     1..k of the agreed order, with sender sequence numbers strictly
//     increasing along it.
//
// Loss is injected on casts only: the membership protocol has no
// retransmission layer, so a lost view propose can legitimately wedge a
// view change — the global-loss regime (where that trade-off is accepted)
// is the chaos harness's territory.
func TestCrashMidBatchUnderLossNoDupNoGap(t *testing.T) {
	for _, o := range []types.Ordering{types.FIFO, types.Causal, types.Total} {
		t.Run(o.String(), func(t *testing.T) {
			const n = 4
			rt, procs := spawn(t, n, isis.WithNetwork(netsim.Config{DupRate: 0.05, Seed: 0xC0FFEE}))
			starved := procs[2].ID()
			rt.Fabric().AddDropRule(func(p netsim.Packet) bool {
				return p.Msg.Kind == types.KindCast && p.To == starved && p.Msg.ID.Seq%23 == 7
			})
			cols := make([]*collector, n)
			for i := range cols {
				cols[i] = &collector{}
			}
			groups := buildGroup(t, procs, n, func(i int) group.Config {
				return group.Config{OnDeliver: cols[i].onDeliver}
			})
			sender := procs[1].ID()

			const casts = 300
			go func() {
				for i := 0; i < casts; i++ {
					groups[1].CastAsync(o, []byte(fmt.Sprintf("m%d", i)))
				}
			}()

			// Let part of the stream drain, then crash the sender with frames
			// still in its outbox window.
			if isis.Await(ctxT(t), func() bool { return cols[0].count() >= 20 }) != nil {
				t.Fatalf("flood never started: %d deliveries", cols[0].count())
			}
			rt.Crash(procs[1])
			rt.InjectFailure(procs[1])

			survivors := []*group.Group{groups[0], groups[2], groups[3]}
			if isis.Await(ctxT(t), sized(n-1, survivors...)) != nil {
				t.Fatal("survivors never installed the post-crash view")
			}
			time.Sleep(200 * time.Millisecond) // in-flight frames settle

			for i, col := range cols {
				if i == 1 {
					continue
				}
				col.mu.Lock()
				var senderSeqs, agreedSeqs []uint64
				seen := make(map[uint64]bool)
				for _, d := range col.deliveries {
					if d.From != sender {
						continue
					}
					if seen[d.ID.Seq] {
						t.Errorf("member %d: duplicate delivery of seq %d", i, d.ID.Seq)
					}
					seen[d.ID.Seq] = true
					senderSeqs = append(senderSeqs, d.ID.Seq)
					agreedSeqs = append(agreedSeqs, d.Seq)
				}
				col.mu.Unlock()
				if len(senderSeqs) == 0 {
					t.Errorf("member %d delivered nothing from the sender", i)
					continue
				}
				if o == types.Total {
					// The engine releases the agreed order contiguously, so a
					// survivor holds the exact agreed prefix 1..k; the single
					// sender's own seqs must be strictly increasing along it.
					for j, s := range senderSeqs {
						if agreedSeqs[j] != uint64(j+1) {
							t.Errorf("member %d: delivery %d in agreed slot %d, want %d (gap or reorder)", i, j, agreedSeqs[j], j+1)
							break
						}
						if j > 0 && s <= senderSeqs[j-1] {
							t.Errorf("member %d: sender seq %d after %d (reorder)", i, s, senderSeqs[j-1])
							break
						}
					}
					continue
				}
				for j, s := range senderSeqs {
					if s != uint64(j+1) {
						t.Errorf("member %d: delivery %d has seq %d, want %d (gap or reorder)", i, j, s, j+1)
						break
					}
				}
			}
		})
	}
}

// TestResiliencyQuorumIgnoresDuplicatedAcks pins the resiliency semantics
// under duplication injection: the quorum means "need distinct members hold
// the cast", so a network-duplicated watermark report from one member must
// not stand in for a missing member. With every data-path message duplicated
// and one member's reports dropped entirely, a resiliency-2 cast in a
// 3-member group must time out rather than report success off one member's
// doubled acknowledgement.
func TestResiliencyQuorumIgnoresDuplicatedAcks(t *testing.T) {
	t.Run("cumulative", func(t *testing.T) {
		const n = 3
		rt, procs := spawn(t, n, isis.WithNetwork(netsim.Config{DupRate: 1.0, Seed: 0xACED}))
		groups := buildGroup(t, procs, n, func(int) group.Config {
			return group.Config{Resiliency: 2}
		})
		// Silence the third member's watermark reports. (Its own casts,
		// which piggyback reports, are left alone: the sanity phase below
		// casts from it.)
		silenced := procs[2].ID()
		rt.Fabric().AddDropRule(func(p netsim.Packet) bool {
			return p.From == silenced && p.Msg.Kind == types.KindStability
		})

		ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
		defer cancel()
		err := groups[0].Cast(ctx, types.FIFO, []byte("needs-two-distinct-ackers"))
		if !errors.Is(err, types.ErrTimeout) {
			t.Fatalf("Cast err = %v, want timeout: only one distinct member acked (its ack was merely duplicated)", err)
		}

		// Sanity: two distinct ackers still satisfy the quorum under the
		// same duplication — cast from the silenced member, whose own
		// acknowledgements are the only ones the drop rule removes.
		ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel2()
		if err := groups[2].Cast(ctx2, types.FIFO, []byte("quorum from the other two")); err != nil {
			t.Fatalf("cast with two ackable members failed: %v", err)
		}
	})
}

// TestRetiredKindIsIgnored: number 4 was the per-cast acknowledgement. A
// mixed-version peer or a stale WAL can still present it; a joined stack must
// route it to no group handler and change no state.
func TestRetiredKindIsIgnored(t *testing.T) {
	rt, procs := spawn(t, 2)
	// The recovery timer is parked so the only traffic is what the test sends.
	groups := buildGroup(t, procs, 2, func(int) group.Config {
		return group.Config{Resiliency: 1, Reliability: reliability.Config{NakInterval: time.Hour}}
	})
	if err := groups[0].Cast(ctxT(t), types.FIFO, []byte("before")); err != nil {
		t.Fatal(err)
	}

	// Nothing claims the number, so the message falls through to the node's
	// default handler — which doubles as the barrier: once it has run, the
	// actor is past the message.
	unclaimed := make(chan *types.Message, 1)
	groups[0].Stack().Node().HandleDefault(func(m *types.Message) { unclaimed <- m })
	view := groups[0].CurrentView()
	before := groups[0].ReliabilityStats()
	err := rt.Fabric().Send(&types.Message{
		Kind:    types.Kind(4),
		From:    procs[1].ID(),
		To:      procs[0].ID(),
		Group:   groups[0].ID(),
		View:    view.ID,
		Corr:    1,
		Stab:    []types.StabEntry{{Sender: procs[0].ID(), Seq: 1 << 40}},
		StabOrd: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-unclaimed:
		if m.Kind != types.Kind(4) {
			t.Fatalf("default handler saw %v, want the retired kind", m.Kind)
		}
	case <-time.After(testTimeout):
		t.Fatal("retired kind never reached the default handler: some handler still claims number 4")
	}
	if after := groups[0].ReliabilityStats(); after != before {
		t.Errorf("reliability state moved: %+v -> %+v", before, after)
	}
	if got := groups[0].CurrentView(); got.ID != view.ID || got.Size() != view.Size() {
		t.Errorf("view moved: %v -> %v", view, got)
	}
	if err := groups[0].Cast(ctxT(t), types.FIFO, []byte("after")); err != nil {
		t.Fatalf("cast after the retired kind: %v", err)
	}
}

// TestCumulativeAckLostReportRecovered drops the FIRST prompt stability
// report from one member and checks the resiliency-repair tick recovers the
// waiter anyway (the re-sent cast provokes a fresh report), well before the
// caller's deadline.
func TestCumulativeAckLostReportRecovered(t *testing.T) {
	const n = 3
	rt, procs := spawn(t, n)
	groups := buildGroup(t, procs, n, func(int) group.Config {
		return group.Config{Resiliency: 2}
	})

	victim := procs[2].ID()
	dropped := false
	var mu sync.Mutex
	removeRule := rt.Fabric().AddDropRule(func(p netsim.Packet) bool {
		if p.Msg.Kind != types.KindStability || p.From != victim {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		if dropped {
			return false
		}
		dropped = true
		return true
	})
	defer removeRule()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := groups[0].Cast(ctx, types.FIFO, []byte("report lost once")); err != nil {
		t.Fatalf("cast did not recover from a lost report: %v", err)
	}
}

// TestWaiterResendsBackOff: a blocking cast whose acknowledgement keeps
// getting lost re-sends itself at its ticks 2, 4, 8, 16, …, not on every
// tick. With one member's stability reports dropped for about 25 recovery
// ticks, the sender re-sends the waiting cast to that member at most 5
// times; once the reports get through again, the cast completes.
func TestWaiterResendsBackOff(t *testing.T) {
	const n = 3
	rt, procs := spawn(t, n)
	groups := buildGroup(t, procs, n, func(int) group.Config {
		return group.Config{Resiliency: 2}
	})
	sender, victim := procs[0].ID(), procs[2].ID()
	cast := types.MsgID{Sender: sender, Seq: 1}
	var dropping atomic.Bool
	dropping.Store(true)
	rt.Fabric().AddDropRule(func(p netsim.Packet) bool {
		return dropping.Load() && p.From == victim && p.Msg.Kind == types.KindStability
	})
	var copies atomic.Int64 // copies of the cast sent to the victim
	rt.Fabric().Watch(func(p netsim.Packet) {
		if p.From == sender && p.To == victim && p.Msg.Kind == types.KindCast && p.Msg.ID == cast {
			copies.Add(1)
		}
	})
	defer rt.Fabric().Watch(nil)

	ctx, done := ctxT(t), make(chan error, 1)
	go func() { done <- groups[0].Cast(ctx, types.FIFO, []byte("acknowledgement lost")) }()
	time.Sleep(25 * 20 * time.Millisecond) // about 25 ticks at the default NakInterval
	resends := copies.Load() - 1
	dropping.Store(false)
	if resends > 5 {
		t.Errorf("the waiting cast was re-sent %d times in about 25 ticks, want at most 5", resends)
	}
	if err := <-done; err != nil {
		t.Fatalf("cast after the reports got through again: %v", err)
	}
}

// TestAbcastRetransmissionCarriesSlot pins the ABCAST recovery path. A
// non-sequencer's cast reaches the other members through the sequencer, as
// a copy carrying its agreed slot. One member loses that relayed copy. The
// NAK-served retransmission, from a member that has delivered the cast, must
// carry the agreed slot too — the member is sent no separate announcement —
// and the member must then deliver the cast in that slot, like every other
// member.
func TestAbcastRetransmissionCarriesSlot(t *testing.T) {
	const n = 3
	rt, procs := spawn(t, n)
	cols := make([]*collector, n)
	groups := buildGroup(t, procs, n, func(i int) group.Config {
		cols[i] = &collector{}
		return group.Config{OnDeliver: cols[i].onDeliver}
	})
	// Process 0 created the group and sequences it; the sender is another
	// member, so its cast goes to the sequencer alone, without a slot.
	seqr, sender, starved := procs[0].ID(), procs[1].ID(), procs[2].ID()
	lost := types.MsgID{Sender: sender, Seq: 1}

	var droppedRelay bool // drop rules run under the fabric's lock
	removeRule := rt.Fabric().AddDropRule(func(p netsim.Packet) bool {
		if p.To != starved || p.Msg.ID != lost || p.Msg.Kind != types.KindCast || droppedRelay {
			return false
		}
		droppedRelay = true
		return true
	})
	defer removeRule()
	type copyOf struct {
		from types.ProcessID
		seq  uint64
	}
	var mu sync.Mutex
	var copies []copyOf // every copy of the lost cast sent to starved
	var orders int      // announcements of the lost cast sent to starved
	rt.Fabric().Watch(func(p netsim.Packet) {
		if p.To != starved || p.Msg.ID != lost {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		switch p.Msg.Kind {
		case types.KindCast:
			copies = append(copies, copyOf{p.From, p.Msg.Seq})
		case types.KindOrder:
			orders++
		}
	})
	defer rt.Fabric().Watch(nil)

	// The second cast shows the starved member the gap in the sender's
	// sequence.
	groups[1].CastAsync(types.Total, []byte("lost"))
	groups[1].CastAsync(types.Total, []byte("after"))
	if isis.Await(ctxT(t), func() bool {
		for _, col := range cols {
			if col.count() < 2 {
				return false
			}
		}
		return true
	}) != nil {
		t.Fatalf("deliveries per member: %d, %d, %d", cols[0].count(), cols[1].count(), cols[2].count())
	}

	slotAt := func(col *collector) uint64 {
		col.mu.Lock()
		defer col.mu.Unlock()
		for _, d := range col.deliveries {
			if d.ID == lost {
				return d.Seq
			}
		}
		return 0
	}
	slot := slotAt(cols[0])
	if slot == 0 || slotAt(cols[1]) != slot {
		t.Fatalf("agreed slots disagree: sequencer %d, sender %d", slot, slotAt(cols[1]))
	}
	if got := slotAt(cols[2]); got != slot {
		t.Errorf("the starved member delivered the lost cast in slot %d, want %d", got, slot)
	}
	if served := groups[0].ReliabilityStats().NaksServed + groups[1].ReliabilityStats().NaksServed; served == 0 {
		t.Error("no NAK was served: the lost cast came back some other way")
	}
	mu.Lock()
	defer mu.Unlock()
	if !droppedRelay || len(copies) < 2 {
		t.Fatalf("dropped relay %v; %d copies sent, want a retransmission", droppedRelay, len(copies))
	}
	if orders != 0 {
		t.Errorf("the starved member was sent %d announcements of the cast; a relayed copy carries its slot", orders)
	}
	if copies[0] != (copyOf{seqr, slot}) {
		t.Errorf("first copy %+v, want the sequencer's relay carrying slot %d", copies[0], slot)
	}
	for i, cp := range copies[1:] {
		if cp.seq != slot {
			t.Errorf("retransmission %d from %v carries slot %d, want %d", i+1, cp.from, cp.seq, slot)
		}
	}
}

// TestCrashMidBatchNoDupNoGap floods casts from one member fast enough that
// multi-message batch frames are in flight, crashes the sender mid-stream,
// and checks that every survivor delivered a duplicate-free, gap-free prefix
// of the sender's sequence — for each ordering engine. This pins the batch
// path's failure semantics: losing the tail of a sender's traffic (including
// whole coalesced frames in its outbox) must never manifest as duplicated or
// out-of-order deliveries at survivors.
func TestCrashMidBatchNoDupNoGap(t *testing.T) {
	for _, o := range []types.Ordering{types.FIFO, types.Causal, types.Total} {
		t.Run(o.String(), func(t *testing.T) {
			const n = 4
			rt, procs := spawn(t, n)
			cols := make([]*collector, n)
			for i := range cols {
				cols[i] = &collector{}
			}
			groups := buildGroup(t, procs, n, func(i int) group.Config {
				return group.Config{OnDeliver: cols[i].onDeliver}
			})
			sender := procs[1].ID()

			const casts = 300
			go func() {
				for i := 0; i < casts; i++ {
					groups[1].CastAsync(o, []byte(fmt.Sprintf("m%d", i)))
				}
			}()

			// Let part of the stream drain, then crash the sender mid-flood.
			if isis.Await(ctxT(t), func() bool { return cols[0].count() >= 20 }) != nil {
				t.Fatalf("flood never started: %d deliveries", cols[0].count())
			}
			rt.Crash(procs[1])
			rt.InjectFailure(procs[1])

			survivors := []*group.Group{groups[0], groups[2], groups[3]}
			if isis.Await(ctxT(t), sized(n-1, survivors...)) != nil {
				t.Fatal("survivors never installed the post-crash view")
			}
			time.Sleep(200 * time.Millisecond) // in-flight frames settle

			for i, col := range cols {
				if i == 1 {
					continue
				}
				col.mu.Lock()
				var seqs []uint64
				seen := make(map[uint64]bool)
				for _, d := range col.deliveries {
					if d.From != sender {
						continue
					}
					if seen[d.ID.Seq] {
						t.Errorf("member %d: duplicate delivery of seq %d", i, d.ID.Seq)
					}
					seen[d.ID.Seq] = true
					seqs = append(seqs, d.ID.Seq)
				}
				col.mu.Unlock()
				if len(seqs) == 0 {
					t.Errorf("member %d delivered nothing from the sender", i)
					continue
				}
				for j, s := range seqs {
					if s != uint64(j+1) {
						t.Errorf("member %d: delivery %d has seq %d, want %d (gap or reorder)", i, j, s, j+1)
						break
					}
				}
			}
		})
	}
}

// TestAbandonedJoinerIsDropped: a joiner that gives up after the coordinator
// installed it (the install was lost) holds no record of the group, yet the
// members count it in, and being alive it is never suspected. Its answer to
// the next cast — a leave request on its own behalf — drops it, so the
// resiliency quorum stops waiting on it.
func TestAbandonedJoinerIsDropped(t *testing.T) {
	rt, procs := spawn(t, 3)
	cfg := func(int) group.Config { return group.Config{Resiliency: 2} }
	groups := buildGroup(t, procs, 2, cfg)
	ghost := procs[2].ID()
	remove := rt.Fabric().AddDropRule(func(p netsim.Packet) bool {
		return p.To == ghost && p.Msg.Kind == types.KindViewInstall
	})
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	_, err := procs[2].JoinGroup(ctx, "g", procs[0].ID(), cfg(2))
	cancel()
	if err == nil {
		t.Fatal("join succeeded with its install dropped")
	}
	remove()
	if isis.Await(ctxT(t), func() bool { return groups[0].CurrentView().Contains(ghost) }) != nil {
		t.Fatal("the coordinator never installed the joiner")
	}
	if err := groups[0].Cast(ctxT(t), types.FIFO, []byte("m")); err != nil {
		t.Fatalf("cast with an abandoned joiner in the view: %v", err)
	}
	if isis.Await(ctxT(t), func() bool { return !groups[0].CurrentView().Contains(ghost) }) != nil {
		t.Fatalf("abandoned joiner still in the view: %v", groups[0].CurrentView())
	}
}
