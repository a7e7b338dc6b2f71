// Integration tests of the public facade: the same flows the examples use,
// exercised end to end through package isis only.
package isis_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	isis "repro"
	"repro/internal/types"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestFacadeFlatGroupRoundTrip(t *testing.T) {
	rt := isis.NewSimulated()
	defer rt.Shutdown()
	a := rt.MustSpawn()
	b := rt.MustSpawn()

	var got atomic.Int32
	cfg := isis.GroupConfig{OnDeliver: func(d isis.Delivery) { got.Add(1) }}
	ga, err := a.CreateGroup("g", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.JoinGroup(ctxT(t), "g", a.ID(), cfg); err != nil {
		t.Fatal(err)
	}
	if err := ga.Cast(ctxT(t), isis.ABCAST, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := isis.Await(ctxT(t), func() bool { return got.Load() == 2 }); err != nil {
		t.Fatalf("delivered %d of 2: %v", got.Load(), err)
	}
	if rt.Stats().MessagesSent == 0 {
		t.Error("fabric stats empty")
	}
}

func TestFacadeViewAndDeliveryChannels(t *testing.T) {
	rt := isis.NewSimulated()
	defer rt.Shutdown()
	ctx := ctxT(t)

	a := rt.MustSpawn()
	ga, err := a.CreateGroup("events", isis.GroupConfig{})
	if err != nil {
		t.Fatal(err)
	}
	views := ga.Views(ctx)
	// The subscriber sees the currently installed view first.
	select {
	case v := <-views:
		if v.Size() != 1 {
			t.Fatalf("initial view size = %d, want 1", v.Size())
		}
	case <-ctx.Done():
		t.Fatal("no initial view event")
	}

	b := rt.MustSpawn()
	gb, err := b.JoinGroup(ctx, "events", a.ID(), isis.GroupConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// The join shows up as a membership event, no polling involved.
	for {
		select {
		case v := <-views:
			if v.Size() == 2 {
				goto joined
			}
		case <-ctx.Done():
			t.Fatal("no two-member view event")
		}
	}
joined:

	deliveries := gb.Deliveries(ctx)
	if err := ga.Cast(ctx, isis.FBCAST, []byte("evt")); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-deliveries:
		if string(d.Payload) != "evt" {
			t.Fatalf("delivery payload = %q", d.Payload)
		}
		if d.From != a.ID() {
			t.Fatalf("delivery from %v, want %v", d.From, a.ID())
		}
	case <-ctx.Done():
		t.Fatal("no delivery event")
	}

	// Leaving the group closes subscription channels.
	if err := gb.Leave(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-deliveries:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("delivery channel not closed after Leave")
		}
	}
}

func TestFacadeCrashThenShutdownIsIdempotent(t *testing.T) {
	rt := isis.NewSimulated()
	a := rt.MustSpawn()
	b := rt.MustSpawn()

	cfg := isis.GroupConfig{}
	if _, err := a.CreateGroup("g", cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := b.JoinGroup(ctxT(t), "g", a.ID(), cfg); err != nil {
		t.Fatal(err)
	}

	// Crash stops b but leaves it registered with the runtime; Shutdown then
	// stops every process including b a second time. Both must be safe, and
	// explicit double-Stop too.
	rt.Crash(b)
	if !b.Stopped() {
		t.Error("crashed process not stopped")
	}
	b.Stop()
	rt.Shutdown()
	rt.Shutdown()
	if !a.Stopped() {
		t.Error("process still running after Shutdown")
	}
}

func TestFacadeServiceRequestBroadcastAndFailure(t *testing.T) {
	rt := isis.NewSimulated()
	defer rt.Shutdown()

	const members = 9
	var broadcasts atomic.Int32
	cfg := isis.ServiceConfig{
		Fanout:         3,
		Resiliency:     2,
		RequestHandler: func(p []byte) []byte { return append([]byte("ok:"), p...) },
		OnBroadcast:    func([]byte) { broadcasts.Add(1) },
	}
	founder := rt.MustSpawn()
	svc, err := founder.CreateService("quotes", cfg)
	if err != nil {
		t.Fatal(err)
	}
	procs := []*isis.Process{founder}
	for i := 1; i < members; i++ {
		p := rt.MustSpawn()
		if _, err := p.JoinService(ctxT(t), "quotes", founder.ID(), cfg); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		procs = append(procs, p)
	}
	if err := isis.Await(ctxT(t), func() bool { return svc.Tree().TotalMembers() == members }); err != nil {
		t.Fatalf("tree = %d members: %v", svc.Tree().TotalMembers(), err)
	}

	client := rt.MustSpawn().NewServiceClient("quotes", founder.ID())
	reply, err := client.Request(ctxT(t), []byte("IBM"))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "ok:IBM" {
		t.Errorf("reply = %q", reply)
	}

	covered, err := svc.Broadcast(ctxT(t), []byte("halt"))
	if err != nil {
		t.Fatal(err)
	}
	if covered != members {
		t.Errorf("broadcast covered %d of %d", covered, members)
	}
	if err := isis.Await(ctxT(t), func() bool { return int(broadcasts.Load()) == members }); err != nil {
		t.Errorf("broadcast delivered at %d of %d members: %v", broadcasts.Load(), members, err)
	}

	victim := procs[len(procs)-1]
	rt.Crash(victim)
	rt.InjectFailure(victim)
	if err := isis.Await(ctxT(t), func() bool { return svc.Tree().TotalMembers() == members-1 }); err != nil {
		t.Fatalf("tree still has %d members after failure: %v", svc.Tree().TotalMembers(), err)
	}
	if _, err := client.Request(ctxT(t), []byte("DEC")); err != nil {
		t.Errorf("request after failure: %v", err)
	}
}

func TestFacadeRuntimeDefaults(t *testing.T) {
	rt := isis.NewSimulated(isis.WithFanout(3), isis.WithResiliency(2))
	defer rt.Shutdown()

	founder := rt.MustSpawn()
	svc, err := founder.CreateService("svc", isis.ServiceConfig{
		RequestHandler: func(p []byte) []byte { return p },
	})
	if err != nil {
		t.Fatal(err)
	}
	// With fanout 3, a fourth member cannot fit in one leaf: runtime-level
	// defaults must have reached the service config.
	for i := 0; i < 4; i++ {
		p := rt.MustSpawn()
		if _, err := p.JoinService(ctxT(t), "svc", founder.ID(), isis.ServiceConfig{
			RequestHandler: func(p []byte) []byte { return p },
		}); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	if err := isis.Await(ctxT(t), func() bool {
		return svc.Tree().TotalMembers() == 5 && svc.Tree().LeafCount() >= 2
	}); err != nil {
		t.Fatalf("tree = %d members in %d leaves: %v",
			svc.Tree().TotalMembers(), svc.Tree().LeafCount(), err)
	}
}

func TestFacadeTCPOnlyOperationsRejectedOnSimulated(t *testing.T) {
	rt := isis.NewSimulated()
	defer rt.Shutdown()
	if _, err := rt.SpawnAt(1, "127.0.0.1:0"); err == nil {
		t.Error("SpawnAt succeeded on a simulated runtime")
	}
	if err := rt.AddPeer(1, "127.0.0.1:1"); err == nil {
		t.Error("AddPeer succeeded on a simulated runtime")
	}
}

func TestFacadeTCPSiteAssignmentAvoidsCollisions(t *testing.T) {
	rt := isis.NewTCP()
	defer rt.Shutdown()

	p1, err := rt.SpawnAt(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.AddPeer(3, "127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	a := rt.MustSpawn()
	b := rt.MustSpawn()
	if a.ID() == p1.ID() || b.ID() == p1.ID() {
		t.Errorf("Spawn reused an explicitly claimed site: %v / %v vs %v", a.ID(), b.ID(), p1.ID())
	}
	if a.ID().Site == 3 || b.ID().Site == 3 {
		t.Errorf("Spawn hijacked a registered peer site: %v, %v", a.ID(), b.ID())
	}
	if _, err := rt.SpawnAt(1, "127.0.0.1:0"); err == nil {
		t.Error("SpawnAt accepted a duplicate site id")
	}
	if err := rt.AddPeer(1, "127.0.0.1:1"); err == nil {
		t.Error("AddPeer accepted a site id owned by a local process")
	}
}

func TestFacadeNameService(t *testing.T) {
	rt := isis.NewSimulated()
	defer rt.Shutdown()
	dirProc := rt.MustSpawn()
	svcProc := rt.MustSpawn()
	clientProc := rt.MustSpawn()

	dir := dirProc.NewDirectory(nil)
	_ = dir
	cfg := isis.ServiceConfig{Fanout: 4, Resiliency: 2, RequestHandler: func(p []byte) []byte { return p }}
	if _, err := svcProc.CreateService("quotes", cfg); err != nil {
		t.Fatal(err)
	}
	res := svcProc.NewResolver(dirProc.ID())
	if err := res.RegisterRemote(ctxT(t), "quotes", []isis.ProcessID{svcProc.ID()}); err != nil {
		t.Fatal(err)
	}
	contacts, err := clientProc.NewResolver(dirProc.ID()).Resolve(ctxT(t), "quotes")
	if err != nil {
		t.Fatal(err)
	}
	if len(contacts) != 1 || contacts[0] != svcProc.ID() {
		t.Fatalf("contacts = %v", contacts)
	}
	client := clientProc.NewServiceClient("quotes", contacts[0])
	if _, err := client.Request(ctxT(t), []byte("x")); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeFaultPlanAndObserver pins the chaos-facing facade surface: a
// fault plan attached with WithFaultPlan is applied step by step through
// StepFaults (network events reach the fabric's fault log, crash events
// stop the process and inform survivors), and ObserveGroups taps every view
// install and delivery.
func TestFacadeFaultPlanAndObserver(t *testing.T) {
	plan := []isis.FaultEvent{
		{Step: 0, Kind: isis.FaultLoss, Rate: 0.5},
		{Step: 1, Kind: isis.FaultCrash, Proc: isis.Site(2)},
		{Step: 2, Kind: isis.FaultLoss, Rate: 0},
	}
	rt := isis.NewSimulated(isis.WithFaultPlan(plan...))
	defer rt.Shutdown()

	a := rt.MustSpawn()
	b := rt.MustSpawn()

	var views, deliveries atomic.Int32
	a.ObserveGroups(isis.GroupObserver{
		OnView:    func(isis.GroupID, isis.View) { views.Add(1) },
		OnDeliver: func(isis.GroupID, isis.Delivery) { deliveries.Add(1) },
	})

	ga, err := a.CreateGroup("fp", isis.GroupConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.JoinGroup(ctxT(t), "fp", a.ID(), isis.GroupConfig{}); err != nil {
		t.Fatal(err)
	}
	// The founder installs the two-member view on its own actor, which may
	// still be running when the joiner's JoinGroup returns.
	if err := isis.Await(ctxT(t), func() bool { return views.Load() >= 2 }); err != nil {
		t.Errorf("observer saw %d views, want the founding and the two-member view: %v", views.Load(), err)
	}

	if got := len(rt.FaultPlan()); got != len(plan) {
		t.Errorf("FaultPlan returned %d events, want %d", got, len(plan))
	}
	if applied := rt.StepFaults(0); len(applied) != 1 || applied[0].Kind != isis.FaultLoss {
		t.Errorf("step 0 applied %v", applied)
	}
	if applied := rt.StepFaults(1); len(applied) != 1 {
		t.Errorf("step 1 applied %v", applied)
	} else if !b.Stopped() {
		t.Error("crash event did not stop the process")
	}
	rt.StepFaults(2)
	if rt.StepFaults(99) != nil {
		t.Error("empty step applied events")
	}

	// The crash suspicion reached the survivor: the group shrinks back to 1.
	if err := isis.Await(ctxT(t), func() bool { return ga.Size() == 1 }); err != nil {
		t.Fatalf("survivor still sees %d members: %v", ga.Size(), err)
	}
	// The fabric fault log recorded all three applied events.
	faults := rt.Stats().Faults
	if len(faults) != 3 {
		t.Errorf("fault log has %d entries, want 3: %v", len(faults), faults)
	}

	ga.CastAsync(isis.FBCAST, []byte("observed"))
	if err := isis.Await(ctxT(t), func() bool { return deliveries.Load() >= 1 }); err != nil {
		t.Errorf("observer saw no delivery: %v", err)
	}
}

// TestFacadeBatchingOptions pins the batching knobs: casts flow end to end
// with 16-message frames and with one-message frames, and the simulated
// fabric's frame counters reflect the difference.
func TestFacadeBatchingOptions(t *testing.T) {
	run := func(rt *isis.Runtime) (delivered int32, st isis.Stats) {
		defer rt.Shutdown()
		ctx := ctxT(t)
		var count atomic.Int32
		cfg := isis.GroupConfig{OnDeliver: func(isis.Delivery) { count.Add(1) }}
		first := rt.MustSpawn()
		g, err := first.CreateGroup("b", cfg)
		if err != nil {
			t.Fatal(err)
		}
		second := rt.MustSpawn()
		if _, err := second.JoinGroup(ctx, "b", first.ID(), cfg); err != nil {
			t.Fatal(err)
		}
		const casts = 50
		for i := 0; i < casts; i++ {
			g.CastAsync(isis.FBCAST, []byte{byte(i)})
		}
		if err := isis.Await(ctx, func() bool { return count.Load() == 2*casts }); err != nil {
			t.Fatalf("delivered %d of %d: %v", count.Load(), 2*casts, err)
		}
		return count.Load(), rt.Stats()
	}

	_, tuned := run(isis.NewSimulated(isis.WithBatching(16, time.Millisecond)))
	_, off := run(isis.NewSimulated(isis.WithBatching(1, time.Millisecond)))
	if tuned.FramesSent >= off.FramesSent {
		t.Errorf("16-message frames: %d frames sent, one-message frames: %d: coalescing had no effect",
			tuned.FramesSent, off.FramesSent)
	}
	// Batching must not change how many CASTS are sent — only how they are
	// framed. (Total message counts legitimately differ: cumulative
	// acknowledgements answer per frame, so better framing means fewer
	// stability reports. That is the point.)
	if tuned.PerKind[types.KindCast] != off.PerKind[types.KindCast] {
		t.Errorf("cast counts differ across frame caps: %d vs %d (batching must only change framing)",
			tuned.PerKind[types.KindCast], off.PerKind[types.KindCast])
	}
	if tuned.MessagesSent > off.MessagesSent {
		t.Errorf("16-message frames sent MORE messages than one-message frames (%d vs %d): per-frame acknowledgement coalescing regressed",
			tuned.MessagesSent, off.MessagesSent)
	}
}
