package isis_test

import (
	"runtime"
	"sync/atomic"
	"testing"

	isis "repro"
)

// TestCrashedProcessPinsNothing crashes and respawns one member of a
// three-member group 50 times while the founder casts. The runtime lets go
// of a crashed Process, but the test keeps every one of them reachable, so
// the bound below is per crashed process still held by its caller. A
// crashed process must release its network inbox and its group stack: the
// live heap may grow by its bookkeeping only, not by a queue buffer and a
// group's protocol state per crash. Each crash lands while the member is
// still taking in the founder's last burst, with the receipt
// acknowledgements it owes unpaid, so the stack's list of owing groups must
// let go too.
func TestCrashedProcessPinsNothing(t *testing.T) {
	const cycles = 50
	const perCrashBound = 32 << 10 // an inbox queue alone is ~98 KB

	rt := isis.NewSimulated()
	defer rt.Shutdown()
	a := rt.MustSpawn()
	b := rt.MustSpawn()
	var delivered atomic.Int64
	cfg := isis.GroupConfig{OnDeliver: func(isis.Delivery) { delivered.Add(1) }}
	ga, err := a.CreateGroup("g", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.JoinGroup(ctxT(t), "g", a.ID(), cfg); err != nil {
		t.Fatal(err)
	}

	var crashed []*isis.Process
	cycle := func() {
		t.Helper()
		p := rt.MustSpawn()
		// The member's delivery of the last cast of the final burst parks
		// its actor until the crash has begun: the acknowledgement it owes
		// the founder is never paid.
		var burst, got atomic.Int64
		inCrashBurst, crashing := make(chan struct{}), make(chan struct{})
		pcfg := isis.GroupConfig{OnDeliver: func(isis.Delivery) {
			delivered.Add(1)
			if burst.Load() == 1 && got.Add(1) == 20 {
				close(inCrashBurst)
				<-crashing
			}
		}}
		if _, err := p.JoinGroup(ctxT(t), "g", a.ID(), pcfg); err != nil {
			t.Fatal(err)
		}
		// Traffic the crashed member holds at its crash: deliveries,
		// retransmit and ordering state, frames still queued.
		want := delivered.Load() + 3*20
		for k := 0; k < 20; k++ {
			ga.CastAsync(isis.CBCAST, make([]byte, 512))
		}
		if err := isis.Await(ctxT(t), func() bool { return delivered.Load() >= want }); err != nil {
			t.Fatalf("casts never delivered: %v", err)
		}
		// And a burst it is still taking in when it crashes.
		burst.Store(1)
		for k := 0; k < 20; k++ {
			ga.CastAsync(isis.CBCAST, make([]byte, 512))
		}
		select {
		case <-inCrashBurst:
		case <-ctxT(t).Done():
			t.Fatal("the crash burst never reached the member")
		}
		halted := make(chan struct{})
		go func() {
			defer close(halted)
			rt.Crash(p)
		}()
		if err := isis.Await(ctxT(t), p.Stopped); err != nil {
			t.Fatalf("crash never began: %v", err)
		}
		close(crashing)
		<-halted
		rt.InjectFailure(p)
		if err := isis.Await(ctxT(t), func() bool { return ga.Size() == 2 }); err != nil {
			t.Fatalf("crash never installed: %v", err)
		}
		crashed = append(crashed, p)
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	for i := 0; i < 5; i++ { // warm up: pools, maps and buffers at size
		cycle()
	}
	before := liveHeap()
	for i := 0; i < cycles; i++ {
		cycle()
	}
	after := liveHeap()
	per := (int64(after) - int64(before)) / cycles
	t.Logf("live heap %d -> %d KB over %d crashes: %d B per crashed process (%d kept)",
		before>>10, after>>10, cycles, per, len(crashed))
	if per > perCrashBound {
		t.Errorf("each crashed process pins %d B of live heap, want <= %d", per, perCrashBound)
	}
}
