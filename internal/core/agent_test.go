package core_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	isis "repro"
	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/fdetect"
	"repro/internal/group"
	"repro/internal/node"
	"repro/internal/transport"
	"repro/internal/types"
)

const testTimeout = 10 * time.Second

func ctxT(t testing.TB) context.Context {
	t.Helper()
	return within(t, testTimeout)
}

// within returns a context that ends after d, or when the test does.
func within(t testing.TB, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// spawn starts a simulated runtime of n processes, shut down when the test
// ends.
func spawn(t testing.TB, n int, opts ...isis.Option) (*isis.Runtime, []*isis.Process) {
	t.Helper()
	rt := isis.NewSimulated(opts...)
	t.Cleanup(rt.Shutdown)
	procs := make([]*isis.Process, n)
	for i := range procs {
		procs[i] = rt.MustSpawn()
	}
	return rt, procs
}

// buildService spins up a large group of the first n processes (process 0
// founds it) and returns their agents.
func buildService(t testing.TB, procs []*isis.Process, n int, cfgFor func(i int) core.Config) []*core.Agent {
	t.Helper()
	agents := make([]*core.Agent, n)
	var err error
	agents[0], err = procs[0].CreateService("svc", cfgFor(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		agents[i], err = procs[i].JoinService(ctxT(t), "svc", procs[0].ID(), cfgFor(i))
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	return agents
}

func echoCfg(fanout, resiliency int) core.Config {
	return core.Config{
		Fanout:     fanout,
		Resiliency: resiliency,
		RequestHandler: func(p []byte) []byte {
			return append([]byte("echo:"), p...)
		},
	}
}

func TestCreateLargeGroupFounder(t *testing.T) {
	// Host.Agent has no facade counterpart: drive a host spawned directly
	// on the runtime's fabric.
	rt := isis.NewSimulated()
	p, err := boot.Spawn(isis.Site(1), transport.NewMemory(rt.Fabric()), fdetect.Config{}, node.Batching{}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	h := p.Host
	a, err := h.Create("svc", echoCfg(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !a.IsLeader() {
		t.Error("founder is not a leader member")
	}
	if a.Leaf() == nil || a.Leaf().Size() != 1 {
		t.Errorf("founder leaf = %v", a.Leaf())
	}
	tr := a.Tree()
	if tr.LeafCount() != 1 || tr.TotalMembers() != 1 {
		t.Errorf("tree = %+v", tr)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if h.Agent("svc") != a {
		t.Error("Host.Agent lookup failed")
	}
	if _, err := h.Create("svc", echoCfg(4, 2)); err == nil {
		t.Error("second Create for the same name succeeded")
	}
}

func TestJoinFillsLeavesUpToFanout(t *testing.T) {
	const n = 10
	fanout := 4
	_, procs := spawn(t, n)
	agents := buildService(t, procs, n, func(int) core.Config { return echoCfg(fanout, 2) })

	// The leader's tree must account for every member, keep every leaf at or
	// below the fanout bound, and satisfy the structural invariants.
	ok := isis.Await(ctxT(t), func() bool {
		return agents[0].Tree().TotalMembers() == n
	}) == nil
	tr := agents[0].Tree()
	if !ok {
		t.Fatalf("tree accounts for %d of %d members: %+v", tr.TotalMembers(), n, tr.Leaves)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, l := range tr.Leaves {
		if l.Size > fanout {
			t.Errorf("leaf %v has %d members, fanout %d", l.ID, l.Size, fanout)
		}
	}
	if tr.LeafCount() < n/fanout {
		t.Errorf("only %d leaves for %d members", tr.LeafCount(), n)
	}
	// Every member is in exactly one leaf, and no member's own view exceeds
	// the fanout bound (the storage claim).
	for i, a := range agents {
		leafView := a.Leaf().CurrentView()
		if leafView.Size() > fanout {
			t.Errorf("member %d sees a leaf of %d members", i, leafView.Size())
		}
		if !leafView.Contains(procs[i].ID()) {
			t.Errorf("member %d not in its own leaf view", i)
		}
	}
}

func TestMembersViewStorageBoundedWhileServiceGrows(t *testing.T) {
	const n = 24
	_, procs := spawn(t, n)
	agents := buildService(t, procs, n, func(int) core.Config { return echoCfg(4, 2) })

	maxStorage := 0
	for _, a := range agents[1:] { // skip the founder (leader member)
		if a.IsLeader() {
			continue
		}
		if s := a.Leaf().CurrentView().StorageSize(); s > maxStorage {
			maxStorage = s
		}
	}
	// A flat group of 24 members would need ~24 addresses in every process;
	// hierarchical members must store only their leaf (≤ fanout entries).
	flatEquivalent := agents[0].Leaf().CurrentView().StorageSize() * n / agents[0].Leaf().Size()
	if maxStorage*3 > flatEquivalent {
		t.Errorf("member view storage %dB is not clearly below flat equivalent %dB", maxStorage, flatEquivalent)
	}
}

func TestClientRequestRoutedToSingleLeaf(t *testing.T) {
	const n = 12
	rt, procs := spawn(t, n+1)
	agents := buildService(t, procs, n, func(int) core.Config { return echoCfg(4, 2) })
	if isis.Await(ctxT(t), func() bool { return agents[0].Tree().TotalMembers() == n }) != nil {
		t.Fatal("tree never converged")
	}
	// Every leaf member records the cohort copies it is delivered.
	var mu sync.Mutex
	copies := make(map[types.ProcessID][]string)
	for _, p := range procs[:n] {
		p := p
		p.ObserveGroups(group.Observer{OnDeliver: func(gid types.GroupID, d group.Delivery) {
			if req, result, ok := core.DecodeCohortCopy(d.Payload); ok && gid.Kind == types.KindLeaf {
				mu.Lock()
				copies[p.ID()] = append(copies[p.ID()], string(req)+" -> "+string(result))
				mu.Unlock()
			}
		}})
	}

	client := procs[n].NewServiceClient("svc", procs[0].ID())
	reply, err := client.Request(ctxT(t), []byte("quote IBM"))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "echo:quote IBM" {
		t.Errorf("reply = %q", reply)
	}
	server := client.CachedServer()
	if server.IsNil() {
		t.Fatal("client did not cache the serving leaf coordinator")
	}
	serverLeaf := agents[indexOf(t, procs, server)].LeafID()
	var leaf []int // the serving leaf's members
	for i, a := range agents {
		if a.LeafID().Equal(serverLeaf) {
			leaf = append(leaf, i)
		}
	}
	cohortCopies := func() (sum uint64) {
		for _, i := range leaf {
			sum += agents[i].Stats().CohortCopies
		}
		return sum
	}
	// Every member of the leaf, the coordinator included, is delivered one
	// copy per request.
	awaitCopies := func(want uint64) {
		t.Helper()
		if isis.Await(ctxT(t), func() bool { return cohortCopies() >= want }) != nil {
			t.Fatalf("leaf counted %d cohort copies, want %d", cohortCopies(), want)
		}
	}

	// Steady state: messages for one request must involve only the client
	// and one leaf subgroup, not the whole service. The warm request's
	// cohort cast has reached the whole leaf before the window opens.
	awaitCopies(uint64(len(leaf)))
	rt.Fabric().ResetStats()
	if _, err := client.Request(ctxT(t), []byte("quote DEC")); err != nil {
		t.Fatal(err)
	}
	awaitCopies(uint64(2 * len(leaf)))
	stats := rt.Fabric().Stats()
	disturbed := rt.Fabric().DistinctReceivers()
	if got := cohortCopies(); got != uint64(2*len(leaf)) {
		t.Errorf("leaf of %d counted %d cohort copies for two requests, want one each", len(leaf), got)
	}
	if disturbed > len(leaf)+2 {
		t.Errorf("request disturbed %d processes; leaf size is only %d", disturbed, len(leaf))
	}
	// The request cost excludes the periodic background traffic that may
	// fall into the window: the reliability layer's stability reports
	// (amortized, timer-bounded and leaf-local, which the DistinctReceivers
	// bound above still verifies), and the recovery tick's re-sent leaf
	// reports and leader-contact pushes. What is left is the request to the
	// cached coordinator, its reply, and one cohort cast to the other
	// len(leaf)-1 members: len(leaf)+1 messages. Casting the request and the
	// result separately cost 2*len(leaf).
	perRequest := stats.MessagesSent - stats.PerKind[types.KindStability] -
		stats.PerKind[types.KindHLeafReport] - stats.PerKind[types.KindHLeaderUpdate]
	t.Logf("request cost %d messages, leaf of %d", perRequest, len(leaf))
	if want := uint64(len(leaf) + 1); perRequest > want {
		t.Errorf("request cost %d messages (%v); want at most %d (leaf of %d)", perRequest, stats.PerKind, want, len(leaf))
	}
	mu.Lock()
	defer mu.Unlock()
	for _, i := range leaf {
		id := procs[i].ID()
		got := copies[id]
		if len(got) == 0 || got[len(got)-1] != "quote DEC -> echo:quote DEC" {
			t.Errorf("cohort %v holds copies %q, want the last to be the request and its result", id, got)
		}
	}
}

// indexOf returns the index of the process whose id is pid.
func indexOf(t *testing.T, procs []*isis.Process, pid types.ProcessID) int {
	t.Helper()
	for i, p := range procs {
		if p.ID() == pid {
			return i
		}
	}
	t.Fatalf("no process %v", pid)
	return -1
}

func TestRequestsSpreadAcrossLeaves(t *testing.T) {
	const n = 12
	_, procs := spawn(t, n+3)
	agents := buildService(t, procs, n, func(int) core.Config { return echoCfg(4, 2) })
	if isis.Await(ctxT(t), func() bool { return agents[0].Tree().TotalMembers() == n }) != nil {
		t.Fatal("tree never converged")
	}
	// Three clients, each issuing several requests; at least two distinct
	// leaf coordinators must end up serving (load spreading across leaves).
	servers := make(map[types.ProcessID]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for ci := 0; ci < 3; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			client := procs[n+ci].NewServiceClient("svc", procs[0].ID())
			for r := 0; r < 3; r++ {
				if _, err := client.Request(ctxT(t), []byte(fmt.Sprintf("c%d-r%d", ci, r))); err != nil {
					t.Errorf("client %d request %d: %v", ci, r, err)
					return
				}
			}
			mu.Lock()
			servers[client.CachedServer()] = true
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	if len(servers) < 2 {
		t.Errorf("all clients served by the same leaf coordinator: %v", servers)
	}
}

func TestBroadcastReachesEveryMember(t *testing.T) {
	const n = 14
	_, procs := spawn(t, n)
	var delivered atomic.Int64
	agents := buildService(t, procs, n, func(i int) core.Config {
		cfg := echoCfg(4, 2)
		cfg.OnBroadcast = func(p []byte) {
			if string(p) == "market-open" {
				delivered.Add(1)
			}
		}
		return cfg
	})
	if isis.Await(ctxT(t), func() bool { return agents[0].Tree().TotalMembers() == n }) != nil {
		t.Fatalf("tree never converged: %+v", agents[0].Tree().Leaves)
	}

	covered, err := agents[0].Broadcast(ctxT(t), []byte("market-open"))
	if err != nil {
		t.Fatal(err)
	}
	if covered != n {
		t.Errorf("broadcast covered %d of %d members", covered, n)
	}
	if isis.Await(ctxT(t), func() bool { return delivered.Load() == int64(n) }) != nil {
		t.Fatalf("broadcast delivered to %d of %d members", delivered.Load(), n)
	}
	// The whole-group broadcast must respect the fanout bound: no process
	// sends to more than ~2*fanout distinct destinations for this traffic.
	// (The founder also replicates the tree to the leader group, so allow
	// that slack.)
}

func TestBroadcastFromClient(t *testing.T) {
	const n = 9
	_, procs := spawn(t, n+1)
	var delivered atomic.Int64
	agents := buildService(t, procs, n, func(int) core.Config {
		cfg := echoCfg(3, 2)
		cfg.OnBroadcast = func([]byte) { delivered.Add(1) }
		return cfg
	})
	if isis.Await(ctxT(t), func() bool { return agents[0].Tree().TotalMembers() == n }) != nil {
		t.Fatal("tree never converged")
	}
	client := procs[n].NewServiceClient("svc", procs[0].ID())
	covered, err := client.Broadcast(ctxT(t), []byte("halt-trading"))
	if err != nil {
		t.Fatal(err)
	}
	if covered != n {
		t.Errorf("covered = %d, want %d", covered, n)
	}
	if isis.Await(ctxT(t), func() bool { return delivered.Load() == int64(n) }) != nil {
		t.Fatalf("delivered to %d of %d", delivered.Load(), n)
	}
}

func TestLeafCastStaysInsideLeaf(t *testing.T) {
	const n = 8
	_, procs := spawn(t, n)
	var mu sync.Mutex
	got := map[int]int{}
	agents := buildService(t, procs, n, func(i int) core.Config {
		cfg := echoCfg(4, 2)
		cfg.OnLeafDeliver = func(_ types.ProcessID, p []byte) {
			mu.Lock()
			got[i]++
			mu.Unlock()
		}
		return cfg
	})
	if isis.Await(ctxT(t), func() bool { return agents[0].Tree().TotalMembers() == n }) != nil {
		t.Fatal("tree never converged")
	}
	sender := agents[n-1]
	if err := sender.LeafCast(ctxT(t), []byte("cell-status")); err != nil {
		t.Fatal(err)
	}
	leafSize := sender.Leaf().Size()
	if isis.Await(ctxT(t), func() bool {
		mu.Lock()
		defer mu.Unlock()
		total := 0
		for _, v := range got {
			total += v
		}
		return total >= leafSize
	}) != nil {
		t.Fatal("leaf cast not delivered within the leaf")
	}
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for _, v := range got {
		total += v
	}
	if total != leafSize {
		t.Errorf("leaf cast delivered to %d processes, leaf has %d members", total, leafSize)
	}
}

func TestSingleFailureDisturbsOnlyOneLeaf(t *testing.T) {
	const n = 16
	rt, procs := spawn(t, n)
	agents := buildService(t, procs, n, func(int) core.Config { return echoCfg(4, 3) })
	if isis.Await(ctxT(t), func() bool { return agents[0].Tree().TotalMembers() == n }) != nil {
		t.Fatal("tree never converged")
	}

	// Pick a non-leader victim and find its leaf peers.
	victim := n - 1
	victimLeaf := agents[victim].Leaf().CurrentView()
	peers := victimLeaf.Size() - 1

	rt.Fabric().ResetStats()
	rt.Crash(procs[victim])
	rt.InjectFailure(procs[victim])

	// The victim's leaf peers must install a shrunk view.
	ok := isis.Await(ctxT(t), func() bool {
		for i := 0; i < n-1; i++ {
			if agents[i].Leaf().ID().Equal(victimLeaf.Group) && agents[i].Leaf().CurrentView().Contains(procs[victim].ID()) {
				return false
			}
		}
		return true
	}) == nil
	if !ok {
		t.Fatal("victim never removed from its leaf")
	}
	time.Sleep(100 * time.Millisecond)

	// Membership traffic must have reached only the victim's leaf peers plus
	// the leader group — a bounded set, not the whole service.
	disturbed := rt.Fabric().DistinctReceivers()
	bound := peers + 4 /* leader members + report forwarding slack */
	if disturbed > bound {
		t.Errorf("failure disturbed %d processes, want <= %d (leaf peers %d)", disturbed, bound, peers)
	}
	// Members of other leaves must not have installed any new leaf view.
	for i := 0; i < n-1; i++ {
		if !agents[i].Leaf().ID().Equal(victimLeaf.Group) {
			if agents[i].Leaf().CurrentView().Contains(procs[victim].ID()) {
				t.Errorf("member %d (different leaf) somehow saw the victim", i)
			}
		}
	}
}

func TestLeaderTreeUpdatedAfterFailure(t *testing.T) {
	const n = 8
	rt, procs := spawn(t, n)
	agents := buildService(t, procs, n, func(int) core.Config { return echoCfg(4, 2) })
	if isis.Await(ctxT(t), func() bool { return agents[0].Tree().TotalMembers() == n }) != nil {
		t.Fatal("tree never converged")
	}
	victim := n - 1
	rt.Crash(procs[victim])
	rt.InjectFailure(procs[victim])
	if isis.Await(ctxT(t), func() bool { return agents[0].Tree().TotalMembers() == n-1 }) != nil {
		t.Fatalf("leader tree still counts %d members", agents[0].Tree().TotalMembers())
	}
	if err := agents[0].Tree().CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAgentLeaveShrinksTree(t *testing.T) {
	const n = 6
	_, procs := spawn(t, n)
	agents := buildService(t, procs, n, func(int) core.Config { return echoCfg(3, 2) })
	if isis.Await(ctxT(t), func() bool { return agents[0].Tree().TotalMembers() == n }) != nil {
		t.Fatal("tree never converged")
	}
	if err := agents[n-1].Leave(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	if isis.Await(ctxT(t), func() bool { return agents[0].Tree().TotalMembers() == n-1 }) != nil {
		t.Fatalf("tree still counts %d members after leave", agents[0].Tree().TotalMembers())
	}
}

func TestRequestAfterLeafCoordinatorFailure(t *testing.T) {
	const n = 8
	rt, procs := spawn(t, n+1)
	agents := buildService(t, procs, n, func(int) core.Config { return echoCfg(4, 3) })
	if isis.Await(ctxT(t), func() bool { return agents[0].Tree().TotalMembers() == n }) != nil {
		t.Fatal("tree never converged")
	}
	client := procs[n].NewServiceClient("svc", procs[0].ID())
	if _, err := client.Request(ctxT(t), []byte("r1")); err != nil {
		t.Fatal(err)
	}
	served := client.CachedServer()
	// Crash the leaf coordinator that served the request (unless it is the
	// founder, which would also take the leader group's only seed away in
	// this small test).
	victim := -1
	for i := 1; i < n; i++ {
		if procs[i].ID() == served {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Skip("request was served by the founder; coordinator-failure path exercised elsewhere")
	}
	rt.Crash(procs[victim])
	rt.InjectFailure(procs[victim])
	// Allow the leaf to elect a new coordinator and the leader to hear the
	// report, then the client (whose cache now points at a dead process)
	// must still get an answer via its entry point.
	time.Sleep(200 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	reply, err := client.Request(ctx, []byte("r2"))
	if err != nil {
		t.Fatalf("request after coordinator failure: %v", err)
	}
	if string(reply) != "echo:r2" {
		t.Errorf("reply = %q", reply)
	}
}

func TestHostJoinUnknownServiceFails(t *testing.T) {
	_, procs := spawn(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if _, err := procs[1].JoinService(ctx, "ghost", procs[0].ID(), echoCfg(4, 2)); err == nil {
		t.Error("joining a non-existent service succeeded")
	}
}

func TestConfigValidation(t *testing.T) {
	_, procs := spawn(t, 1)
	if _, err := procs[0].CreateService("bad", core.Config{Fanout: 2, Resiliency: 5}); err == nil {
		t.Error("resiliency > fanout accepted")
	}
	if _, err := procs[0].CreateService("bad2", core.Config{MinLeafSize: 9, MaxLeafSize: 3}); err == nil {
		t.Error("min > max leaf size accepted")
	}
}
