// Package experiments implements the benchmark harness that regenerates
// every experiment in EXPERIMENTS.md (E1–E8, E10–E14 plus the ablations
// A1–A3). The same code backs cmd/isis-bench and the testing.B benchmarks in
// bench_test.go, so the printed tables and the benchmark metrics always come
// from one implementation.
//
// Because the source paper is a position paper with no measured figures,
// each experiment reifies one of its quantitative claims (E10 instead drives
// the chaos harness's fault scenarios, and E11 measures the reliability
// layer's recovery under loss); see DESIGN.md §9 for the claim-to-experiment
// mapping.
package experiments

import (
	"context"
	"fmt"
	"time"

	isis "repro"
	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/fdetect"
	"repro/internal/group"
	"repro/internal/member"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/reliability"
	"repro/internal/toolkit"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/workload"
)

// Scale selects how far the parameter sweeps go. Quick keeps every
// experiment under a few seconds (used by `go test -bench`); Full runs the
// paper-scale sweeps (100–500 workstations) and is what EXPERIMENTS.md
// records; Smoke runs one small size per sweep so experiment drift fails
// ordinary `go test` runs instead of only the bench job.
type Scale int

const (
	Quick Scale = iota
	Full
	Smoke
)

func (s Scale) sizes() []int {
	switch s {
	case Full:
		return []int{5, 10, 25, 50, 100, 250, 500}
	case Smoke:
		return []int{5}
	default:
		return []int{5, 10, 25, 50}
	}
}

func (s Scale) hierFanout() int     { return 8 }
func (s Scale) hierResiliency() int { return 3 }

const opTimeout = 30 * time.Second

// --- shared builders -------------------------------------------------------------

// simulate starts a simulated runtime of n processes.
func simulate(n int, opts ...isis.Option) (*isis.Runtime, []*isis.Process, error) {
	rt := isis.NewSimulated(opts...)
	procs := make([]*isis.Process, n)
	for i := range procs {
		p, err := rt.Spawn()
		if err != nil {
			rt.Shutdown()
			return nil, nil, err
		}
		procs[i] = p
	}
	return rt, procs, nil
}

// await reports whether cond came true within opTimeout.
func await(cond func() bool) bool {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	return isis.Await(ctx, cond) == nil
}

// sized reports whether every listed membership's view has n members.
func sized(n int, groups ...*group.Group) func() bool {
	return func() bool {
		for _, g := range groups {
			if g.Size() != n {
				return false
			}
		}
		return true
	}
}

// flatService is a coordinator-cohort service over one flat group of n
// members plus one external client process.
type flatService struct {
	rt     *isis.Runtime
	procs  []*isis.Process
	client *toolkit.FlatClient
	groups []*group.Group

	clientProc *boot.Proc
}

func buildFlatService(n int) (*flatService, error) {
	rt, procs, err := simulate(n)
	if err != nil {
		return nil, err
	}
	fs := &flatService{rt: rt, procs: procs}
	services := make([]*toolkit.Service, n)
	cfg := func(i int) group.Config {
		return group.Config{OnDeliver: func(d group.Delivery) {
			if services[i] != nil {
				services[i].Deliver(d)
			}
		}}
	}
	fs.groups = make([]*group.Group, n)
	fs.groups[0], err = procs[0].CreateGroup("flat-svc", cfg(0))
	if err != nil {
		rt.Shutdown()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	for i := 1; i < n; i++ {
		fs.groups[i], err = procs[i].JoinGroup(ctx, "flat-svc", procs[0].ID(), cfg(i))
		if err != nil {
			rt.Shutdown()
			return nil, fmt.Errorf("flat join %d/%d: %w", i, n, err)
		}
	}
	for i := range services {
		services[i] = toolkit.NewService(fs.groups[i], func(p []byte) []byte { return p })
		toolkit.NewFlatServer(services[i])
	}
	// The flat client drives a raw node, which the facade does not hand
	// out: its process is spawned directly on the runtime's fabric, at a
	// site the runtime never assigns.
	fs.clientProc, err = boot.Spawn(isis.Site(1<<20), transport.NewMemory(rt.Fabric()), fdetect.Config{}, node.Batching{}, "")
	if err != nil {
		rt.Shutdown()
		return nil, err
	}
	fs.client = toolkit.NewFlatClient(fs.clientProc.Node, "flat-svc", procs[0].ID())
	return fs, nil
}

func (fs *flatService) request(payload []byte) error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	_, err := fs.client.Request(ctx, payload)
	return err
}

func (fs *flatService) stop() {
	fs.rt.Shutdown()
	fs.clientProc.Stop()
}

// hierService is a hierarchical-group service of n members plus one external
// client process.
type hierService struct {
	rt     *isis.Runtime
	procs  []*isis.Process
	agents []*core.Agent
	client *core.Client
}

func buildHierService(n, fanout, resiliency int, onBroadcast func()) (*hierService, error) {
	rt, procs, err := simulate(n + 1)
	if err != nil {
		return nil, err
	}
	hs := &hierService{rt: rt, procs: procs, agents: make([]*core.Agent, n)}
	cfg := core.Config{
		Fanout:         fanout,
		Resiliency:     resiliency,
		RequestHandler: func(p []byte) []byte { return p },
	}
	if onBroadcast != nil {
		cfg.OnBroadcast = func([]byte) { onBroadcast() }
	}
	hs.agents[0], err = procs[0].CreateService("hier-svc", cfg)
	if err != nil {
		rt.Shutdown()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	for i := 1; i < n; i++ {
		hs.agents[i], err = procs[i].JoinService(ctx, "hier-svc", procs[0].ID(), cfg)
		if err != nil {
			rt.Shutdown()
			return nil, fmt.Errorf("hier join %d/%d: %w", i, n, err)
		}
	}
	// Wait for the leader's tree to account for everyone so routing spreads
	// over all leaves.
	await(func() bool { return hs.agents[0].Tree().TotalMembers() == n })
	hs.client = procs[n].NewServiceClient("hier-svc", procs[0].ID())
	return hs, nil
}

func (hs *hierService) request(payload []byte) error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	_, err := hs.client.Request(ctx, payload)
	return err
}

func (hs *hierService) stop() { hs.rt.Shutdown() }

func settle() { time.Sleep(50 * time.Millisecond) }

// --- E1: messages per coordinator-cohort request ----------------------------------

// E1RequestCost reproduces the paper's "a service request will involve 2n
// messages and action by all n members" claim and contrasts it with the
// hierarchical design, where the request involves only one leaf.
func E1RequestCost(s Scale) (*metrics.Table, error) {
	t := metrics.NewTable("E1: coordinator-cohort request cost vs service size",
		"members", "flat msgs/req", "flat procs touched", "hier msgs/req", "hier procs touched", "flat/hier")
	fanout, resiliency := s.hierFanout(), s.hierResiliency()
	for _, n := range s.sizes() {
		fs, err := buildFlatService(n)
		if err != nil {
			return nil, fmt.Errorf("E1 flat n=%d: %w", n, err)
		}
		if err := fs.request([]byte("warm")); err != nil {
			fs.stop()
			return nil, err
		}
		settle()
		fs.rt.Fabric().ResetStats()
		if err := fs.request([]byte("measured")); err != nil {
			fs.stop()
			return nil, err
		}
		settle()
		flatStats := fs.rt.Fabric().Stats()
		flatTouched := fs.rt.Fabric().DistinctReceivers()
		fs.stop()

		hs, err := buildHierService(n, fanout, resiliency, nil)
		if err != nil {
			return nil, fmt.Errorf("E1 hier n=%d: %w", n, err)
		}
		if err := hs.request([]byte("warm")); err != nil {
			hs.stop()
			return nil, err
		}
		settle()
		hs.rt.Fabric().ResetStats()
		if err := hs.request([]byte("measured")); err != nil {
			hs.stop()
			return nil, err
		}
		settle()
		hierStats := hs.rt.Fabric().Stats()
		hierTouched := hs.rt.Fabric().DistinctReceivers()
		hs.stop()

		ratio := float64(flatStats.MessagesSent) / float64(maxU64(hierStats.MessagesSent, 1))
		t.AddRow(n, flatStats.MessagesSent, flatTouched, hierStats.MessagesSent, hierTouched, ratio)
	}
	return t, nil
}

// --- E2: traffic growth with client population -------------------------------------

// E2TrafficScaling reproduces "message traffic will grow as the square of
// the number of clients": the service is scaled with demand (one member per
// five clients), every client issues a fixed number of requests, and the
// total message count is compared between the flat and hierarchical
// designs.
func E2TrafficScaling(s Scale) (*metrics.Table, error) {
	clientCounts := []int{10, 20, 40}
	if s == Full {
		clientCounts = []int{10, 25, 50, 100, 200}
	}
	const requestsPerClient = 3
	// A modest fanout keeps several leaves even at the quick scale, so the
	// flat-vs-hierarchical divergence is visible in both sweeps.
	const e2Fanout = 4
	t := metrics.NewTable("E2: total message traffic vs number of clients (service scaled with demand)",
		"clients", "service members", "flat msgs", "hier msgs", "flat msgs/client", "hier msgs/client")
	for _, clients := range clientCounts {
		n := maxInt(4, clients/5)

		fs, err := buildFlatService(n)
		if err != nil {
			return nil, fmt.Errorf("E2 flat clients=%d: %w", clients, err)
		}
		if err := fs.request([]byte("warm")); err != nil {
			fs.stop()
			return nil, err
		}
		settle()
		fs.rt.Fabric().ResetStats()
		for c := 0; c < clients; c++ {
			for r := 0; r < requestsPerClient; r++ {
				if err := fs.request([]byte(fmt.Sprintf("c%d-r%d", c, r))); err != nil {
					fs.stop()
					return nil, err
				}
			}
		}
		settle()
		flatMsgs := fs.rt.Fabric().Stats().MessagesSent
		fs.stop()

		hs, err := buildHierService(n, e2Fanout, minInt(s.hierResiliency(), e2Fanout), nil)
		if err != nil {
			return nil, fmt.Errorf("E2 hier clients=%d: %w", clients, err)
		}
		// Each client keeps its own cached binding, like real workstations.
		clientsHier := make([]*core.Client, clients)
		for c := 0; c < clients; c++ {
			clientsHier[c] = hs.procs[n].NewServiceClient("hier-svc", hs.procs[0].ID())
		}
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		for c := 0; c < clients; c++ { // warm the caches before measuring
			if _, err := clientsHier[c].Request(ctx, []byte("warm")); err != nil {
				cancel()
				hs.stop()
				return nil, err
			}
		}
		settle()
		hs.rt.Fabric().ResetStats()
		for c := 0; c < clients; c++ {
			for r := 0; r < requestsPerClient; r++ {
				if _, err := clientsHier[c].Request(ctx, []byte(fmt.Sprintf("c%d-r%d", c, r))); err != nil {
					cancel()
					hs.stop()
					return nil, err
				}
			}
		}
		cancel()
		settle()
		hierMsgs := hs.rt.Fabric().Stats().MessagesSent
		hs.stop()

		t.AddRow(clients, n, flatMsgs, hierMsgs,
			float64(flatMsgs)/float64(clients), float64(hierMsgs)/float64(clients))
	}
	return t, nil
}

// --- E3: cost of a membership change ------------------------------------------------

// E3MembershipChange reproduces the claim that in flat groups every
// membership change is broadcast to the whole (growing) membership, while in
// hierarchical groups "any single process failure results in a broadcast to
// a bounded number of other processes".
func E3MembershipChange(s Scale) (*metrics.Table, error) {
	t := metrics.NewTable("E3: cost of one member failure vs service size",
		"members", "flat msgs", "flat procs informed", "hier msgs", "hier procs informed")
	for _, n := range s.sizes() {
		if n < 4 {
			continue
		}
		fs, err := buildFlatService(n)
		if err != nil {
			return nil, fmt.Errorf("E3 flat n=%d: %w", n, err)
		}
		settle()
		fs.rt.Fabric().ResetStats()
		// A mid-ranked victim sits inside a filled leaf in the hierarchical
		// configuration, which is the representative single-failure case.
		victim := n / 2
		fs.rt.Crash(fs.procs[victim])
		fs.rt.InjectFailure(fs.procs[victim])
		await(func() bool { return fs.groups[0].Size() == n-1 })
		settle()
		flatStats := fs.rt.Fabric().Stats()
		flatTouched := fs.rt.Fabric().DistinctReceivers()
		fs.stop()

		hs, err := buildHierService(n, s.hierFanout(), s.hierResiliency(), nil)
		if err != nil {
			return nil, fmt.Errorf("E3 hier n=%d: %w", n, err)
		}
		settle()
		hs.rt.Fabric().ResetStats()
		hs.rt.Crash(hs.procs[victim])
		hs.rt.InjectFailure(hs.procs[victim])
		await(func() bool { return hs.agents[0].Tree().TotalMembers() == n-1 })
		settle()
		hierStats := hs.rt.Fabric().Stats()
		hierTouched := hs.rt.Fabric().DistinctReceivers()
		hs.stop()

		t.AddRow(n, flatStats.MessagesSent, flatTouched, hierStats.MessagesSent, hierTouched)
	}
	return t, nil
}

// --- E4: reliability vs size and resiliency -----------------------------------------

// E4Reliability evaluates the analytic availability model: disruption grows
// with flat group size while staying bounded for hierarchical groups, and
// the gain from additional cohorts saturates around five.
func E4Reliability(s Scale) (*metrics.Table, *metrics.Table) {
	p := 0.001 // per-process failure probability during one request window
	leaf, leader := s.hierFanout(), s.hierResiliency()

	t1 := metrics.NewTable(fmt.Sprintf("E4a: probability a request is disturbed by a failure (p=%.4f per process)", p),
		"members", "flat P(disturbed)", "hier P(disturbed)", "flat disruption work", "hier disruption work")
	sizes := s.sizes()
	if s == Quick {
		sizes = []int{10, 50, 100, 250, 500} // analytic, so the full sweep is free
	}
	for _, n := range sizes {
		t1.AddRow(n,
			reliability.PAnyFailure(p, n),
			reliability.PAnyFailure(p, minInt(n, leaf)+leader),
			reliability.DisruptionWorkFlat(p, n),
			reliability.DisruptionWorkHierarchical(p, n, leaf, leader))
	}

	t2 := metrics.NewTable("E4b: request availability vs resiliency (per-replica failure probability 0.05)",
		"resiliency", "availability", "marginal gain", "extra msgs per request")
	for r := 1; r <= 10; r++ {
		t2.AddRow(r,
			reliability.RequestAvailability(0.05, r),
			reliability.MarginalGain(0.05, r-1),
			2*(r-1)) // each extra cohort adds a request copy and a result copy
	}
	return t1, t2
}

// --- E5: whole-group broadcast -------------------------------------------------------

// E5TreeBroadcast compares one flat broadcast to the whole membership with
// the tree-structured broadcast mapped onto the hierarchy, across fanouts.
func E5TreeBroadcast(s Scale) (*metrics.Table, error) {
	sizes := []int{16, 32}
	if s == Full {
		sizes = []int{32, 64, 128, 256}
	}
	fanouts := []int{2, 4, 8, 16}
	t := metrics.NewTable("E5: whole-group broadcast, flat vs tree-structured",
		"members", "design", "fanout", "msgs", "max per-process fanout", "stages (depth)")
	for _, n := range sizes {
		// Flat: one multicast from one member of a flat group of n.
		fs, err := buildFlatService(n)
		if err != nil {
			return nil, fmt.Errorf("E5 flat n=%d: %w", n, err)
		}
		settle()
		fs.rt.Fabric().ResetStats()
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		if err := fs.groups[0].Cast(ctx, types.FIFO, []byte("to-everyone")); err != nil {
			cancel()
			fs.stop()
			return nil, err
		}
		cancel()
		settle()
		st := fs.rt.Fabric().Stats()
		t.AddRow(n, "flat", n-1, st.MessagesSent, fs.rt.Fabric().MaxFanout(), 1)
		fs.stop()

		for _, fanout := range fanouts {
			if fanout > n {
				continue
			}
			hs, err := buildHierService(n, fanout, minInt(3, fanout), nil)
			if err != nil {
				return nil, fmt.Errorf("E5 hier n=%d fanout=%d: %w", n, fanout, err)
			}
			settle()
			depth := hs.agents[0].Tree().Depth() + 1
			hs.rt.Fabric().ResetStats()
			ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
			covered, err := hs.agents[0].Broadcast(ctx, []byte("to-everyone"))
			cancel()
			if err != nil {
				hs.stop()
				return nil, err
			}
			settle()
			st := hs.rt.Fabric().Stats()
			row := fmt.Sprintf("tree (covered %d)", covered)
			t.AddRow(n, row, fanout, st.MessagesSent, hs.rt.Fabric().MaxFanout(), depth)
			hs.stop()
		}
	}
	return t, nil
}

// --- E6: per-process view storage ----------------------------------------------------

// E6ViewStorage reproduces the storage claim: "a complete list of the
// processes in a large group is not explicitly stored anywhere". It charges
// flat and hierarchical designs with the same per-entry costs.
func E6ViewStorage(s Scale) *metrics.Table {
	t := metrics.NewTable("E6: group-view storage per process (bytes)",
		"members", "flat (every member)", "hier member (leaf view)", "hier leader (branch views)", "flat/hier member")
	fanout, resiliency := s.hierFanout(), s.hierResiliency()
	sizes := []int{10, 50, 100, 250, 500, 1000, 5000}
	for _, n := range sizes {
		members := make([]types.ProcessID, n)
		for i := range members {
			members[i] = types.ProcessID{Site: types.SiteID(i + 1)}
		}
		flat := member.NewView(types.FlatGroup("svc"), 1, members).StorageSize()

		// Hierarchical: a member stores only its leaf view; the leader group
		// stores the branch views (children lists), each fanout-bounded.
		leafMembers := members[:minInt(fanout, n)]
		leafView := member.NewView(types.LeafGroup("svc", 0), 1, leafMembers).StorageSize()

		tree := core.NewTree("svc", fanout)
		for i := 0; i < (n+fanout-1)/fanout; i++ {
			l := tree.AddLeaf(members[minInt(i*fanout, n-1)])
			tree.Update(l.ID, minInt(fanout, n-i*fanout), members[minInt(i*fanout, n-1):minInt(i*fanout+resiliency, n)])
		}
		leaderStorage := 0
		for _, bv := range tree.BranchViews() {
			leaderStorage += bv.StorageSize()
		}
		// The leader also stores the leaf contact lists (resiliency entries
		// per leaf), charged at the same per-entry rate as flat views.
		leaderStorage += tree.LeafCount() * resiliency * 12

		t.AddRow(n, flat, leafView, leaderStorage, float64(flat)/float64(leafView))
	}
	return t
}

// --- E7: trading-room workload --------------------------------------------------------

// E7TradingRoom drives the paper's trading-floor scenario: many analyst
// workstations issuing requests with a sub-second deadline against the quote
// service, comparing flat and hierarchical service organisations.
func E7TradingRoom(s Scale) (*metrics.Table, error) {
	stations := []int{20, 40}
	serviceSize := 12
	if s == Full {
		stations = []int{100, 250, 500}
		serviceSize = 30
	}
	t := metrics.NewTable("E7: trading room — request latency and deadline misses",
		"workstations", "design", "requests", "p50", "p99", "deadline misses", "errors", "msgs/request")

	for _, w := range stations {
		cfg := workload.TradingConfig{Workstations: w, RequestsPerClient: 3, Symbols: 64, Deadline: time.Second, Seed: 42}
		streams := workload.TradingStreams(cfg)

		// Flat service.
		fs, err := buildFlatService(serviceSize)
		if err != nil {
			return nil, fmt.Errorf("E7 flat w=%d: %w", w, err)
		}
		fs.rt.Fabric().ResetStats()
		driver := workload.Driver{Deadline: cfg.Deadline, Concurrency: 16, PerRequestTimeout: opTimeout}
		res := driver.Run(context.Background(), streams, func(int) workload.RequestFunc {
			return func(ctx context.Context, payload []byte) ([]byte, error) {
				return fs.client.Request(ctx, payload)
			}
		})
		msgs := fs.rt.Fabric().Stats().MessagesSent
		t.AddRow(w, "flat", res.Requests, res.Latency.Percentile(50), res.Latency.Percentile(99),
			res.DeadlineMiss, res.Errors, float64(msgs)/float64(maxInt(res.Requests, 1)))
		fs.stop()

		// Hierarchical service: every workstation is its own client with its
		// own cached leaf binding.
		hs, err := buildHierService(serviceSize, s.hierFanout(), s.hierResiliency(), nil)
		if err != nil {
			return nil, fmt.Errorf("E7 hier w=%d: %w", w, err)
		}
		clients := make([]*core.Client, w)
		for i := range clients {
			clients[i] = hs.procs[serviceSize].NewServiceClient("hier-svc", hs.procs[0].ID())
		}
		hs.rt.Fabric().ResetStats()
		res = driver.Run(context.Background(), streams, func(client int) workload.RequestFunc {
			return func(ctx context.Context, payload []byte) ([]byte, error) {
				return clients[client].Request(ctx, payload)
			}
		})
		msgs = hs.rt.Fabric().Stats().MessagesSent
		t.AddRow(w, "hier", res.Requests, res.Latency.Percentile(50), res.Latency.Percentile(99),
			res.DeadlineMiss, res.Errors, float64(msgs)/float64(maxInt(res.Requests, 1)))
		hs.stop()
	}
	return t, nil
}

// --- E8: split / merge reorganisation ---------------------------------------------------

// E8SplitMerge measures the leader's subgroup maintenance: the cost of the
// reorganisation caused by membership churn (failures that shrink a leaf
// below the minimum size and force a merge) and the resulting leaf-size
// distribution.
func E8SplitMerge(s Scale) (*metrics.Table, error) {
	n := 20
	if s == Full {
		n = 60
	}
	fanout, resiliency := 4, 2
	t := metrics.NewTable("E8: subgroup reorganisation under churn",
		"phase", "members", "leaves", "min leaf", "max leaf", "msgs in phase")

	hs, err := buildHierService(n, fanout, resiliency, nil)
	if err != nil {
		return nil, err
	}
	defer hs.stop()

	snapshot := func(phase string, msgs uint64) {
		tree := hs.agents[0].Tree()
		minLeaf, maxLeaf := 1<<30, 0
		for _, l := range tree.Leaves {
			if l.Size < minLeaf {
				minLeaf = l.Size
			}
			if l.Size > maxLeaf {
				maxLeaf = l.Size
			}
		}
		if tree.LeafCount() == 0 {
			minLeaf = 0
		}
		t.AddRow(phase, tree.TotalMembers(), tree.LeafCount(), minLeaf, maxLeaf, msgs)
	}
	snapshot("initial", 0)

	// Churn: one failure in an early leaf (making room there), then failures
	// in the last leaf until it drops below the minimum size, forcing the
	// leader to merge its survivor into the sibling with spare capacity.
	tree := hs.agents[0].Tree()
	victimLeaf := tree.Leaves[len(tree.Leaves)-1]
	firstLeaf := tree.Leaves[0]
	killed := 0
	hs.rt.Fabric().ResetStats()
	for i := 1; i < n; i++ { // skip the founder
		if hs.agents[i] == nil {
			continue
		}
		leaf := hs.agents[i].Leaf()
		if leaf != nil && leaf.ID().Equal(firstLeaf.ID) {
			hs.rt.Crash(hs.procs[i])
			hs.rt.InjectFailure(hs.procs[i])
			hs.agents[i] = nil
			killed++
			break
		}
	}
	for i := n - 1; i >= 0 && killed < victimLeaf.Size; i-- {
		if hs.agents[i] == nil {
			continue
		}
		leaf := hs.agents[i].Leaf()
		if leaf == nil || !leaf.ID().Equal(victimLeaf.ID) {
			continue
		}
		hs.rt.Crash(hs.procs[i])
		hs.rt.InjectFailure(hs.procs[i])
		hs.agents[i] = nil
		killed++
	}
	await(func() bool {
		tr := hs.agents[0].Tree()
		return tr.TotalMembers() <= n-killed && tr.LeafCount() < tree.LeafCount()
	})
	settle()
	snapshot(fmt.Sprintf("after %d failures + merge", killed), hs.rt.Fabric().Stats().MessagesSent)

	// Grow the service back: new processes join and the leader places them
	// into (or creates) leaves, restoring the size distribution.
	hs.rt.Fabric().ResetStats()
	added := 0
	for i := 0; i < killed+2; i++ {
		p, err := hs.rt.Spawn()
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		_, err = p.JoinService(ctx, "hier-svc", hs.procs[0].ID(), core.Config{
			Fanout: fanout, Resiliency: resiliency,
			RequestHandler: func(b []byte) []byte { return b },
		})
		cancel()
		if err != nil {
			return nil, fmt.Errorf("E8 regrow join: %w", err)
		}
		added++
	}
	settle()
	snapshot(fmt.Sprintf("after %d joins (regrow)", added), hs.rt.Fabric().Stats().MessagesSent)

	if err := hs.agents[0].Tree().CheckInvariants(); err != nil {
		return nil, fmt.Errorf("E8: tree invariants violated after churn: %w", err)
	}
	return t, nil
}

// --- ablations ---------------------------------------------------------------------------

// A1Fanout sweeps the fanout parameter for a fixed service size, showing the
// latency/message trade-off the parameter controls.
func A1Fanout(s Scale) (*metrics.Table, error) {
	n := 24
	if s == Full {
		n = 64
	}
	t := metrics.NewTable("A1 (ablation): fanout sweep at fixed service size",
		"members", "fanout", "leaves", "tree depth", "broadcast msgs", "request msgs")
	for _, fanout := range []int{2, 4, 8, 16} {
		hs, err := buildHierService(n, fanout, minInt(3, fanout), nil)
		if err != nil {
			return nil, err
		}
		depth := hs.agents[0].Tree().Depth() + 1
		leaves := hs.agents[0].Tree().LeafCount()

		hs.rt.Fabric().ResetStats()
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		if _, err := hs.agents[0].Broadcast(ctx, []byte("x")); err != nil {
			cancel()
			hs.stop()
			return nil, err
		}
		cancel()
		settle()
		bcastMsgs := hs.rt.Fabric().Stats().MessagesSent

		if err := hs.request([]byte("warm")); err != nil {
			hs.stop()
			return nil, err
		}
		settle()
		hs.rt.Fabric().ResetStats()
		if err := hs.request([]byte("measured")); err != nil {
			hs.stop()
			return nil, err
		}
		settle()
		reqMsgs := hs.rt.Fabric().Stats().MessagesSent
		hs.stop()

		t.AddRow(n, fanout, leaves, depth, bcastMsgs, reqMsgs)
	}
	return t, nil
}

// A2Resiliency sweeps the resiliency parameter: per-request cost grows with
// each extra cohort while the availability gain saturates (paper: "no
// practical advantage to having more than perhaps five cohorts").
func A2Resiliency(s Scale) (*metrics.Table, error) {
	n := 16
	if s == Full {
		n = 32
	}
	t := metrics.NewTable("A2 (ablation): resiliency sweep",
		"resiliency", "request msgs", "request availability (p=0.05)", "marginal gain")
	for _, r := range []int{1, 2, 3, 5, 8} {
		if r > 8 {
			continue
		}
		hs, err := buildHierService(n, 8, r, nil)
		if err != nil {
			return nil, err
		}
		if err := hs.request([]byte("warm")); err != nil {
			hs.stop()
			return nil, err
		}
		settle()
		hs.rt.Fabric().ResetStats()
		if err := hs.request([]byte("measured")); err != nil {
			hs.stop()
			return nil, err
		}
		settle()
		msgs := hs.rt.Fabric().Stats().MessagesSent
		hs.stop()
		t.AddRow(r, msgs, reliability.RequestAvailability(0.05, r), reliability.MarginalGain(0.05, r-1))
	}
	return t, nil
}

// A3Ordering compares the per-multicast cost of the three ISIS ordering
// primitives in one small group.
func A3Ordering(s Scale) (*metrics.Table, error) {
	n := 8
	t := metrics.NewTable("A3 (ablation): ordering protocol cost in one small group",
		"ordering", "members", "msgs per multicast")
	for _, o := range []types.Ordering{types.FIFO, types.Causal, types.Total} {
		fs, err := buildFlatService(n)
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		if err := fs.groups[1].Cast(ctx, o, []byte("warm")); err != nil {
			cancel()
			fs.stop()
			return nil, err
		}
		settle()
		fs.rt.Fabric().ResetStats()
		const casts = 5
		for i := 0; i < casts; i++ {
			if err := fs.groups[1].Cast(ctx, o, []byte("measured")); err != nil {
				cancel()
				fs.stop()
				return nil, err
			}
		}
		cancel()
		settle()
		msgs := fs.rt.Fabric().Stats().MessagesSent
		fs.stop()
		t.AddRow(o.String(), n, float64(msgs)/casts)
	}
	return t, nil
}

// --- small helpers ------------------------------------------------------------------------

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
