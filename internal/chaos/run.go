package chaos

import (
	"context"
	"encoding/binary"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	isis "repro"
	"repro/internal/netsim"
	"repro/internal/reliability"
	"repro/internal/types"
)

// GroupName returns the workload group name for an ordering ("chaos-fbcast",
// "chaos-cbcast", "chaos-abcast").
func GroupName(o types.Ordering) string { return "chaos-" + o.String() }

// Result is the outcome of one scenario run.
type Result struct {
	Scenario Scenario
	Hash     string
	Elapsed  time.Duration

	CastsIssued  int
	Deliveries   int
	ViewsApplied int
	Crashes      int
	Restarts     int
	JoinFailures int
	Stats        netsim.Stats
	// Rel sums the reliability layer's recovery counters (NAKs, flush
	// forwarding, failover re-announcements) over every process still
	// running at the end of the scenario.
	Rel reliability.Stats

	Violations []Violation
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// String renders a one-line result summary.
func (r *Result) String() string {
	status := "ok"
	if r.Failed() {
		status = fmt.Sprintf("FAIL (%d violations)", len(r.Violations))
	}
	return fmt.Sprintf("%s — casts=%d deliveries=%d views=%d crashes=%d restarts=%d dup=%d reord=%d dropped=%d naks=%d/%d fwd=%d reann=%d %s in %v",
		r.Scenario.Summary(), r.CastsIssued, r.Deliveries, r.ViewsApplied, r.Crashes, r.Restarts,
		r.Stats.MessagesDuplicated, r.Stats.MessagesReordered, r.Stats.MessagesDropped,
		r.Rel.NaksSent, r.Rel.NaksServed, r.Rel.Forwarded, r.Rel.Reannounced,
		status, r.Elapsed.Round(time.Millisecond))
}

// slot is one scenario node position: the process currently occupying it
// (restarts replace the occupant) and its group memberships.
type slot struct {
	mu     sync.Mutex
	gen    int // bumped on crash and restart; stale joins check it
	proc   *isis.Process
	hist   *History
	groups []*isis.Group // parallel to Profile.Orderings; nil while down
}

func (s *slot) liveGroups() []*isis.Group {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.groups == nil {
		return nil
	}
	return append([]*isis.Group(nil), s.groups...)
}

// compile lowers a scenario to a netsim fault plan (everything except
// restarts, which the runner handles above the network layer) by resolving
// node slots to the concrete ProcessID occupying each slot at each step.
// Slot occupancy is fully predictable: initial spawns take sites 1..Nodes in
// order and the i'th restart takes site Nodes+i, mirroring the facade's
// sequential site assignment.
func compile(s Scenario) (plan []netsim.FaultEvent, restarts []Event) {
	slotPID := make([]types.ProcessID, s.Profile.Nodes)
	alive := make([]bool, s.Profile.Nodes)
	for i := range slotPID {
		slotPID[i] = isis.Site(uint32(i + 1))
		alive[i] = true
	}
	base := s.Profile.Nodes
	if s.Profile.Service {
		base++ // service scenarios spawn the client at site Nodes+1
	}
	restartN := 0
	for _, e := range s.Events {
		switch e.Kind {
		case EvCrash:
			plan = append(plan, netsim.FaultEvent{Step: e.Step, Kind: netsim.FaultCrash, Proc: slotPID[e.Node]})
			alive[e.Node] = false
		case EvRestart:
			restartN++
			slotPID[e.Node] = isis.Site(uint32(base + restartN))
			alive[e.Node] = true
			restarts = append(restarts, e)
		case EvFullRestart:
			// Every live slot power-fails at once, then every slot (already-
			// crashed ones included) restarts with a fresh site. The runner
			// respawns in slot order, mirroring the site assignments here.
			for i := range slotPID {
				if alive[i] {
					plan = append(plan, netsim.FaultEvent{Step: e.Step, Kind: netsim.FaultCrash, Proc: slotPID[i]})
				}
				restartN++
				slotPID[i] = isis.Site(uint32(base + restartN))
				alive[i] = true
			}
		case EvPartition:
			plan = append(plan, netsim.FaultEvent{Step: e.Step, Kind: netsim.FaultPartition, Proc: slotPID[e.Node], Partition: e.Side})
		case EvHeal:
			plan = append(plan, netsim.FaultEvent{Step: e.Step, Kind: netsim.FaultHeal})
		case EvLoss:
			plan = append(plan, netsim.FaultEvent{Step: e.Step, Kind: netsim.FaultLoss, Rate: e.Rate})
		case EvDelay:
			plan = append(plan, netsim.FaultEvent{Step: e.Step, Kind: netsim.FaultDelay, Base: e.Base, Jitter: e.Jit})
		case EvDup:
			plan = append(plan, netsim.FaultEvent{Step: e.Step, Kind: netsim.FaultDuplicate, Rate: e.Rate})
		case EvReorder:
			plan = append(plan, netsim.FaultEvent{Step: e.Step, Kind: netsim.FaultReorder, Rate: e.Rate, Base: e.Base})
		}
	}
	return plan, restarts
}

// Run executes one scenario end to end: builds the simulated cluster and
// the workload groups, drives the fault timeline and the concurrent
// multicast workload, waits for the system to quiesce, and checks every
// invariant over the recorded histories. The returned error covers harness
// failures (the cluster could not even be built); invariant breaches are
// reported in Result.Violations.
func Run(s Scenario) (*Result, error) {
	if s.Profile.Service {
		return runService(s)
	}
	if s.Profile.Stateful {
		return runStateful(s)
	}
	p := s.Profile
	start := time.Now()
	res := &Result{Scenario: s, Hash: s.Hash()}

	plan, _ := compile(s) // restarts are driven from the event loop below
	rt := isis.NewSimulated(
		isis.WithNetwork(isis.NetworkConfig{Seed: s.Seed + 1, QueueLen: 1 << 14}),
		isis.WithFaultPlan(plan...),
	)
	defer rt.Shutdown()

	rec := newRecorder()
	attach := func(proc *isis.Process) *History {
		h := NewHistory(proc.ID())
		proc.ObserveGroups(isis.GroupObserver{OnView: h.OnView, OnDeliver: h.OnDeliver})
		rec.add(h)
		return h
	}

	// Initial topology: Nodes processes, one group per ordering, everyone a
	// member of every group.
	slots := make([]*slot, p.Nodes)
	for i := range slots {
		proc, err := rt.Spawn()
		if err != nil {
			return nil, fmt.Errorf("chaos: spawn node %d: %w", i, err)
		}
		slots[i] = &slot{proc: proc, hist: attach(proc)}
	}
	setupCtx, cancelSetup := context.WithTimeout(context.Background(), p.SettleTimeout)
	defer cancelSetup()
	for _, o := range p.Orderings {
		name := GroupName(o)
		g, err := slots[0].proc.CreateGroup(name, isis.GroupConfig{})
		if err != nil {
			return nil, fmt.Errorf("chaos: create %s: %w", name, err)
		}
		slots[0].groups = append(slots[0].groups, g)
		for i := 1; i < p.Nodes; i++ {
			g, err := slots[i].proc.JoinGroup(setupCtx, name, slots[0].proc.ID(), isis.GroupConfig{})
			if err != nil {
				return nil, fmt.Errorf("chaos: node %d join %s: %w", i, name, err)
			}
			slots[i].groups = append(slots[i].groups, g)
		}
	}
	// Wait until every member sees the full initial membership, so the
	// timeline starts from one agreed view per group.
	for _, sl := range slots {
		for _, g := range sl.groups {
			g := g
			if err := isis.Await(setupCtx, func() bool { return g.Size() == p.Nodes }); err != nil {
				return nil, fmt.Errorf("chaos: initial convergence: %w", err)
			}
		}
	}

	// Timeline: at each step apply the step's faults, run the workload on
	// every live member, then pace.
	eventsAt := make(map[int][]Event)
	for _, e := range s.Events {
		eventsAt[e.Step] = append(eventsAt[e.Step], e)
	}
	var wg sync.WaitGroup
	var joinFailures atomic.Int64
	runDeadline := time.Now().Add(time.Duration(p.Steps)*p.StepInterval + p.SettleTimeout)
	joinCtx, cancelJoins := context.WithDeadline(context.Background(), runDeadline)
	defer cancelJoins()

	for step := 0; step < p.Steps; step++ {
		rt.StepFaults(step)
		for _, e := range eventsAt[step] {
			switch e.Kind {
			case EvCrash:
				sl := slots[e.Node]
				sl.mu.Lock()
				sl.gen++
				sl.groups = nil
				sl.hist.MarkCrashed()
				sl.mu.Unlock()
				res.Crashes++
			case EvRestart:
				res.Restarts++
				sl := slots[e.Node]
				proc, err := rt.Spawn()
				if err != nil {
					joinFailures.Add(1)
					continue
				}
				h := attach(proc)
				sl.mu.Lock()
				sl.gen++
				gen := sl.gen
				sl.proc, sl.hist = proc, h
				sl.mu.Unlock()
				// Rejoining can block on in-flight view changes, so it runs
				// off the timeline; the slot only becomes a workload sender
				// once every join has landed (and is discarded if the slot
				// crashed again meanwhile).
				contact := firstLivePID(slots, e.Node)
				wg.Add(1)
				go func() {
					defer wg.Done()
					groups := make([]*isis.Group, 0, len(p.Orderings))
					for _, o := range p.Orderings {
						g, err := proc.JoinGroup(joinCtx, GroupName(o), contact, isis.GroupConfig{})
						if err != nil {
							joinFailures.Add(1)
							return
						}
						groups = append(groups, g)
					}
					sl.mu.Lock()
					if sl.gen == gen {
						sl.groups = groups
					}
					sl.mu.Unlock()
				}()
			}
		}

		// Workload: every live member casts in every group.
		for _, sl := range slots {
			gs := sl.liveGroups()
			if gs == nil {
				continue
			}
			sl.mu.Lock()
			site := uint32(sl.proc.ID().Site)
			sl.mu.Unlock()
			for gi, g := range gs {
				o := p.Orderings[gi]
				for k := 0; k < p.CastsPerStep; k++ {
					g.CastAsync(o, castPayload(site, o, step, k))
					res.CastsIssued++
				}
			}
		}
		time.Sleep(p.StepInterval)
	}

	// Settle: close out any still-open faults, let in-flight joins finish or
	// time out, and wait for the event stream to go quiet.
	rt.StepFaults(p.Steps)
	settle := quiesce(rec.eventCounts, nil, p)
	cancelJoins()
	wg.Wait()
	if v := quiesce(rec.eventCounts, nil, p); settle == nil {
		settle = v
	}

	res.Stats = rt.Stats()
	for _, proc := range rt.Processes() {
		if !proc.Stopped() {
			res.Rel.Add(proc.ReliabilityStats())
		}
	}
	rt.Shutdown()
	res.JoinFailures = int(joinFailures.Load())

	hists := rec.histories()
	for _, h := range hists {
		views, deliveries := h.Counts()
		res.Deliveries += deliveries
		res.ViewsApplied += views
	}
	orderings := make(map[string]types.Ordering, len(p.Orderings))
	for _, o := range p.Orderings {
		orderings[types.FlatGroup(GroupName(o)).Key()] = o
	}
	res.Violations = CheckHistories(hists, orderings)
	if settle != nil {
		res.Violations = append(res.Violations, *settle)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// firstLivePID picks a join contact: the first slot (other than skip) that
// currently has live group memberships, falling back to slot 0's process.
func firstLivePID(slots []*slot, skip int) types.ProcessID {
	for i, sl := range slots {
		if i == skip {
			continue
		}
		sl.mu.Lock()
		ok := sl.groups != nil
		pid := sl.proc.ID()
		sl.mu.Unlock()
		if ok {
			return pid
		}
	}
	return slots[0].proc.ID()
}

// castPayload builds the deterministic workload payload for one cast.
func castPayload(site uint32, o types.Ordering, step, k int) []byte {
	b := make([]byte, 13)
	binary.BigEndian.PutUint32(b[0:], site)
	b[4] = byte(o)
	binary.BigEndian.PutUint32(b[5:], uint32(step))
	binary.BigEndian.PutUint32(b[9:], uint32(k))
	return b
}

// quiesce waits until no group's event count (views plus deliveries, per
// group key) has moved for a quiet period. The quiet floor must comfortably
// exceed the reliability layer's recovery cadence (NAK timer, flush retry,
// stability reports — tens of milliseconds): declaring the run settled
// between two recovery rounds would snapshot histories mid-repair and report
// divergence the protocol was about to close, which is exactly what happens
// under heavy -race parallelism if the floor is tight.
//
// pending, when not nil, names work still in flight that produces no events
// while it waits (a service member between leaves); the run is not quiet
// until it is empty.
//
// It returns nil once the run is quiet. If the settle timeout expires first,
// it returns a settle-timeout violation naming the groups whose counts still
// moved in the last quiet window, and the pending work: the histories the
// checkers are about to grade are still live.
func quiesce(counts func() map[string]int, pending func() []string, p Profile) *Violation {
	quiet := max(5*p.StepInterval, 250*time.Millisecond)
	const polls = 5
	deadline := time.Now().Add(p.SettleTimeout)
	last, lastChange := counts(), time.Now()
	window := []map[string]int{last} // the last quiet window's polls, oldest first
	for time.Now().Before(deadline) {
		time.Sleep(quiet / polls)
		n := counts()
		if window = append(window, n); len(window) > polls+1 {
			window = window[1:]
		}
		if !maps.Equal(n, last) {
			last, lastChange = n, time.Now()
			continue
		}
		if time.Since(lastChange) >= quiet && (pending == nil || len(pending()) == 0) {
			return nil
		}
	}
	var moved []string
	for k, n := range last {
		if d := n - window[0][k]; d > 0 {
			moved = append(moved, fmt.Sprintf("%s +%d", k, d))
		}
	}
	sort.Strings(moved)
	if pending != nil {
		moved = append(moved, pending()...)
	}
	return &Violation{Check: "settle-timeout",
		Detail: fmt.Sprintf("no %v without events within %v; still moving: %s",
			quiet, p.SettleTimeout, strings.Join(moved, ", "))}
}
