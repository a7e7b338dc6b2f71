package chaos

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	isis "repro"
	"repro/internal/core"
	"repro/internal/types"
)

// This file is the hierarchy half of the harness: service scenarios drive
// one hierarchical large group (leaf subgroups, leader group, tree-structured
// broadcast) through the same seeded fault timeline the flat runner uses,
// while the workload issues tree broadcasts from every member and leaf-routed
// client requests. On top of the flat-group invariants (which still apply to
// the hierarchy's internal leaf and leader groups), the service checkers
// verify:
//
//   - exactly-once tree delivery: no incarnation delivers the same broadcast
//     twice, and nothing is delivered that was never issued;
//   - completeness: every broadcast successfully issued by a member that
//     survives the run reaches every member that was fully placed before the
//     broadcast and never crashed — representative crashes, leader failover,
//     frame loss and partitions included (the NAK/retransmit recovery layer
//     is what makes this checkable);
//   - request integrity: every leaf-routed request that gets a reply gets
//     the handler's reply, and the service answers again once faults heal;
//   - leader agreement: surviving leader members hold identical subgroup
//     trees that satisfy the tree invariants and cover every surviving
//     member's leaf.

// serviceName is the hierarchical large group every service scenario drives.
const serviceName = "chaos-svc"

// joinPending marks an incarnation whose JoinService has not completed; it
// keeps the incarnation ineligible for every completeness window.
const joinPending = 1 << 30

// svcIncarnation is one process incarnation participating in the service
// (restarts create fresh incarnations). The delivery ledger and placement
// step are what the hierarchy checkers grade.
type svcIncarnation struct {
	slot int
	proc *isis.Process
	hist *History

	mu         sync.Mutex
	agent      *isis.Service // nil until the join lands
	joinedStep int           // step at which placement completed; -2 for initial members
	crashed    bool
	delivered  map[string]int // tree-broadcast payload → delivery count
}

func (inc *svcIncarnation) noteBroadcast(payload []byte) {
	inc.mu.Lock()
	inc.delivered[string(payload)]++
	inc.mu.Unlock()
}

func (inc *svcIncarnation) ready() *isis.Service {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.agent
}

func (inc *svcIncarnation) isCrashed() bool {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.crashed
}

// bcastRec is one issued tree broadcast in the harness ledger.
type bcastRec struct {
	payload string
	origin  *svcIncarnation
	step    int
	ok      bool // Broadcast returned nil
	flush   bool // issued in the post-timeline flush round on a clean network
}

// runService executes one hierarchy scenario end to end; Run dispatches here
// when the profile has Service set.
func runService(s Scenario) (*Result, error) {
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
	var incsMu sync.Mutex
	var incs []*svcIncarnation
	newIncarnation := func(slotIdx int, proc *isis.Process, joinedStep int) *svcIncarnation {
		inc := &svcIncarnation{slot: slotIdx, proc: proc, joinedStep: joinedStep, delivered: make(map[string]int)}
		h := NewHistory(proc.ID())
		proc.ObserveGroups(isis.GroupObserver{OnView: h.OnView, OnDeliver: h.OnDeliver})
		rec.add(h)
		inc.hist = h
		incsMu.Lock()
		incs = append(incs, inc)
		incsMu.Unlock()
		return inc
	}
	snapshotIncs := func() []*svcIncarnation {
		incsMu.Lock()
		defer incsMu.Unlock()
		return append([]*svcIncarnation(nil), incs...)
	}
	svcCfg := func(inc *svcIncarnation) isis.ServiceConfig {
		return isis.ServiceConfig{
			Fanout:     p.ServiceFanout,
			Resiliency: p.ServiceResiliency,
			LeaderSize: 3, // > MaxCrashes so a leader always survives; replenishment refills the rest

			OpTimeout:        2 * time.Second,
			RecoveryInterval: 15 * time.Millisecond,
			NakTicks:         2,
			StageRetryTicks:  3,
			StageRetries:     4,
			RequestHandler:   func(pl []byte) []byte { return append([]byte("echo:"), pl...) },
			OnBroadcast:      inc.noteBroadcast,
		}
	}

	// Harness-observed violations (request integrity, availability, flush).
	var vioMu sync.Mutex
	var vioCaps map[string]int
	var runtimeViolations []Violation
	report := func(v Violation) {
		vioMu.Lock()
		defer vioMu.Unlock()
		if vioCaps == nil {
			vioCaps = make(map[string]int)
		}
		if vioCaps[v.Check] >= maxViolationsPerCheck {
			return
		}
		vioCaps[v.Check]++
		runtimeViolations = append(runtimeViolations, v)
	}

	// slots track which incarnation currently occupies each scenario node.
	type svcSlot struct {
		mu  sync.Mutex
		gen int
		inc *svcIncarnation // nil while the slot is down
	}
	slots := make([]*svcSlot, p.Nodes)
	for i := range slots {
		slots[i] = &svcSlot{}
	}

	setupCtx, cancelSetup := context.WithTimeout(context.Background(), p.SettleTimeout)
	defer cancelSetup()
	var entry types.ProcessID
	for i := range slots {
		proc, err := rt.Spawn()
		if err != nil {
			return nil, fmt.Errorf("chaos: spawn node %d: %w", i, err)
		}
		inc := newIncarnation(i, proc, -2)
		var agent *isis.Service
		if i == 0 {
			entry = proc.ID()
			agent, err = proc.CreateService(serviceName, svcCfg(inc))
		} else {
			agent, err = proc.JoinService(setupCtx, serviceName, entry, svcCfg(inc))
		}
		if err != nil {
			return nil, fmt.Errorf("chaos: node %d enter service: %w", i, err)
		}
		inc.mu.Lock()
		inc.agent = agent
		inc.mu.Unlock()
		slots[i].inc = inc
	}
	founder := slots[0].inc
	// Wait until the leader tree covers everyone, so the timeline starts
	// from one fully placed hierarchy.
	if err := isis.Await(setupCtx, func() bool {
		return founder.ready().Tree().TotalMembers() == p.Nodes
	}); err != nil {
		return nil, fmt.Errorf("chaos: initial placement: %w", err)
	}

	// The request client is a non-member process; it spawns after the
	// initial members so restart site numbering stays aligned with compile.
	clientProc, err := rt.Spawn()
	if err != nil {
		return nil, fmt.Errorf("chaos: spawn client: %w", err)
	}
	client := clientProc.NewServiceClient(serviceName, entry)
	client.AttemptTimeout = 400 * time.Millisecond

	liveContact := func(skip int) types.ProcessID {
		for i, sl := range slots {
			if i == skip {
				continue
			}
			sl.mu.Lock()
			inc := sl.inc
			sl.mu.Unlock()
			if inc != nil && inc.ready() != nil {
				return inc.proc.ID()
			}
		}
		return founder.proc.ID()
	}

	// Timeline.
	eventsAt := make(map[int][]Event)
	for _, e := range s.Events {
		eventsAt[e.Step] = append(eventsAt[e.Step], e)
	}
	var ledgerMu sync.Mutex
	var ledger []bcastRec
	var wg sync.WaitGroup
	var joinFailures atomic.Int64
	var curStep atomic.Int64
	runDeadline := time.Now().Add(time.Duration(p.Steps)*p.StepInterval + p.SettleTimeout)
	workCtx, cancelWork := context.WithDeadline(context.Background(), runDeadline)
	defer cancelWork()

	for step := 0; step < p.Steps; step++ {
		curStep.Store(int64(step))
		rt.StepFaults(step)
		for _, e := range eventsAt[step] {
			switch e.Kind {
			case EvCrash:
				sl := slots[e.Node]
				sl.mu.Lock()
				sl.gen++
				if sl.inc != nil {
					sl.inc.mu.Lock()
					sl.inc.crashed = true
					sl.inc.mu.Unlock()
					sl.inc.hist.MarkCrashed()
					sl.inc = nil
				}
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
				inc := newIncarnation(e.Node, proc, joinPending)
				sl.mu.Lock()
				sl.gen++
				gen := sl.gen
				sl.inc = inc
				sl.mu.Unlock()
				contact := liveContact(e.Node)
				wg.Add(1)
				go func() {
					defer wg.Done()
					agent, err := proc.JoinService(workCtx, serviceName, contact, svcCfg(inc))
					if err != nil {
						joinFailures.Add(1)
						sl.mu.Lock()
						if sl.gen == gen && sl.inc == inc {
							sl.inc = nil
						}
						sl.mu.Unlock()
						return
					}
					inc.mu.Lock()
					inc.agent = agent
					inc.joinedStep = int(curStep.Load())
					inc.mu.Unlock()
				}()
			}
		}

		// Workload: every placed member issues tree broadcasts…
		for _, sl := range slots {
			sl.mu.Lock()
			inc := sl.inc
			sl.mu.Unlock()
			if inc == nil {
				continue
			}
			agent := inc.ready()
			if agent == nil {
				continue
			}
			for k := 0; k < p.BroadcastsPerStep; k++ {
				payload := fmt.Sprintf("bc|%d|%d|%d", inc.proc.ID().Site, step, k)
				res.CastsIssued++
				wg.Add(1)
				go func(inc *svcIncarnation, agent *isis.Service, payload string, step int) {
					defer wg.Done()
					_, err := agent.Broadcast(workCtx, []byte(payload))
					ledgerMu.Lock()
					ledger = append(ledger, bcastRec{payload: payload, origin: inc, step: step, ok: err == nil})
					ledgerMu.Unlock()
				}(inc, agent, payload, step)
			}
		}
		// …and the client issues leaf-routed requests.
		for k := 0; k < p.RequestsPerStep; k++ {
			payload := fmt.Sprintf("rq|%d|%d", step, k)
			res.CastsIssued++
			wg.Add(1)
			go func(payload string) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(workCtx, 3*time.Second)
				defer cancel()
				reply, err := client.Request(ctx, []byte(payload))
				if err != nil {
					// Failing cleanly under faults is allowed; retarget the
					// entry so later requests can route around a crashed
					// entry process.
					client.SetEntry(liveContact(-1))
					return
				}
				if string(reply) != "echo:"+payload {
					report(Violation{Check: "request-integrity", Group: serviceName,
						Detail: fmt.Sprintf("request %q answered %q, want %q", payload, reply, "echo:"+payload)})
				}
			}(payload)
		}
		time.Sleep(p.StepInterval)
	}

	// Settle: close remaining faults, wait out in-flight work, then flush.
	rt.StepFaults(p.Steps)
	wg.Wait()

	// Flush round: one broadcast per surviving member on the now-clean
	// network. Gap detection is per origin, so each origin's flush is what
	// exposes its own trailing losses to the NAK path before checking.
	flushCtx, cancelFlush := context.WithTimeout(context.Background(), p.SettleTimeout)
	defer cancelFlush()
	var fwg sync.WaitGroup
	for _, sl := range slots {
		sl.mu.Lock()
		inc := sl.inc
		sl.mu.Unlock()
		if inc == nil {
			continue
		}
		agent := inc.ready()
		if agent == nil {
			continue
		}
		payload := fmt.Sprintf("flush|%d", inc.proc.ID().Site)
		res.CastsIssued++
		fwg.Add(1)
		go func(inc *svcIncarnation, agent *isis.Service, payload string) {
			defer fwg.Done()
			_, err := agent.Broadcast(flushCtx, []byte(payload))
			ledgerMu.Lock()
			ledger = append(ledger, bcastRec{payload: payload, origin: inc, step: p.Steps, ok: err == nil, flush: true})
			ledgerMu.Unlock()
			if err != nil {
				report(Violation{Check: "flush-broadcast", Group: serviceName, Proc: inc.proc.ID(),
					Detail: fmt.Sprintf("post-heal broadcast failed: %v", err)})
			}
		}(inc, agent, payload)
	}
	fwg.Wait()

	countEvents := func() map[string]int {
		counts := rec.eventCounts()
		for _, inc := range snapshotIncs() {
			inc.mu.Lock()
			for _, c := range inc.delivered {
				counts[serviceName+"[broadcast]"] += c
			}
			inc.mu.Unlock()
		}
		return counts
	}
	// A member relocating between leaves can wait out a join timeout without
	// a single event.
	betweenLeaves := func() []string {
		var out []string
		for _, inc := range snapshotIncs() {
			if a := inc.ready(); a != nil && !inc.isCrashed() {
				if l := a.Leaf(); l == nil || l.Closed() {
					out = append(out, fmt.Sprintf("%v between leaves", inc.proc.ID()))
				}
			}
		}
		return out
	}
	if v := quiesce(countEvents, betweenLeaves, p); v != nil {
		report(*v)
	}

	// Post-heal availability: with every fault closed, the service must
	// answer a leaf-routed request again.
	served := false
	for try := 0; try < 5 && !served; try++ {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		reply, err := client.Request(ctx, []byte("final"))
		cancel()
		if err == nil && string(reply) == "echo:final" {
			served = true
			break
		}
		client.SetEntry(liveContact(-1))
	}
	if !served {
		report(Violation{Check: "request-availability", Group: serviceName,
			Detail: "no leaf answered a request after all faults healed"})
	}

	res.Stats = rt.Stats()
	allIncs := snapshotIncs()
	for _, proc := range rt.Processes() {
		if !proc.Stopped() {
			res.Rel.Add(proc.ReliabilityStats())
		}
	}
	for _, inc := range allIncs {
		if a := inc.ready(); a != nil && !inc.isCrashed() {
			res.Rel.Add(a.RecoveryStats())
		}
	}
	res.JoinFailures = int(joinFailures.Load())

	hists := rec.histories()
	for _, h := range hists {
		views, deliveries := h.Counts()
		res.Deliveries += deliveries
		res.ViewsApplied += views
	}

	res.Violations = append(res.Violations, runtimeViolations...)
	res.Violations = append(res.Violations, checkServiceDeliveries(allIncs, ledger)...)
	res.Violations = append(res.Violations, checkLeaderTrees(allIncs)...)
	// The hierarchy's internal groups are ordinary flat groups: grade them
	// with the full flat checker set. Leaf groups multicast in the service's
	// configured ordering (FIFO); the leader group replicates its tree with
	// totally ordered casts.
	orderings := make(map[string]types.Ordering)
	leaderKey := types.LeaderGroup(serviceName).Key()
	for _, h := range hists {
		for _, k := range h.GroupKeys() {
			if k == leaderKey {
				orderings[k] = types.Total
			} else {
				orderings[k] = types.FIFO
			}
		}
	}
	res.Violations = append(res.Violations, CheckHistories(hists, orderings)...)
	res.Elapsed = time.Since(start)
	return res, nil
}

// checkServiceDeliveries grades the tree-broadcast ledger: exactly-once and
// no-phantom per incarnation, and completeness for every broadcast whose
// origin survived the run.
func checkServiceDeliveries(incs []*svcIncarnation, ledger []bcastRec) []Violation {
	var out []Violation
	caps := make(map[string]int)
	report := func(v Violation) {
		if caps[v.Check] >= maxViolationsPerCheck {
			return
		}
		caps[v.Check]++
		out = append(out, v)
	}

	known := make(map[string]bool, len(ledger))
	for _, b := range ledger {
		known[b.payload] = true
	}
	for _, inc := range incs {
		inc.mu.Lock()
		delivered := make(map[string]int, len(inc.delivered))
		for k, v := range inc.delivered {
			delivered[k] = v
		}
		inc.mu.Unlock()
		for payload, n := range delivered {
			if n > 1 {
				report(Violation{Check: "treecast-exactly-once", Group: serviceName, Proc: inc.proc.ID(),
					Detail: fmt.Sprintf("broadcast %q delivered %d times to one incarnation", payload, n)})
			}
			if !known[payload] {
				report(Violation{Check: "treecast-phantom", Group: serviceName, Proc: inc.proc.ID(),
					Detail: fmt.Sprintf("delivered broadcast %q that was never issued", payload)})
			}
		}
	}

	// Completeness: a broadcast successfully issued by an origin that
	// survived must reach every incarnation that was fully placed at least
	// one full step before issuance and never crashed. (Broadcasts whose
	// origin crashed are exempt: with the origin gone, nothing re-announces
	// its trailing sequence numbers, so survivors cannot even detect a
	// trailing gap — delivering them is best-effort, not guaranteed.)
	for _, b := range ledger {
		if !b.ok || b.origin.isCrashed() {
			continue
		}
		for _, inc := range incs {
			inc.mu.Lock()
			eligible := inc.agent != nil && !inc.crashed && b.step > inc.joinedStep+1
			n := inc.delivered[b.payload]
			inc.mu.Unlock()
			if eligible && n == 0 {
				report(Violation{Check: "treecast-completeness", Group: serviceName, Proc: inc.proc.ID(),
					Detail: fmt.Sprintf("live member never delivered broadcast %q (origin %v, step %d)",
						b.payload, b.origin.proc.ID(), b.step)})
			}
		}
	}
	return out
}

// checkLeaderTrees verifies end-of-run leader agreement: every surviving
// leader member's tree satisfies the structural invariants, all surviving
// leaders hold identical trees, and the agreed tree covers every surviving
// member's leaf.
func checkLeaderTrees(incs []*svcIncarnation) []Violation {
	var out []Violation
	var ref *core.Tree
	var refProc types.ProcessID
	for _, inc := range incs {
		if inc.isCrashed() {
			continue
		}
		a := inc.ready()
		if a == nil || !a.IsLeader() {
			continue
		}
		t := a.Tree()
		if err := t.CheckInvariants(); err != nil {
			out = append(out, Violation{Check: "leader-tree-invariants", Group: serviceName, Proc: inc.proc.ID(),
				Detail: err.Error()})
		}
		if ref == nil {
			ref, refProc = t, inc.proc.ID()
			continue
		}
		if string(t.Encode()) != string(ref.Encode()) {
			out = append(out, Violation{Check: "leader-tree-agreement", Group: serviceName, Proc: inc.proc.ID(),
				Detail: fmt.Sprintf("subgroup tree disagrees with leader %v's", refProc)})
		}
	}
	if ref == nil {
		out = append(out, Violation{Check: "leader-tree-agreement", Group: serviceName,
			Detail: "no surviving leader member holds a subgroup tree"})
		return out
	}
	for _, inc := range incs {
		if inc.isCrashed() {
			continue
		}
		a := inc.ready()
		if a == nil {
			continue
		}
		id := a.LeafID()
		if id.Name == "" {
			continue
		}
		if _, found := ref.Lookup(id); !found {
			out = append(out, Violation{Check: "leaf-membership-agreement", Group: serviceName, Proc: inc.proc.ID(),
				Detail: fmt.Sprintf("member's leaf %v is not in the agreed leader tree", id)})
		}
	}
	return out
}
