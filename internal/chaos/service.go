package chaos

import (
	"context"
	"fmt"
	"maps"
	"sync"
	"time"

	isis "repro"
	"repro/internal/core"
	"repro/internal/types"
)

// This file is the hierarchy workload: service scenarios drive one
// hierarchical large group (leaf subgroups, leader group, tree-structured
// broadcast) through the same seeded fault timeline the flat workload uses,
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
// (restarts create fresh incarnations). It is a slot's live handle once its
// join lands. The delivery ledger and placement step are what the hierarchy
// checkers grade.
type svcIncarnation struct {
	proc *isis.Process
	hist *History // crashed once the engine takes the incarnation down

	mu         sync.Mutex
	agent      *isis.Service  // nil until the join lands
	joinedStep int            // step at which placement completed; -2 for initial members
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

// alive returns the incarnation's service agent if it is placed and was
// never taken down, else nil.
func (inc *svcIncarnation) alive() *isis.Service {
	if inc.hist.Crashed() {
		return nil
	}
	return inc.ready()
}

// bcastRec is one issued tree broadcast in the harness ledger.
type bcastRec struct {
	payload string
	origin  *svcIncarnation
	step    int
	ok      bool // Broadcast returned nil
}

// serviceLoad is the hierarchy workload: every slot is a member of one
// service, every placed member issues tree broadcasts, and a non-member
// client issues leaf-routed requests.
type serviceLoad struct {
	e      *engine
	client *isis.ServiceClient

	mu     sync.Mutex
	incs   []*svcIncarnation // every incarnation ever created
	ledger []bcastRec
}

// incarnation starts the ledger of proc's membership.
func (w *serviceLoad) incarnation(proc *isis.Process, h *History) *svcIncarnation {
	inc := &svcIncarnation{proc: proc, hist: h, joinedStep: joinPending, delivered: make(map[string]int)}
	w.mu.Lock()
	w.incs = append(w.incs, inc)
	w.mu.Unlock()
	return inc
}

func (w *serviceLoad) incarnations() []*svcIncarnation {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]*svcIncarnation(nil), w.incs...)
}

func (w *serviceLoad) config(inc *svcIncarnation) isis.ServiceConfig {
	return isis.ServiceConfig{
		Fanout:     w.e.p.ServiceFanout,
		Resiliency: w.e.p.ServiceResiliency,
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

// place records that inc's service membership landed.
func (w *serviceLoad) place(inc *svcIncarnation, agent *isis.Service) any {
	inc.mu.Lock()
	inc.agent = agent
	inc.joinedStep = int(w.e.step.Load())
	inc.mu.Unlock()
	return inc
}

func (w *serviceLoad) found(proc *isis.Process, h *History, _ any) (any, error) {
	inc := w.incarnation(proc, h)
	agent, err := proc.CreateService(serviceName, w.config(inc))
	if err != nil {
		return nil, err
	}
	return w.place(inc, agent), nil
}

func (w *serviceLoad) rejoin(ctx context.Context, proc *isis.Process, h *History, contact types.ProcessID) (any, error) {
	inc := w.incarnation(proc, h)
	agent, err := proc.JoinService(ctx, serviceName, contact, w.config(inc))
	if err != nil {
		return nil, err
	}
	return w.place(inc, agent), nil
}

// converge waits until the leader tree covers every slot, so the timeline
// starts from one fully placed hierarchy, then spawns the request client.
func (w *serviceLoad) converge(ctx context.Context) error {
	e := w.e
	founder := e.slots[0].live.(*svcIncarnation).ready()
	for _, inc := range w.incarnations() {
		inc.mu.Lock()
		inc.joinedStep = -2 // placed before the timeline: every broadcast counts
		inc.mu.Unlock()
	}
	if err := isis.Await(ctx, func() bool { return founder.Tree().TotalMembers() == e.p.Nodes }); err != nil {
		return err
	}
	// The client is a non-member process; it spawns after the initial
	// members so restart site numbering stays aligned with compile.
	proc, err := e.rt.Spawn()
	if err != nil {
		return err
	}
	w.client = proc.NewServiceClient(serviceName, e.slots[0].proc.ID())
	w.client.AttemptTimeout = 400 * time.Millisecond
	return nil
}

// broadcast issues one tree broadcast from inc and enters it in the ledger.
func (w *serviceLoad) broadcast(ctx context.Context, inc *svcIncarnation, payload string, step int) error {
	_, err := inc.ready().Broadcast(ctx, []byte(payload))
	w.mu.Lock()
	w.ledger = append(w.ledger, bcastRec{payload: payload, origin: inc, step: step, ok: err == nil})
	w.mu.Unlock()
	return err
}

// ops issues tree broadcasts from every placed member and leaf-routed
// requests from the client.
func (w *serviceLoad) ops(step int) {
	e := w.e
	for _, o := range e.occupants() {
		inc := o.live.(*svcIncarnation)
		for k := 0; k < e.p.BroadcastsPerStep; k++ {
			payload := fmt.Sprintf("bc|%d|%d|%d", o.proc.ID().Site, step, k)
			e.res.CastsIssued++
			e.async(func() { _ = w.broadcast(e.ctx, inc, payload, step) })
		}
	}
	for k := 0; k < e.p.RequestsPerStep; k++ {
		payload := fmt.Sprintf("rq|%d|%d", step, k)
		e.res.CastsIssued++
		e.async(func() {
			ctx, cancel := context.WithTimeout(e.ctx, 3*time.Second)
			defer cancel()
			reply, err := w.client.Request(ctx, []byte(payload))
			if err != nil {
				// Failing cleanly under faults is allowed; retarget the
				// entry so later requests can route around a crashed
				// entry process.
				w.client.SetEntry(e.contact(-1))
				return
			}
			if string(reply) != "echo:"+payload {
				e.vios.report(Violation{Check: "request-integrity", Group: serviceName,
					Detail: fmt.Sprintf("request %q answered %q, want %q", payload, reply, "echo:"+payload)})
			}
		})
	}
}

// settle waits out in-flight work, runs a flush round, waits for quiet
// (members between leaves included), and probes request availability.
func (w *serviceLoad) settle() {
	e := w.e
	e.wait()

	// Flush round: one broadcast per surviving member on the now-clean
	// network. Gap detection is per origin, so each origin's flush is what
	// exposes its own trailing losses to the NAK path before checking.
	flushCtx, cancelFlush := context.WithTimeout(context.Background(), e.p.SettleTimeout)
	defer cancelFlush()
	var fwg sync.WaitGroup
	for _, o := range e.occupants() {
		inc := o.live.(*svcIncarnation)
		e.res.CastsIssued++
		fwg.Add(1)
		go func() {
			defer fwg.Done()
			if err := w.broadcast(flushCtx, inc, fmt.Sprintf("flush|%d", o.proc.ID().Site), e.p.Steps); err != nil {
				e.vios.report(Violation{Check: "flush-broadcast", Group: serviceName, Proc: o.proc.ID(),
					Detail: fmt.Sprintf("post-heal broadcast failed: %v", err)})
			}
		}()
	}
	fwg.Wait()

	countEvents := func() map[string]int {
		counts := e.rec.eventCounts()
		for _, inc := range w.incarnations() {
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
		for _, inc := range w.incarnations() {
			if a := inc.alive(); a != nil {
				if l := a.Leaf(); l == nil || l.Closed() {
					out = append(out, fmt.Sprintf("%v between leaves", inc.proc.ID()))
				}
			}
		}
		return out
	}
	if v := quiesce(countEvents, betweenLeaves, e.p); v != nil {
		e.vios.report(*v)
	}

	// Post-heal availability: with every fault closed, the service must
	// answer a leaf-routed request again.
	served := false
	for try := 0; try < 5 && !served; try++ {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		reply, err := w.client.Request(ctx, []byte("final"))
		cancel()
		served = err == nil && string(reply) == "echo:final"
		if !served {
			w.client.SetEntry(e.contact(-1))
		}
	}
	if !served {
		e.vios.report(Violation{Check: "request-availability", Group: serviceName,
			Detail: "no leaf answered a request after all faults healed"})
	}
	for _, inc := range w.incarnations() {
		if a := inc.alive(); a != nil {
			e.res.Rel.Add(a.RecoveryStats())
		}
	}
}

// grade checks the broadcast ledger and the leader trees, and grades the
// hierarchy's internal groups as ordinary flat groups: leaf groups multicast
// in the service's configured ordering (FIFO); the leader group replicates
// its tree with totally ordered casts.
func (w *serviceLoad) grade(hists []*History) map[string]types.Ordering {
	w.checkDeliveries()
	w.checkLeaderTrees()
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
	return orderings
}

// checkDeliveries grades the tree-broadcast ledger: exactly-once and
// no-phantom per incarnation, and completeness for every broadcast whose
// origin survived the run.
func (w *serviceLoad) checkDeliveries() {
	report := w.e.vios.report
	incs := w.incarnations()
	w.mu.Lock()
	ledger := w.ledger
	w.mu.Unlock()

	known := make(map[string]bool, len(ledger))
	for _, b := range ledger {
		known[b.payload] = true
	}
	for _, inc := range incs {
		inc.mu.Lock()
		delivered := maps.Clone(inc.delivered)
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
		if !b.ok || b.origin.hist.Crashed() {
			continue
		}
		for _, inc := range incs {
			crashed := inc.hist.Crashed()
			inc.mu.Lock()
			eligible := inc.agent != nil && !crashed && b.step > inc.joinedStep+1
			n := inc.delivered[b.payload]
			inc.mu.Unlock()
			if eligible && n == 0 {
				report(Violation{Check: "treecast-completeness", Group: serviceName, Proc: inc.proc.ID(),
					Detail: fmt.Sprintf("live member never delivered broadcast %q (origin %v, step %d)",
						b.payload, b.origin.proc.ID(), b.step)})
			}
		}
	}
}

// checkLeaderTrees verifies end-of-run leader agreement: every surviving
// leader member's tree satisfies the structural invariants, all surviving
// leaders hold identical trees, and the agreed tree covers every surviving
// member's leaf.
func (w *serviceLoad) checkLeaderTrees() {
	report := w.e.vios.report
	incs := w.incarnations()
	var ref *core.Tree
	var refProc types.ProcessID
	for _, inc := range incs {
		a := inc.alive()
		if a == nil || !a.IsLeader() {
			continue
		}
		t := a.Tree()
		if err := t.CheckInvariants(); err != nil {
			report(Violation{Check: "leader-tree-invariants", Group: serviceName, Proc: inc.proc.ID(),
				Detail: err.Error()})
		}
		if ref == nil {
			ref, refProc = t, inc.proc.ID()
			continue
		}
		if string(t.Encode()) != string(ref.Encode()) {
			report(Violation{Check: "leader-tree-agreement", Group: serviceName, Proc: inc.proc.ID(),
				Detail: fmt.Sprintf("subgroup tree disagrees with leader %v's", refProc)})
		}
	}
	if ref == nil {
		report(Violation{Check: "leader-tree-agreement", Group: serviceName,
			Detail: "no surviving leader member holds a subgroup tree"})
		return
	}
	for _, inc := range incs {
		a := inc.alive()
		if a == nil {
			continue
		}
		id := a.LeafID()
		if id.Name == "" {
			continue
		}
		if _, found := ref.Lookup(id); !found {
			report(Violation{Check: "leaf-membership-agreement", Group: serviceName, Proc: inc.proc.ID(),
				Detail: fmt.Sprintf("member's leaf %v is not in the agreed leader tree", id)})
		}
	}
}
