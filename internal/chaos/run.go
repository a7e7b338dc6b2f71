package chaos

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
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

// Result is the outcome of one scenario run.
type Result struct {
	Scenario Scenario
	Hash     string
	Elapsed  time.Duration
	// SettleWait is how long the run waited, after the timeline, for joins
	// and operations still in flight. A value near the settle timeout marks
	// a stuck join or operation, not a slow seed.
	SettleWait time.Duration

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
	return fmt.Sprintf("%s — casts=%d deliveries=%d views=%d crashes=%d restarts=%d dup=%d reord=%d dropped=%d naks=%d/%d fwd=%d reann=%d %s in %v (settle wait %v)",
		r.Scenario.Summary(), r.CastsIssued, r.Deliveries, r.ViewsApplied, r.Crashes, r.Restarts,
		r.Stats.MessagesDuplicated, r.Stats.MessagesReordered, r.Stats.MessagesDropped,
		r.Rel.NaksSent, r.Rel.NaksServed, r.Rel.Forwarded, r.Rel.Reannounced,
		status, r.Elapsed.Round(time.Millisecond), r.SettleWait.Round(time.Millisecond))
}

// workload is what a profile's mode plugs into the engine: the system the
// timeline churns and the operations it issues. A slot's live handle is
// whatever the workload returns for it (flat: the slot's groups; service:
// its incarnation; stateful: its replica), and nil while the slot is down or
// still rejoining.
type workload interface {
	// found founds the system on proc, the occupant of slot 0 with
	// history h, at setup and again after a full restart; prev is slot 0's
	// live handle before the power failure.
	found(proc *isis.Process, h *History, prev any) (any, error)
	// rejoin makes proc a member through contact; it runs off the timeline
	// for a restarted slot.
	rejoin(ctx context.Context, proc *isis.Process, h *History, contact types.ProcessID) (any, error)
	// converge finishes the initial topology once every slot has entered,
	// waiting until it agrees on full membership.
	converge(ctx context.Context) error
	// ops issues one step's operations from the live slots.
	ops(step int)
	// settle runs once the timeline's faults have closed: it waits out the
	// work still in flight and runs the mode's post-fault probes.
	settle()
	// grade reports the mode's own checks over the settled system and
	// returns the ordering each recorded group used, for CheckHistories.
	grade(hists []*History) map[string]types.Ordering
}

// slot is one scenario node position: the process occupying it (restarts
// replace the occupant), that occupant's history and the workload's live
// handle for it.
type slot struct {
	mu   sync.Mutex
	gen  int // bumped whenever the occupant changes; stale joins check it
	proc *isis.Process
	hist *History
	live any
	gone chan struct{} // closed when the occupant goes down; joins through it re-pick
}

// occupant is a live slot's state at one instant.
type occupant struct {
	slot int
	proc *isis.Process
	live any
}

// engine drives one scenario: it owns the runtime, the slots, the step loop
// and the grading, and asks its workload only for what differs by mode.
type engine struct {
	s       Scenario
	p       Profile
	res     *Result
	rt      *isis.Runtime
	rec     *recorder
	w       workload
	slots   []*slot
	walRoot string // parent of the slot-keyed write-ahead logs; "" without logs

	ctx          context.Context // joins and operations; ends at the run deadline
	cancel       context.CancelFunc
	enterMu      sync.Mutex     // serialises a failed join's re-pick or re-found against joins landing
	wg           sync.WaitGroup // joins and operations in flight
	step         atomic.Int64
	joinFailures atomic.Int64
	vios         violations
}

// compile lowers a scenario to a netsim fault plan (everything except
// restarts, which the engine handles above the network layer) by resolving
// node slots to the concrete ProcessID occupying each slot at each step.
// Slot occupancy is fully predictable: initial spawns take sites 1..Nodes in
// order and the i'th restart takes site Nodes+i, mirroring the facade's
// sequential site assignment.
func compile(s Scenario) (plan []netsim.FaultEvent) {
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
		case EvFullRestart:
			// Every live slot power-fails at once, then every slot (already-
			// crashed ones included) restarts with a fresh site. The engine
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
	return plan
}

// Run executes one scenario end to end: builds the simulated cluster and
// the profile's workload, drives the fault timeline while the workload
// runs, waits for the system to quiesce, and checks every invariant over
// the recorded histories. The returned error covers harness failures (the
// cluster could not even be built); invariant breaches are reported in
// Result.Violations.
func Run(s Scenario) (*Result, error) {
	start := time.Now()
	p := s.Profile
	e := &engine{s: s, p: p, res: &Result{Scenario: s, Hash: s.Hash()}, rec: newRecorder()}
	switch {
	case p.Service:
		e.w = &serviceLoad{e: e}
	case p.Stateful:
		// Slot-keyed logs: a restarted slot reopens its predecessor's,
		// which is what makes full-restart recovery real rather than a
		// fresh empty map under a new site id.
		root, err := os.MkdirTemp("", "isis-chaos-wal-")
		if err != nil {
			return nil, fmt.Errorf("chaos: wal root: %w", err)
		}
		defer os.RemoveAll(root)
		e.walRoot = root
		e.w = &kvLoad{e: e, acked: make(map[*isis.KV][]string)}
	default:
		e.w = &flatLoad{e: e}
	}
	e.rt = isis.NewSimulated(
		isis.WithNetwork(isis.NetworkConfig{Seed: s.Seed + 1, QueueLen: 1 << 14}),
		isis.WithFaultPlan(compile(s)...),
	)
	defer e.rt.Shutdown()
	if err := e.setup(); err != nil {
		return nil, err
	}

	runDeadline := time.Now().Add(time.Duration(p.Steps)*p.StepInterval + p.SettleTimeout)
	e.ctx, e.cancel = context.WithDeadline(context.Background(), runDeadline)
	defer e.cancel()
	e.timeline()
	e.w.settle()
	e.grade()
	e.res.Elapsed = time.Since(start)
	return e.res, nil
}

// setup spawns one process per slot in site order, founds the system on
// slot 0, enters every other slot through it, and waits for convergence, so
// the timeline starts from one agreed topology.
func (e *engine) setup() error {
	ctx, cancel := context.WithTimeout(context.Background(), e.p.SettleTimeout)
	defer cancel()
	e.slots = make([]*slot, e.p.Nodes)
	for i := range e.slots {
		proc, err := e.spawn(i)
		if err != nil {
			return fmt.Errorf("chaos: spawn node %d: %w", i, err)
		}
		e.slots[i] = &slot{}
		e.occupy(e.slots[i], proc, e.attach(proc), nil)
	}
	founder := e.slots[0].proc.ID()
	for i, sl := range e.slots {
		var err error
		if i == 0 {
			sl.live, err = e.w.found(sl.proc, sl.hist, nil)
		} else {
			sl.live, err = e.w.rejoin(ctx, sl.proc, sl.hist, founder)
		}
		if err != nil {
			return fmt.Errorf("chaos: node %d enter: %w", i, err)
		}
	}
	if err := e.w.converge(ctx); err != nil {
		return fmt.Errorf("chaos: initial convergence: %w", err)
	}
	return nil
}

// timeline runs the steps: each applies the step's network faults, then its
// crashes and restarts, then the workload's operations, then paces. It ends
// by closing out every fault still open.
func (e *engine) timeline() {
	eventsAt := make(map[int][]Event)
	for _, ev := range e.s.Events {
		eventsAt[ev.Step] = append(eventsAt[ev.Step], ev)
	}
	for step := 0; step < e.p.Steps; step++ {
		e.step.Store(int64(step))
		e.rt.StepFaults(step)
		for _, ev := range eventsAt[step] {
			switch ev.Kind {
			case EvCrash:
				e.down(e.slots[ev.Node])
				e.res.Crashes++
			case EvRestart:
				proc, err := e.spawn(ev.Node)
				if err != nil {
					e.joinFailures.Add(1)
					continue
				}
				e.rejoin(ev.Node, proc, e.contact(ev.Node))
			case EvFullRestart:
				e.fullRestart()
			}
		}
		e.w.ops(step)
		time.Sleep(e.p.StepInterval)
	}
	e.rt.StepFaults(e.p.Steps)
}

// fullRestart power-fails every slot at once and brings them all back in
// slot order, mirroring compile's site numbering: slot 0 re-founds the
// system synchronously (its recovered state must be in place before new
// operations land) and every other slot rejoins through it. Histories start
// a new epoch.
func (e *engine) fullRestart() {
	live := e.occupants()
	e.res.Crashes += len(live)
	var prev any
	if len(live) > 0 && live[0].slot == 0 {
		prev = live[0].live
	}
	for _, sl := range e.slots {
		e.down(sl)
	}
	e.rec.newEpoch()
	procs := make([]*isis.Process, len(e.slots))
	for i := range procs {
		proc, err := e.spawn(i)
		if err != nil {
			e.joinFailures.Add(1)
			continue
		}
		procs[i] = proc
	}
	var contact types.ProcessID
	if proc := procs[0]; proc != nil {
		h := e.attach(proc)
		e.res.Restarts++
		if live, err := e.w.found(proc, h, prev); err != nil {
			e.joinFailures.Add(1)
		} else {
			e.occupy(e.slots[0], proc, h, live)
			contact = proc.ID()
		}
	}
	for i, proc := range procs[1:] {
		if proc != nil {
			e.rejoin(i+1, proc, contact)
		}
	}
}

// down takes a slot's occupant out of the run: the slot stops being live,
// stale rejoins see the generation change, joins through the occupant give
// up and re-pick, and the history is marked crashed. The plan's crash at
// StepFaults has already severed the occupant. With write-ahead logs the
// engine also stops it, so a zombie never compacts the log its successor
// reopens, and tells the survivors explicitly: heartbeats are off in chaos
// runs, and the plan misses an occupant spawned later in the same step (a
// full restart and a crash can share one), which would otherwise stay in
// the view and wedge every later flush.
func (e *engine) down(sl *slot) {
	sl.mu.Lock()
	sl.gen++
	proc, h := sl.proc, sl.hist
	sl.proc, sl.live = nil, nil
	if sl.gone != nil {
		close(sl.gone)
		sl.gone = nil
	}
	sl.mu.Unlock()
	if h != nil {
		h.MarkCrashed()
	}
	if proc != nil && e.walRoot != "" {
		proc.Stop()
		e.rt.InjectFailure(proc)
	}
}

// rejoin installs proc as slot i's occupant and joins it through contact
// off the timeline. The slot becomes live once the join lands, unless it
// went down again meanwhile. A join whose contact goes down first gives up
// and re-picks a live contact, and a restart that finds no live slot
// re-founds the system on its own log, as slot 0 does after a full
// restart, in a fresh history epoch since the re-founded groups count their
// views from 1 again. Joins after a re-found record into a history that
// enters that epoch only once the join lands: a process a failed join left
// in the old group keeps recording there.
func (e *engine) rejoin(i int, proc *isis.Process, contact types.ProcessID) {
	e.res.Restarts++
	sl := e.slots[i]
	h := e.attach(proc)
	gen := e.occupy(sl, proc, h, nil)
	kept, epoch := h, e.rec.epoch() // kept: the history the recorder holds
	e.async(func() {
		for {
			live, down, err := e.joinVia(proc, h, contact)
			e.enterMu.Lock()
			switch {
			case err == nil:
				e.land(sl, gen, h, kept, live)
			case !down || e.ctx.Err() != nil:
			default:
				if contact = e.liveContact(i); contact.IsNil() {
					h = follow(proc, NewHistory(proc.ID()))
					if live, err = e.w.found(proc, h, nil); err == nil {
						e.rec.newEpoch()
						e.land(sl, gen, h, kept, live)
					}
					break
				}
				if epoch != e.rec.epoch() {
					h, epoch = follow(proc, NewHistory(proc.ID())), e.rec.epoch()
				}
				e.enterMu.Unlock()
				continue
			}
			e.enterMu.Unlock()
			if err != nil {
				follow(proc, kept)
				e.joinFailures.Add(1)
			}
			return
		}
	})
}

var errNoContact = errors.New("chaos: no live slot to join through")

// joinVia joins proc through contact, giving up as soon as the contact's
// slot goes down; down reports that it did (or that contact occupies no
// slot at all), so the join may re-pick. A join that lands keeps its
// context: a workload may tie what it joined to it (a service agent does),
// so only the run's end cancels it then. Without a contact there is nobody
// to join, and no attempt is made: it would only reset the slot's log,
// which a re-found recovers.
func (e *engine) joinVia(proc *isis.Process, h *History, contact types.ProcessID) (live any, down bool, err error) {
	if contact.IsNil() {
		return nil, true, errNoContact
	}
	gone := e.goneC(contact)
	ctx, cancel := context.WithCancel(e.ctx)
	joined := make(chan struct{})
	go func() {
		select {
		case <-gone:
			cancel()
		case <-joined:
		case <-ctx.Done():
		}
	}()
	live, err = e.w.rejoin(ctx, proc, h, contact)
	close(joined)
	select {
	case <-gone:
		down = true
	default:
	}
	return live, down, err
}

// goneC returns the channel closed when contact's slot goes down, or a
// closed one when no slot's occupant is contact.
func (e *engine) goneC(contact types.ProcessID) <-chan struct{} {
	for _, sl := range e.slots {
		sl.mu.Lock()
		if sl.proc != nil && sl.proc.ID() == contact && sl.gone != nil {
			gone := sl.gone
			sl.mu.Unlock()
			return gone
		}
		sl.mu.Unlock()
	}
	closed := make(chan struct{})
	close(closed)
	return closed
}

// land makes a joined (or re-founded) slot live, unless it went down
// meanwhile, with h its history; a history the recorder does not hold yet
// joins the current epoch.
func (e *engine) land(sl *slot, gen int, h, kept *History, live any) {
	if h != kept {
		e.rec.add(h)
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.gen == gen {
		sl.hist, sl.live = h, live
	}
}

// follow points proc's group observer at h and returns h.
func follow(proc *isis.Process, h *History) *History {
	proc.ObserveGroups(isis.GroupObserver{OnView: h.OnView, OnDeliver: h.OnDeliver})
	return h
}

// occupy makes proc slot sl's occupant and returns the slot's generation.
func (e *engine) occupy(sl *slot, proc *isis.Process, h *History, live any) int {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	sl.gen++
	sl.proc, sl.hist, sl.live = proc, h, live
	sl.gone = make(chan struct{})
	return sl.gen
}

// occupants snapshots the live slots, in slot order.
func (e *engine) occupants() []occupant {
	var out []occupant
	for i, sl := range e.slots {
		sl.mu.Lock()
		if sl.live != nil {
			out = append(out, occupant{slot: i, proc: sl.proc, live: sl.live})
		}
		sl.mu.Unlock()
	}
	return out
}

// contact picks a join contact: the first live slot other than skip,
// falling back to slot 0's occupant.
func (e *engine) contact(skip int) types.ProcessID {
	if c := e.liveContact(skip); !c.IsNil() {
		return c
	}
	sl := e.slots[0]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.proc == nil {
		return types.ProcessID{}
	}
	return sl.proc.ID()
}

// liveContact returns the first live slot's occupant other than skip, or
// the nil process when no other slot is live.
func (e *engine) liveContact(skip int) types.ProcessID {
	for _, o := range e.occupants() {
		if o.slot != skip {
			return o.proc.ID()
		}
	}
	return types.ProcessID{}
}

// spawn starts a process for slot i, on the slot's write-ahead log when the
// run keeps logs.
func (e *engine) spawn(i int) (*isis.Process, error) {
	if e.walRoot == "" {
		return e.rt.Spawn()
	}
	return e.rt.SpawnWAL(filepath.Join(e.walRoot, fmt.Sprintf("slot-%d", i)))
}

// attach records proc's views and deliveries in a fresh history.
func (e *engine) attach(proc *isis.Process) *History {
	h := follow(proc, NewHistory(proc.ID()))
	e.rec.add(h)
	return h
}

// async runs f as in-flight work that wait waits out.
func (e *engine) async(f func()) {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		f()
	}()
}

// wait blocks until every join and operation in flight has returned and
// adds the time to the result's SettleWait.
func (e *engine) wait() {
	start := time.Now()
	e.wg.Wait()
	e.res.SettleWait += time.Since(start)
}

// grade collects the runtime's counters, runs the workload's checks on the
// settled system, shuts it down, and checks the flat-group invariants over
// each epoch's histories.
func (e *engine) grade() {
	res := e.res
	res.Stats = e.rt.Stats()
	for _, proc := range e.rt.Processes() {
		if !proc.Stopped() {
			res.Rel.Add(proc.ReliabilityStats())
		}
	}
	res.JoinFailures = int(e.joinFailures.Load())
	hists := e.rec.histories()
	orderings := e.w.grade(hists)
	e.rt.Shutdown()

	for _, h := range hists {
		views, deliveries := h.Counts()
		res.Deliveries += deliveries
		res.ViewsApplied += views
	}
	res.Violations = e.vios.list
	for _, epoch := range e.rec.byEpoch() {
		if len(epoch) > 0 {
			res.Violations = append(res.Violations, CheckHistories(epoch, orderings)...)
		}
	}
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
