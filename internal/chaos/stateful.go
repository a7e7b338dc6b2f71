package chaos

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	isis "repro"
	"repro/internal/types"
)

// This file is the durable-state half of the harness: stateful scenarios
// drive one WAL-backed replicated key-value map through the seeded fault
// timeline. Ordinary crash/restart events exercise rejoin via streamed
// view-consistent checkpoints; the EvFullRestart event power-fails the whole
// cluster at once and every slot must come back from its write-ahead log.
// On top of the flat-group invariants (graded per epoch, because a full
// restart re-founds the group from view 1) the stateful checkers verify:
//
//   - WAL durability: every put the founder acknowledged before a full
//     restart is still readable from the re-founded map — acknowledgement
//     means the op was applied locally, and the delivery path appends to the
//     log in the same actor-loop call, so a power failure any time after the
//     ack must not lose it;
//   - digest convergence: once every fault has healed and the run quiesces,
//     all live replicas hold identical maps (equal order-independent
//     digests) — rejoined members and post-restart recoveries included;
//   - write availability: after all faults heal, some replica accepts and
//     applies a put.

// kvName is the replicated map every stateful scenario drives.
const kvName = "chaos-kv"

// kvSlot is one scenario node position in a stateful run: the process
// currently occupying it and its KV replica (nil while the slot is down or
// its rejoin is still in flight).
type kvSlot struct {
	mu   sync.Mutex
	gen  int // bumped on crash and restart; stale joins check it
	proc *isis.Process
	hist *History
	kv   *isis.KV
}

func (sl *kvSlot) ready() *isis.KV {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.kv
}

// runStateful executes one durable-state scenario end to end; Run dispatches
// here when the profile has Stateful set.
func runStateful(s Scenario) (*Result, error) {
	p := s.Profile
	start := time.Now()
	res := &Result{Scenario: s, Hash: s.Hash()}

	// Slot-keyed WAL directories: a restarted slot reopens its
	// predecessor's log, which is what makes full-restart recovery real
	// rather than a fresh empty map under a new site id.
	walRoot, err := os.MkdirTemp("", "isis-chaos-wal-")
	if err != nil {
		return nil, fmt.Errorf("chaos: wal root: %w", err)
	}
	defer os.RemoveAll(walRoot)
	walFor := func(slot int) string { return filepath.Join(walRoot, fmt.Sprintf("slot-%d", slot)) }

	plan, _ := compile(s) // restarts are driven from the event loop below
	rt := isis.NewSimulated(
		isis.WithNetwork(isis.NetworkConfig{Seed: s.Seed + 1, QueueLen: 1 << 14}),
		isis.WithFaultPlan(plan...),
	)
	defer rt.Shutdown()

	// Histories are graded per epoch: a full restart re-founds the group
	// from view 1, so pre-restart and post-restart histories use colliding
	// view numbering and must not be checked against each other. The
	// recorder still aggregates everything for quiescing.
	rec := newRecorder()
	var epochMu sync.Mutex
	epochs := [][]*History{nil}
	attach := func(proc *isis.Process) *History {
		h := NewHistory(proc.ID())
		proc.ObserveGroups(isis.GroupObserver{OnView: h.OnView, OnDeliver: h.OnDeliver})
		rec.add(h)
		epochMu.Lock()
		epochs[len(epochs)-1] = append(epochs[len(epochs)-1], h)
		epochMu.Unlock()
		return h
	}
	newEpoch := func() {
		epochMu.Lock()
		epochs = append(epochs, nil)
		epochMu.Unlock()
	}

	// The state-transfer grace release exists to keep a joiner usable when
	// no checkpoint holder ever answers; in this harness a release would
	// leave the replica without the pre-join map and read as divergence. The
	// grace window is therefore pushed past every transient fault the
	// timeline can inject: a transfer that cannot complete on a healed
	// network is a bug the divergence checker should report, not paper over.
	gcfg := isis.GroupConfig{StateGrace: p.SettleTimeout}

	// Harness-observed violations (durability, divergence, availability).
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

	// ackLedger records puts acknowledged by the founder slot's current
	// incarnation. A Put acks only after the op is applied locally, and the
	// delivery path appends to the WAL within the same actor-loop call, so
	// every recorded key is on disk by the time the incarnation is stopped —
	// exactly what the post-full-restart recovery check asserts. The
	// generation bumps whenever slot 0 changes occupant, discarding keys
	// whose durability would depend on a checkpoint transfer instead.
	var ackMu sync.Mutex
	ackGen := 0
	var ackedKeys []string
	curAckGen := func() int {
		ackMu.Lock()
		defer ackMu.Unlock()
		return ackGen
	}
	recordAck := func(gen int, key string) {
		ackMu.Lock()
		if gen == ackGen {
			ackedKeys = append(ackedKeys, key)
		}
		ackMu.Unlock()
	}
	bumpAckGen := func() []string {
		ackMu.Lock()
		defer ackMu.Unlock()
		snapshot := ackedKeys
		ackedKeys = nil
		ackGen++
		return snapshot
	}

	// Initial topology: Nodes replicas of one map, slot 0 the founder.
	slots := make([]*kvSlot, p.Nodes)
	for i := range slots {
		proc, err := rt.SpawnWAL(walFor(i))
		if err != nil {
			return nil, fmt.Errorf("chaos: spawn node %d: %w", i, err)
		}
		slots[i] = &kvSlot{proc: proc, hist: attach(proc)}
	}
	setupCtx, cancelSetup := context.WithTimeout(context.Background(), p.SettleTimeout)
	defer cancelSetup()
	kv0, err := slots[0].proc.CreateKV(kvName, gcfg)
	if err != nil {
		return nil, fmt.Errorf("chaos: create %s: %w", kvName, err)
	}
	slots[0].kv = kv0
	for i := 1; i < p.Nodes; i++ {
		kv, err := slots[i].proc.JoinKV(setupCtx, kvName, slots[0].proc.ID(), gcfg)
		if err != nil {
			return nil, fmt.Errorf("chaos: node %d join %s: %w", i, kvName, err)
		}
		slots[i].kv = kv
	}
	for _, sl := range slots {
		kv := sl.kv
		if err := isis.Await(setupCtx, func() bool { return kv.Group().Size() == p.Nodes }); err != nil {
			return nil, fmt.Errorf("chaos: initial convergence: %w", err)
		}
	}

	// stopSlot takes a slot down: the occupant's actor loop halts (the
	// fabric crash already severed it at StepFaults; stopping as well keeps
	// the dead incarnation from compacting the slot's WAL under a successor)
	// and the slot becomes joinable again. Survivors are informed explicitly
	// — heartbeats are disabled in chaos runs, and the plan's own
	// Stop+InjectFailure at StepFaults misses incarnations spawned later in
	// the same step (a full restart, crash and respawn can share a step), so
	// without this a half-joined incarnation stays in the view forever and
	// wedges every later flush.
	stopSlot := func(sl *kvSlot) {
		sl.mu.Lock()
		sl.gen++
		sl.kv = nil
		proc := sl.proc
		sl.proc = nil
		if sl.hist != nil {
			sl.hist.MarkCrashed()
		}
		sl.mu.Unlock()
		if proc != nil {
			proc.Stop()
			rt.InjectFailure(proc)
		}
	}

	// Timeline.
	eventsAt := make(map[int][]Event)
	for _, e := range s.Events {
		eventsAt[e.Step] = append(eventsAt[e.Step], e)
	}
	var wg sync.WaitGroup
	var joinFailures atomic.Int64
	runDeadline := time.Now().Add(time.Duration(p.Steps)*p.StepInterval + p.SettleTimeout)
	joinCtx, cancelJoins := context.WithDeadline(context.Background(), runDeadline)
	defer cancelJoins()

	rejoin := func(sl *kvSlot, proc *isis.Process, gen int, contact types.ProcessID) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kv, err := proc.JoinKV(joinCtx, kvName, contact, gcfg)
			if err != nil {
				joinFailures.Add(1)
				return
			}
			sl.mu.Lock()
			if sl.gen == gen {
				sl.kv = kv
			}
			sl.mu.Unlock()
		}()
	}

	for step := 0; step < p.Steps; step++ {
		rt.StepFaults(step)
		for _, e := range eventsAt[step] {
			switch e.Kind {
			case EvCrash:
				if e.Node == 0 {
					bumpAckGen()
				}
				stopSlot(slots[e.Node])
				res.Crashes++
			case EvRestart:
				res.Restarts++
				sl := slots[e.Node]
				proc, err := rt.SpawnWAL(walFor(e.Node))
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
				rejoin(sl, proc, gen, liveKVContact(slots, e.Node))
			case EvFullRestart:
				durable := bumpAckGen()
				for _, sl := range slots {
					if sl.ready() != nil {
						res.Crashes++
					}
					stopSlot(sl)
				}
				newEpoch()
				// Respawn every slot in slot order — site numbering must
				// mirror compile's. The founder re-creates the map from its
				// log synchronously (the recovery check needs its state
				// before new workload ops land); everyone else rejoins and
				// receives the recovered map as a streamed checkpoint.
				procs := make([]*isis.Process, p.Nodes)
				for i := range procs {
					proc, err := rt.SpawnWAL(walFor(i))
					if err != nil {
						joinFailures.Add(1)
						continue
					}
					procs[i] = proc
				}
				var contact types.ProcessID
				if procs[0] != nil {
					sl := slots[0]
					h := attach(procs[0])
					res.Restarts++
					kv, err := procs[0].CreateKV(kvName, gcfg)
					if err != nil {
						joinFailures.Add(1)
					} else {
						for _, key := range durable {
							if _, ok := kv.Get(key); !ok {
								report(Violation{Check: "wal-recovery", Group: kvName, Proc: procs[0].ID(),
									Detail: fmt.Sprintf("acknowledged key %q missing after full-cluster restart (recovered %d keys, %d applied)",
										key, kv.Len(), kv.Applied())})
							}
						}
						sl.mu.Lock()
						sl.gen++
						sl.proc, sl.hist, sl.kv = procs[0], h, kv
						sl.mu.Unlock()
						contact = procs[0].ID()
					}
				}
				for i := 1; i < p.Nodes; i++ {
					if procs[i] == nil {
						continue
					}
					sl := slots[i]
					h := attach(procs[i])
					res.Restarts++
					sl.mu.Lock()
					sl.gen++
					gen := sl.gen
					sl.proc, sl.hist = procs[i], h
					sl.mu.Unlock()
					rejoin(sl, procs[i], gen, contact)
				}
			}
		}

		// Workload: every live replica issues deterministic puts; the
		// founder slot's acknowledged keys feed the durability ledger.
		for i, sl := range slots {
			sl.mu.Lock()
			kv := sl.kv
			var site uint32
			if sl.proc != nil {
				site = uint32(sl.proc.ID().Site)
			}
			sl.mu.Unlock()
			if kv == nil {
				continue
			}
			founder := i == 0
			gen := 0
			if founder {
				gen = curAckGen()
			}
			for k := 0; k < p.KVOpsPerStep; k++ {
				key := fmt.Sprintf("k|%d|%d|%d", site, step, k)
				value := fmt.Sprintf("v|%d|%d|%d", site, step, k)
				res.CastsIssued++
				wg.Add(1)
				go func(kv *isis.KV, key, value string) {
					defer wg.Done()
					ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
					defer cancel()
					if err := kv.Put(ctx, key, value); err != nil {
						return // failing cleanly under faults is allowed
					}
					if founder {
						recordAck(gen, key)
					}
				}(kv, key, value)
			}
		}
		time.Sleep(p.StepInterval)
	}

	// Settle: close remaining faults, wait out in-flight puts and joins,
	// then let the event stream go quiet.
	rt.StepFaults(p.Steps)
	wg.Wait()
	if v := quiesce(rec.eventCounts, nil, p); v != nil {
		report(*v)
	}

	// Post-heal availability: with every fault closed, some replica must
	// accept and apply a put again. Issued before the convergence check so
	// the final write is part of the digests being compared.
	served := false
	for try := 0; try < 5 && !served; try++ {
		for _, sl := range slots {
			kv := sl.ready()
			if kv == nil {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			err := kv.Put(ctx, "final", fmt.Sprintf("seed-%d", s.Seed))
			cancel()
			if err == nil {
				served = true
				break
			}
		}
	}
	if !served {
		var state []string
		for i, sl := range slots {
			if kv := sl.ready(); kv != nil {
				state = append(state, fmt.Sprintf("slot%d: len=%d applied=%d [%s]", i, kv.Len(), kv.Applied(), kv.Group().DebugString()))
			} else {
				state = append(state, fmt.Sprintf("slot%d: down", i))
			}
		}
		report(Violation{Check: "kv-availability", Group: kvName,
			Detail: fmt.Sprintf("no replica applied a put after all faults healed (joinFailures=%d) %v",
				joinFailures.Load(), state)})
	}

	// Digest convergence: every live replica (late joiners still finishing
	// their checkpoint transfer included — Await rechecks) must hold the
	// same map.
	liveKVs := func() []*isis.KV {
		var out []*isis.KV
		for _, sl := range slots {
			if kv := sl.ready(); kv != nil {
				out = append(out, kv)
			}
		}
		return out
	}
	convCtx, cancelConv := context.WithTimeout(context.Background(), p.SettleTimeout)
	defer cancelConv()
	if err := isis.Await(convCtx, func() bool {
		kvs := liveKVs()
		if len(kvs) == 0 {
			return false
		}
		d := kvs[0].Digest()
		for _, kv := range kvs[1:] {
			if kv.Digest() != d {
				return false
			}
		}
		return true
	}); err != nil {
		detail := "no live replicas at quiesce"
		if kvs := liveKVs(); len(kvs) > 0 {
			parts := make([]string, len(kvs))
			for i, kv := range kvs {
				parts[i] = fmt.Sprintf("digest=%016x len=%d applied=%d", kv.Digest(), kv.Len(), kv.Applied())
			}
			detail = fmt.Sprintf("replica maps diverged at quiesce: %v", parts)
		}
		report(Violation{Check: "kv-divergence", Group: kvName, Detail: detail})
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
	orderings := map[string]types.Ordering{types.FlatGroup(kvName).Key(): types.Total}
	res.Violations = append(res.Violations, runtimeViolations...)
	epochMu.Lock()
	eps := epochs
	epochMu.Unlock()
	for _, hs := range eps {
		if len(hs) > 0 {
			res.Violations = append(res.Violations, CheckHistories(hs, orderings)...)
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// liveKVContact picks a rejoin contact: the first slot (other than skip)
// whose occupant has a live replica, falling back to slot 0's occupant.
func liveKVContact(slots []*kvSlot, skip int) types.ProcessID {
	for i, sl := range slots {
		if i == skip {
			continue
		}
		sl.mu.Lock()
		ok := sl.kv != nil && sl.proc != nil
		var pid types.ProcessID
		if sl.proc != nil {
			pid = sl.proc.ID()
		}
		sl.mu.Unlock()
		if ok {
			return pid
		}
	}
	slots[0].mu.Lock()
	defer slots[0].mu.Unlock()
	if slots[0].proc != nil {
		return slots[0].proc.ID()
	}
	return types.ProcessID{}
}
