package chaos

import (
	"context"
	"fmt"
	"sync"
	"time"

	isis "repro"
	"repro/internal/types"
)

// This file is the durable-state workload: stateful scenarios
// drive one WAL-backed replicated key-value map through the seeded fault
// timeline. Ordinary crash/restart events exercise rejoin via streamed
// view-consistent checkpoints; the EvFullRestart event power-fails the whole
// cluster at once and every slot must come back from its write-ahead log.
// On top of the flat-group invariants (graded per epoch, because a full
// restart re-founds the group from view 1) the stateful checkers verify:
//
//   - WAL durability: every put the founder acknowledged before a full
//     restart is still readable from the re-founded map — acknowledgement
//     means the op was applied locally, the delivery's log record is written
//     before the actor-loop step that applied it returns, and a stopped
//     node stops only between steps, so a power failure any time after the
//     ack must not lose it;
//   - digest convergence: once every fault has healed and the run quiesces,
//     all live replicas hold identical maps (equal order-independent
//     digests) — rejoined members and post-restart recoveries included;
//   - write availability: after all faults heal, some replica accepts and
//     applies a put.

// kvName is the replicated map every stateful scenario drives.
const kvName = "chaos-kv"

// kvLoad is the durable-state workload: every slot is a replica of one
// WAL-backed map and every live replica issues puts. A slot's live handle is
// its replica.
type kvLoad struct {
	e *engine

	mu    sync.Mutex
	acked map[*isis.KV][]string // keys slot 0's replicas acknowledged, by replica
}

// config pushes the state-transfer grace release past every transient fault
// the timeline can inject. The release exists to keep a joiner usable when
// no checkpoint holder ever answers; here it would leave the replica without
// the pre-join map and read as divergence. A transfer that cannot complete
// on a healed network is a bug the divergence checker should report, not
// paper over.
func (w *kvLoad) config() isis.GroupConfig {
	return isis.GroupConfig{StateGrace: w.e.p.SettleTimeout}
}

// found creates the map on slot 0, recovering it from the slot's log after a
// full restart. Then every put slot 0's previous replica acknowledged must
// be readable from it: a Put acks only after the op is applied locally, the
// step that applied it writes its WAL record before it returns, and the
// replica's node stops only between steps, so the key was in the log file
// when that replica was stopped. Keys a slot 0 replica acknowledged
// before it crashed are not graded: their durability would depend on a
// checkpoint transfer instead.
func (w *kvLoad) found(proc *isis.Process, _ *History, prev any) (any, error) {
	kv, err := proc.CreateKV(kvName, w.config())
	if err != nil {
		return nil, err
	}
	prevKV, _ := prev.(*isis.KV)
	w.mu.Lock()
	durable := w.acked[prevKV]
	w.mu.Unlock()
	for _, key := range durable {
		if _, ok := kv.Get(key); !ok {
			w.e.vios.report(Violation{Check: "wal-recovery", Group: kvName, Proc: proc.ID(),
				Detail: fmt.Sprintf("acknowledged key %q missing after full-cluster restart (recovered %d keys, %d applied)",
					key, kv.Len(), kv.Applied())})
		}
	}
	return kv, nil
}

func (w *kvLoad) rejoin(ctx context.Context, proc *isis.Process, _ *History, contact types.ProcessID) (any, error) {
	kv, err := proc.JoinKV(ctx, kvName, contact, w.config())
	if err != nil {
		return nil, err
	}
	return kv, nil
}

func (w *kvLoad) converge(ctx context.Context) error {
	for _, o := range w.e.occupants() {
		g := o.live.(*isis.KV).Group()
		if err := isis.Await(ctx, func() bool { return g.Size() == w.e.p.Nodes }); err != nil {
			return err
		}
	}
	return nil
}

// ops issues deterministic puts from every live replica; slot 0's
// acknowledged keys feed the durability ledger.
func (w *kvLoad) ops(step int) {
	e := w.e
	for _, o := range e.occupants() {
		kv, site := o.live.(*isis.KV), o.proc.ID().Site
		for k := 0; k < e.p.KVOpsPerStep; k++ {
			key := fmt.Sprintf("k|%d|%d|%d", site, step, k)
			value := fmt.Sprintf("v|%d|%d|%d", site, step, k)
			e.res.CastsIssued++
			e.async(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
				defer cancel()
				if err := kv.Put(ctx, key, value); err != nil || o.slot != 0 {
					return // failing cleanly under faults is allowed
				}
				w.mu.Lock()
				w.acked[kv] = append(w.acked[kv], key)
				w.mu.Unlock()
			})
		}
	}
}

// settle waits out in-flight puts and joins and for quiet, then probes write
// availability and digest convergence.
func (w *kvLoad) settle() {
	e := w.e
	e.wait()
	if v := quiesce(e.rec.eventCounts, nil, e.p); v != nil {
		e.vios.report(*v)
	}
	replicas := func() []*isis.KV {
		var out []*isis.KV
		for _, o := range e.occupants() {
			out = append(out, o.live.(*isis.KV))
		}
		return out
	}

	// Post-heal availability: with every fault closed, some replica must
	// accept and apply a put again. Issued before the convergence check so
	// the final write is part of the digests being compared.
	served := false
	for try := 0; try < 5 && !served; try++ {
		for _, kv := range replicas() {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			err := kv.Put(ctx, "final", fmt.Sprintf("seed-%d", e.s.Seed))
			cancel()
			if served = err == nil; served {
				break
			}
		}
	}
	if !served {
		state := make([]string, len(e.slots))
		for i := range state {
			state[i] = fmt.Sprintf("slot%d: down", i)
		}
		for _, o := range e.occupants() {
			kv := o.live.(*isis.KV)
			state[o.slot] = fmt.Sprintf("slot%d: len=%d applied=%d [%s]", o.slot, kv.Len(), kv.Applied(), kv.Group().DebugString())
		}
		e.vios.report(Violation{Check: "kv-availability", Group: kvName,
			Detail: fmt.Sprintf("no replica applied a put after all faults healed (joinFailures=%d) %v",
				e.joinFailures.Load(), state)})
	}

	// Digest convergence: every live replica (late joiners still finishing
	// their checkpoint transfer included — Await rechecks) must hold the
	// same map.
	ctx, cancel := context.WithTimeout(context.Background(), e.p.SettleTimeout)
	defer cancel()
	if err := isis.Await(ctx, func() bool {
		kvs := replicas()
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
		if kvs := replicas(); len(kvs) > 0 {
			parts := make([]string, len(kvs))
			for i, kv := range kvs {
				parts[i] = fmt.Sprintf("digest=%016x len=%d applied=%d", kv.Digest(), kv.Len(), kv.Applied())
			}
			detail = fmt.Sprintf("replica maps diverged at quiesce: %v", parts)
		}
		e.vios.report(Violation{Check: "kv-divergence", Group: kvName, Detail: detail})
	}
}

func (w *kvLoad) grade([]*History) map[string]types.Ordering {
	return map[string]types.Ordering{types.FlatGroup(kvName).Key(): types.Total}
}
