package group

import (
	"fmt"
	"hash/fnv"
	"path/filepath"

	"repro/internal/types"
	"repro/internal/wal"
)

// This file binds a group membership to its write-ahead delivery log. The
// log's lifecycle follows the membership: opened at Create/Join registration
// (when the stack has a WAL directory and the group a state handler),
// appended to for every applied delivery, compacted to the checkpoint at
// install-time captures, and closed when the member leaves. Only Create
// replays the log — a founding member is the one case where disk is the
// freshest copy of the group's state; a joiner's log is reset and re-seeded
// by its incoming transfer.
//
// Appends are group-committed: a delivery's record is only encoded, the
// group joins the stack's walDirty list, and the node's step-end hook
// (Stack.writeWALs) writes each listed log with one write(2) before the
// actor takes its next frame or action — so a record is in the file before
// the step that applied it returns, and a stopped node, which stops only
// between steps, has written every record it applied. The recovery tick
// starts the fsync on a background goroutine (wal.Log.StartSync), so the
// actor never waits on the disk outside a compaction or a graceful drain.

// walPath maps a group id into the stack's WAL directory. The name hashes
// the group key so hierarchical path-qualified ids stay filesystem-safe.
func walPath(dir string, gid types.GroupID) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(gid.Key()))
	return filepath.Join(dir, fmt.Sprintf("g-%016x.wal", h.Sum64()))
}

// openWAL attaches the group's log and returns its recovered content. fresh
// discards any existing content first (the Join path: whatever a previous
// incarnation logged is superseded by the incoming state transfer). A log
// that fails to open leaves the group running in-memory — durability is an
// option, not a liveness dependency.
func (g *Group) openWAL(fresh bool) wal.Recovered {
	if g.stack.walDir == "" || g.state == nil {
		return wal.Recovered{}
	}
	l, rec, err := wal.Open(walPath(g.stack.walDir, g.id))
	if err != nil {
		return wal.Recovered{}
	}
	g.wal = l
	if fresh {
		_ = l.Reset()
		return wal.Recovered{}
	}
	return rec
}

// recoverFromWAL rebuilds application state from the log: restore the last
// checkpoint, then replay the deliveries logged after it through the
// handler's Apply when it has one (so recovery does not re-trigger side
// effects wired into OnDeliver) or the OnDeliver callback otherwise.
func (g *Group) recoverFromWAL(rec wal.Recovered) {
	if g.state == nil || (rec.Snapshot == nil && len(rec.Deliveries) == 0) {
		return
	}
	if rec.Snapshot != nil {
		if err := g.state.Restore(rec.Snapshot.Payload); err != nil {
			return
		}
	}
	applier, _ := g.state.(StateApplier)
	for _, m := range rec.Deliveries {
		d := Delivery{
			Group:    g.id,
			View:     m.View,
			From:     m.ID.Sender,
			ID:       m.ID,
			Ordering: m.Ordering,
			Seq:      m.Seq,
			Payload:  m.Payload,
		}
		if applier != nil {
			applier.Apply(d)
		} else if g.cfg.OnDeliver != nil {
			g.cfg.OnDeliver(d)
		}
	}
}

// walAppend logs one applied delivery: the record is buffered and written at
// the end of the actor step (writeWALs); the recovery tick batches the fsync.
func (g *Group) walAppend(d *Delivery) {
	if g.wal == nil {
		return
	}
	m := &types.Message{
		Kind:     types.KindCast,
		Group:    g.id,
		View:     d.View,
		ID:       d.ID,
		Ordering: d.Ordering,
		Seq:      d.Seq,
		Payload:  d.Payload,
	}
	if err := g.wal.Append(m); err == nil {
		g.stateStats.WALAppends++
	}
	if !g.walQueued {
		g.walQueued = true
		g.stack.walDirty = append(g.stack.walDirty, g)
	}
}

// walWrite writes the records the current step appended (writeWALs). A
// failed write costs the log those records and nothing else: durability is
// an option, not a liveness dependency (openWAL).
func (g *Group) walWrite() {
	g.walQueued = false
	if g.wal != nil {
		_ = g.wal.Flush()
	}
}

// walSnapshot rewrites the log to a single checkpoint record.
func (g *Group) walSnapshot(view types.ViewID, data []byte) {
	if g.wal == nil {
		return
	}
	if err := g.wal.AppendSnapshot(view, data); err == nil {
		g.stateStats.WALCompactions++
	}
}

// walCompactMaybe compacts at a checkpoint capture when enough deliveries
// accumulated since the last snapshot record (or the log is still empty).
func (g *Group) walCompactMaybe(view types.ViewID, data []byte) {
	if g.wal == nil {
		return
	}
	if g.wal.Size() == 0 || g.wal.SinceSnapshot() >= walCompactBytes {
		g.walSnapshot(view, data)
	}
}

// walTick starts the batched fsync from the recovery tick, on a background
// goroutine; a tick that finds the previous one still running leaves the
// log dirty for the next.
func (g *Group) walTick() {
	if g.wal != nil {
		_ = g.wal.StartSync()
	}
}

// closeWAL writes, syncs and detaches the log (leave/removal).
func (g *Group) closeWAL() {
	if g.wal != nil {
		_ = g.wal.Close()
		g.stateStats.WALWrites += g.wal.Writes()
		g.wal = nil
	}
}
