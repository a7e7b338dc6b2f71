package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/treecast"
	"repro/internal/types"
)

// This file implements the two data paths of a large group:
//
//   - request routing: a client's request is directed to a *single* leaf
//     subgroup, where the leaf coordinator executes it coordinator-cohort
//     style: it runs the handler, answers the client, then casts one leaf
//     envelope carrying the request and its result to the leaf's cohorts
//     only, so the cost of a request is bounded by the leaf size no matter
//     how large the whole service grows;
//   - whole-group broadcast: when every member really must be reached, the
//     broadcast is forwarded along the fanout-bounded tree of leaf
//     subgroups (internal/treecast) instead of one sender contacting every
//     member directly. Loss, dead representatives and stale plans are
//     recovered by the hierarchy recovery layer (recovery.go): stage
//     retries with contact failover, cumulative stability watermarks on the
//     ack path, and NAK/retransmit over broadcast records.

// --- request routing ------------------------------------------------------------

// onRoute handles a KindHRoute message. Hop 0 means the message just entered
// the hierarchy (from a client or a member acting as entry point); hop 1
// means it has already been assigned to this process's leaf.
func (a *Agent) onRoute(m *types.Message) {
	if a.closed {
		_ = a.stackNode().Reply(m, nil, types.ErrNoSuchGroup.Error())
		return
	}
	if m.Hop == 0 && a.leaderCoordinator() {
		// Entry point with the full picture: pick a leaf and forward.
		a.reqCounter++
		target, ok := a.tree.PickForRequest(a.reqCounter)
		if !ok {
			_ = a.stackNode().Reply(m, nil, types.ErrNoSuchGroup.Error())
			return
		}
		if target.Coordinator() == a.stackNode().PID() {
			a.serveRequest(m)
			return
		}
		fwd := m.Clone()
		fwd.Hop = 1
		fwd.Path = append([]uint32(nil), target.ID.Path...)
		if fwd.ReplyTo.IsNil() {
			fwd.ReplyTo = m.From
		}
		if err := a.stackNode().Send(target.Coordinator(), fwd); err != nil {
			_ = a.stackNode().Reply(m, nil, err.Error())
		}
		return
	}
	if m.Hop == 0 && a.leader != nil {
		// A leader member that is not the coordinator: pass it on.
		if !a.forwardToLeader(m) {
			a.serveRequest(m)
		}
		return
	}
	// Either this request was explicitly routed to our leaf (hop 1) or a
	// client contacted a cached leaf member directly (hop 0 at a non-leader).
	a.serveRequest(m)
}

// serveRequest executes one request coordinator-cohort style inside the
// local leaf. If this process is no longer the leaf coordinator it forwards
// to the current one.
//
// After the reply the coordinator casts one leaf envelope carrying the
// request and its result (tagCohort): a reliable leaf-wide record of what
// was asked and answered. No cohort takes over from it — a coordinator that
// crashes before the cast leaves no record, and the client's retry, routed
// to the leaf's next coordinator, executes the request again.
func (a *Agent) serveRequest(m *types.Message) {
	if a.leaf == nil || a.leaf.Closed() {
		_ = a.stackNode().Reply(m, nil, types.ErrNoSuchGroup.Error())
		return
	}
	self := a.stackNode().PID()
	lv := a.leaf.CurrentView()
	if lv.Coordinator() != self {
		fwd := m.Clone()
		fwd.Hop = 1
		if fwd.ReplyTo.IsNil() {
			fwd.ReplyTo = m.From
		}
		if err := a.stackNode().Send(lv.Coordinator(), fwd); err != nil {
			_ = a.stackNode().Reply(m, nil, err.Error())
		}
		return
	}
	if a.cfg.RequestHandler == nil {
		_ = a.stackNode().Reply(m, nil, "service has no request handler")
		return
	}
	result := a.cfg.RequestHandler(m.Payload)
	a.statRequestsHandled++
	_ = a.stackNode().Reply(m, result, "")
	a.leaf.CastAsync(a.cfg.Ordering, encodeCohortCopy(m.Corr, m.Payload, result))
}

// --- whole-group broadcast --------------------------------------------------------

// Broadcast delivers payload to every member of the large group using the
// tree-structured broadcast, and blocks until the forwarding tree has
// acknowledged (or ctx expires). It returns the number of members covered by
// acknowledged leaves.
//
// The initiator answers within its OpTimeout stage backstop
// (armTreeCastTimeout), so the wait is bounded at OpTimeout plus 100 ms for
// the answer's trip back: a hop-0 request that is lost, or forwarded to a
// leader coordinator that dies, gets ErrTimeout instead of waiting out ctx.
// It is not retried, because a retry could deliver the payload twice.
func (a *Agent) Broadcast(ctx context.Context, payload []byte) (int, error) {
	ctx, cancel := context.WithTimeout(ctx, a.cfg.OpTimeout+100*time.Millisecond)
	defer cancel()
	reply, err := a.stackNode().Request(ctx, a.stackNode().PID(), &types.Message{
		Kind:    types.KindTreeCast,
		Group:   types.BranchGroup(a.name),
		Hop:     0,
		Payload: payload,
	})
	if err != nil {
		return 0, fmt.Errorf("broadcast to %q: %w", a.name, err)
	}
	covered, _, _ := types.DecodeUint64(reply.Payload)
	return int(covered), nil
}

// LeafCast multicasts an application payload within this process's own leaf
// subgroup only.
func (a *Agent) LeafCast(ctx context.Context, payload []byte) error {
	leaf := a.Leaf()
	if leaf == nil {
		return fmt.Errorf("leaf cast in %q: %w", a.name, types.ErrNotMember)
	}
	return leaf.Cast(ctx, a.cfg.Ordering, encodeLeafCast(tagAppCast, 0, payload))
}

// onTreeCast handles both the initiation of a tree broadcast (hop 0,
// handled by the leader coordinator which knows the subgroup tree) and a
// forwarding stage (hop >= 1, handled by a leaf representative).
func (a *Agent) onTreeCast(m *types.Message) {
	if a.closed {
		return
	}
	if m.Hop == 0 {
		if !a.leaderCoordinator() {
			if !a.forwardToLeader(m) {
				_ = a.stackNode().Reply(m, nil, types.ErrNoSuchGroup.Error())
			}
			return
		}
		a.initiateTreeCast(m)
		return
	}
	a.forwardTreeCast(m)
}

// initiateTreeCast stamps the broadcast as a record — the next sequence
// number of this origin's stream plus the current stability floor — plans
// the forwarding tree, and runs (or delegates) the root stage. The record is
// encoded here once; every stage frame, leaf cast and buffered repair copy
// reuses those bytes.
func (a *Agent) initiateTreeCast(m *types.Message) {
	leaves := make([]treecast.LeafDescriptor, 0, a.tree.LeafCount())
	for _, l := range a.tree.Leaves {
		leaves = append(leaves, treecast.LeafDescriptor{ID: l.ID, Contacts: l.Contacts, Size: l.Size})
	}
	plan, err := treecast.Plan(leaves, a.cfg.Fanout)
	if err != nil {
		_ = a.stackNode().Reply(m, nil, err.Error())
		return
	}
	self := a.stackNode().PID()
	a.bcastSeq++
	rec := sealRecord(record{Origin: self, Seq: a.bcastSeq, Floor: a.currentFloor(), Payload: m.Payload})
	if types.ContainsProcess(plan.Contacts, self) {
		// The initiator is itself the root stage's representative (the usual
		// case: the founder coordinates both the leader group and leaf 0), so
		// it runs the root stage directly and answers the requester when the
		// whole tree has acknowledged.
		a.handleStage(plan, rec, 0, m.Clone(), types.NilProcess)
		return
	}
	// Otherwise hand the root stage to its representative and wait for its
	// single acknowledgement. The initiator delivers (and buffers) its own
	// record immediately; its leaf is covered by one of the plan's stages.
	a.noteRecord(rec)
	corr := a.stackNode().NextCorr()
	agg := treecast.NewAggregator(corr, types.NilProcess, []*treecast.Stage{plan})
	agg.LocalDone(0)
	st := &aggState{
		agg:      agg,
		origin:   m.Clone(),
		rec:      rec,
		children: map[string]*childState{plan.Leaf.Key(): {stage: plan}},
		waters:   make(map[string]uint64),
	}
	if err := a.sendStageTo(st.children[plan.Leaf.Key()], corr, rec); err != nil && a.cfg.StageRetries < 0 {
		_ = a.stackNode().Reply(m, nil, err.Error())
		return
	}
	a.pendingAggs[corr] = st
	st.cancel = a.armTreeCastTimeout(corr)
}

func (a *Agent) forwardTreeCast(m *types.Message) {
	plan, rec, ok := decodeStageFrame(m.Payload)
	if !ok {
		return
	}
	a.handleStage(plan, rec, m.Corr, nil, m.From)
}

// handleStage runs one forwarding stage of a tree broadcast: deliver inside
// the local leaf, forward to child stages, and acknowledge upward (to the
// parent forwarder, or to the original requester when origin is set) once
// everything below has acknowledged. Duplicate stage frames — a parent
// retrying through us, or through us after another contact — are absorbed:
// a completed stage re-acks from cache, an in-progress one re-targets its
// eventual ack at the newest parent.
func (a *Agent) handleStage(plan *treecast.Stage, rec record, upCorr uint64, origin *types.Message, parent types.ProcessID) {
	key := recordKey{origin: rec.Origin, seq: rec.Seq}
	a.noteRecord(rec)
	if origin == nil {
		if d, ok := a.doneStages[key]; ok {
			a.sendStageAck(parent, upCorr, rec.Origin, d.leafPath, d.covered, d.water)
			return
		}
		if corr, ok := a.stageCorr[key]; ok {
			if st, live := a.pendingAggs[corr]; live {
				st.agg.Corr = upCorr
				st.parent = parent
				return
			}
			delete(a.stageCorr, key)
		}
		// A representative that has left the plan's leaf, or is leaving it,
		// must not run the stage: its ack would vouch for members it no
		// longer reaches. Dropping the frame lets the parent's retry fail
		// over to the leaf's next contact.
		if a.moving || a.leaf == nil || a.leaf.Closed() || !a.leafID.Equal(plan.Leaf) {
			return
		}
	}
	// Downstream stages are re-correlated with a locally unique id so
	// concurrent broadcasts from different initiators cannot collide in the
	// pending table.
	downCorr := a.stackNode().NextCorr()
	agg := treecast.NewAggregator(upCorr, parent, plan.Children)
	st := &aggState{
		agg:      agg,
		origin:   origin,
		parent:   parent,
		leafID:   plan.Leaf,
		rec:      rec,
		children: make(map[string]*childState, len(plan.Children)),
		waters:   make(map[string]uint64, len(plan.Children)),
	}
	for _, c := range plan.Children {
		st.children[c.Leaf.Key()] = &childState{stage: c}
	}

	// Deliver within our own leaf. The leaf counts as covered only once
	// another leaf member holds the leaf cast (castToLeaf), not when the cast
	// is sent: a representative that crashed with its leaf cast in flight
	// would vouch for records none of its leaf-mates hold, the floor would
	// rise over them and no buffer would be left to serve their NAKs.
	done := false
	if a.leaf != nil && !a.leaf.Closed() {
		st.local = a.trk.Ctg(rec.Origin)
		a.castToLeaf(downCorr, rec)
	} else {
		done = agg.LocalDone(0)
	}

	for _, cs := range st.children {
		if err := a.sendStageTo(cs, downCorr, rec); err != nil {
			// Every contact refused synchronously. With retries on, leave the
			// child outstanding: the tree may simply be stale (a crash the
			// leader has noticed but this plan predates), and the retry timer
			// refreshes contacts from the live tree before trying again.
			if a.cfg.StageRetries >= 0 {
				continue
			}
			st.failed = true
			done = agg.ChildFailed(cs.stage.Leaf)
		}
	}
	if done {
		a.finishStage(st)
		return
	}
	a.pendingAggs[downCorr] = st
	if origin == nil {
		a.stageCorr[key] = downCorr
	}
	st.cancel = a.armTreeCastTimeout(downCorr)
}

// castToLeaf casts a stage's record into the local leaf and completes the
// stage's own part once another leaf member holds it (Group.CastAsyncHeld).
// The cast goes out for a record this member already held too (receivers
// dedup it): acknowledgements are cumulative, so its quorum also covers
// every earlier cast of this member's into the leaf — everything up to the
// watermark the stage acknowledges with (aggState.local). A cast that fails
// leaves the stage failed: it acknowledges with a zero watermark.
func (a *Agent) castToLeaf(corr uint64, rec record) {
	size := a.leaf.Size()
	a.leaf.CastAsyncHeld(a.cfg.Ordering, encodeLeafCast(tagBroadcast, corr, encodeRecord(rec)), func(err error) {
		st, ok := a.pendingAggs[corr]
		if !ok {
			return // the stage's backstop finished it already
		}
		if err != nil {
			st.failed, size = true, 0
		}
		if st.agg.LocalDone(size) {
			delete(a.pendingAggs, corr)
			a.finishStage(st)
		}
	})
}

// sendStageTo delivers a stage frame to the first reachable contact of one
// child stage, starting at the child's rotating cursor. A synchronous send
// error (crashed or partitioned contact) fails over to the next contact
// immediately; a black-holed contact is only discovered by the retry timer,
// which advances the cursor before calling back in.
func (a *Agent) sendStageTo(cs *childState, corr uint64, rec record) error {
	self := a.stackNode().PID()
	msg := &types.Message{
		Kind:    types.KindTreeCast,
		Group:   types.BranchGroup(a.name),
		Hop:     1,
		Corr:    corr,
		Payload: encodeStageFrame(cs.stage, rec),
	}
	n := len(cs.stage.Contacts)
	var lastErr error = types.ErrNoSuchProcess
	for i := 0; i < n; i++ {
		idx := (cs.cursor + i) % n
		c := cs.stage.Contacts[idx]
		if c == self {
			continue
		}
		if err := a.stackNode().Send(c, msg); err == nil {
			cs.cursor = idx
			return nil
		} else {
			lastErr = err
		}
	}
	return fmt.Errorf("tree cast stage %s: %w", cs.stage.Leaf, lastErr)
}

// onTreeCastAck folds one child subtree's acknowledgement into the pending
// stage: coverage counts toward the aggregate, and the subtree's minimum
// receive watermark (piggybacked in Stab) feeds the cumulative stability
// computation.
func (a *Agent) onTreeCastAck(m *types.Message) {
	st, ok := a.pendingAggs[m.Corr]
	if !ok {
		return
	}
	leaf := types.LeafGroup(a.name, m.Path...)
	if !st.agg.ChildOutstanding(leaf) {
		return
	}
	if len(m.Stab) > 0 && m.Stab[0].Sender == st.rec.Origin {
		st.waters[leaf.Key()] = m.Stab[0].Seq
	}
	if st.agg.ChildDone(leaf, int(m.Seq)) {
		delete(a.pendingAggs, m.Corr)
		a.finishStage(st)
	}
}

// finishStage completes one stage: the initiator absorbs the subtree
// watermarks and answers the original requester; a forwarder caches the
// outcome for re-acks and acknowledges to its parent with the minimum
// watermark of its subtree. A stage that failed (unreachable or abandoned
// children) reports a zero watermark — the initiator then keeps the floor
// below the affected records until a later broadcast's ack path covers them.
func (a *Agent) finishStage(st *aggState) {
	if st.cancel != nil {
		st.cancel()
		st.cancel = nil
	}
	key := recordKey{origin: st.rec.Origin, seq: st.rec.Seq}
	delete(a.stageCorr, key)
	var water uint64
	if !st.failed {
		water = st.local
		for _, cs := range st.children {
			w, ok := st.waters[cs.stage.Leaf.Key()]
			if !ok {
				w = 0
			}
			if w < water {
				water = w
			}
		}
	}
	if st.origin != nil {
		a.absorbWaters(st)
		_ = a.stackNode().Reply(st.origin, types.EncodeUint64(nil, uint64(st.agg.Covered())), "")
		return
	}
	a.doneStages[key] = doneStage{covered: st.agg.Covered(), water: water, leafPath: st.leafID.Path}
	a.sendStageAck(st.parent, st.agg.Corr, st.rec.Origin, st.leafID.Path, st.agg.Covered(), water)
}

// absorbWaters runs on the initiator when a broadcast completes: every leaf
// under a fully acknowledged child subtree has received the origin's records
// up to the subtree's reported watermark, and the initiator's own leaf sits
// at its own contiguous watermark. The per-leaf water table's minimum is the
// floor later records carry down.
func (a *Agent) absorbWaters(st *aggState) {
	if !st.failed && st.local > 0 {
		a.raiseWater(a.leafID, st.local)
	}
	for _, cs := range st.children {
		w := st.waters[cs.stage.Leaf.Key()]
		if w == 0 {
			continue
		}
		for _, leaf := range treecast.Leaves(cs.stage) {
			a.raiseWater(leaf, w)
		}
	}
}

// sendStageAck acknowledges one completed stage upward, carrying the
// subtree's minimum receive watermark for the record's origin.
func (a *Agent) sendStageAck(parent types.ProcessID, corr uint64, origin types.ProcessID, path []uint32, covered int, water uint64) {
	if parent.IsNil() {
		return
	}
	_ = a.stackNode().Send(parent, &types.Message{
		Kind:  types.KindTreeCastAck,
		Group: types.BranchGroup(a.name),
		Corr:  corr,
		Path:  append([]uint32(nil), path...),
		Seq:   uint64(covered),
		Stab:  []types.StabEntry{{Sender: origin, Seq: water}},
	})
}

// armTreeCastTimeout makes sure a broadcast stage eventually acknowledges
// upward even if part of its subtree never answers; the stage is marked
// failed so its ack carries a zero watermark and the floor stays put.
func (a *Agent) armTreeCastTimeout(corr uint64) (cancel func()) {
	return a.stackNode().After(a.cfg.OpTimeout, func() {
		st, ok := a.pendingAggs[corr]
		if !ok {
			return
		}
		delete(a.pendingAggs, corr)
		if !st.agg.Done() {
			st.failed = true
		}
		st.cancel = nil
		a.finishStage(st)
	})
}
