package core

import (
	"math"
	"sort"

	"repro/internal/reliability"
	"repro/internal/types"
)

// This file threads the flat-group reliability machinery (internal/
// reliability) through the hops of the tree-structured broadcast, closing
// the loss bug the chaos harness exposed: a KindTreeCast frame dropped
// between leaf subgroups used to be simply gone, because stability and
// NAK/retransmit stopped at the flat-group boundary.
//
// Every whole-group broadcast is a record (origin, seq, floor, payload) —
// see config.go. Each member runs one reliability.Tracker over records,
// keyed by origin, reusing the flat layer's duplicate filter, gap detection,
// retransmit buffer and NAK wire format:
//
//   - dedup: a record can reach a member along several paths (its own stage
//     frame, its leaf's internal cast, a retried stage via a different
//     representative, a repair) — the tracker filters every copy after the
//     first, so delivery is exactly-once per member;
//   - retransmit buffers: the tracker's per-sender buffer holds every
//     unstable record, so *any* member — not just the origin — can serve a
//     NAK, exactly as in the flat layer;
//   - cumulative stability: stage acknowledgements carry the minimum
//     contiguous receive watermark of their subtree up the aggregator path;
//     the initiator folds them into a per-leaf water table whose minimum
//     (the floor) rides down in every later record, and members prune their
//     buffers to it with SetFloor;
//   - NAKs: a member whose record sequence has a persistent gap asks a
//     rotating set of likely holders (its leaf's members, the origin, the
//     leader contacts) for the missing range; holders answer with
//     KindTreeCastRepair clones out of their buffers.
//
// The tracker is created with a nil member list and its stability is driven
// exclusively by SetFloor: the flat layer's Report/Advance path would treat
// "no members" as "everything trivially stable" and prune the buffer that
// NAK serving depends on.

// leaderRefreshTicks paces the recovery tick's leader-replenishment backstop
// (re-inviting while the leader group is short, re-pushing contacts).
const leaderRefreshTicks = 8

// moverMark pins the cumulative stability floor at a relocating member's
// last known leaf watermark while it is between leaves (its old leaf was
// merged away or split). Without the pin, removing the dissolved leaf from
// the tree lets the floor jump past records the mover has not received, and
// once every buffer prunes to the new floor no NAK or state transfer can
// repair it. Landing in the destination leaf is not enough: the mover still
// misses what was cast while it was in flight. The pin is dropped once the
// mover's own watermark, named by its catch-up request (catchUp), reaches
// the floor the leaves allow, or after a grace period (a mover that crashed
// in flight must not wedge the floor forever).
type moverMark struct {
	water  uint64
	expire uint64 // recovery tick after which the pin lapses
}

// moverGraceTicks bounds how long a relocation pin can hold the floor: well
// past one OpTimeout's worth of join retries at the default tick interval.
const moverGraceTicks = 256

// recordKey identifies one broadcast record across arrival paths.
type recordKey struct {
	origin types.ProcessID
	seq    uint64
}

// doneStage caches the completed forwarding stages so a retried stage frame
// (a parent that never saw our ack, or a takeover after a representative
// failover) is re-acknowledged instantly instead of re-run.
type doneStage struct {
	covered  int
	water    uint64
	leafPath []uint32
}

// trkMessage wraps a record as the message shape the tracker buffers: the
// buffered form doubles as the KindTreeCastRepair wire message, so serving a
// NAK is Retrieve + Clone + Send with no re-encoding. Its payload is the
// record's own encoding, not a copy.
func (a *Agent) trkMessage(rec record) *types.Message {
	return &types.Message{
		Kind:    types.KindTreeCastRepair,
		Group:   types.BranchGroup(a.name),
		ID:      types.MsgID{Sender: rec.Origin, Seq: rec.Seq},
		Payload: encodeRecord(rec),
	}
}

// noteRecord runs every record arrival (stage frame, leaf cast, repair)
// through the tracker and delivers it to the application exactly once. It
// reports whether the record was fresh. A copy already held costs no
// allocation: it is counted as the tracker's Note would count it, and no
// message is built for it. Actor goroutine only.
func (a *Agent) noteRecord(rec record) bool {
	// A member that joined mid-stream baselines a never-seen origin at the
	// record's floor (always <= seq-1): it must not NAK for history that
	// predates it, but a floor-to-seq gap is still repairable — the origin
	// may legitimately have cast seq before seq-1 reached us.
	baseline := rec.Floor
	if rec.Seq > 0 && baseline > rec.Seq-1 {
		baseline = rec.Seq - 1
	}
	a.trk.Bootstrap(rec.Origin, baseline)
	fresh := false
	if a.trk.Holds(types.MsgID{Sender: rec.Origin, Seq: rec.Seq}) {
		a.relStats.Duplicates++
	} else {
		fresh = a.trk.Note(a.trkMessage(rec))
	}
	if rec.Floor > 0 {
		// The floor is clamped to our own contiguous watermark inside
		// SetFloor, so it can never prune records we have not yet received.
		a.trk.SetFloor(rec.Origin, rec.Floor)
	}
	if fresh {
		a.statBroadcasts++
		if a.cfg.OnBroadcast != nil {
			a.cfg.OnBroadcast(rec.Payload)
		}
	}
	return fresh
}

// currentFloor computes the initiator's cumulative stability floor: the
// minimum acknowledged watermark across every leaf currently in the tree
// (its own leaf counts at its own contiguous watermark). A leaf that has
// acknowledged nothing yet holds the floor at zero — conservative, never
// wrong. Actor goroutine only.
func (a *Agent) currentFloor() uint64 {
	floor := a.leafFloor()
	for _, mk := range a.moverWater {
		floor = min(floor, mk.water)
	}
	return floor
}

// leafFloor is the floor the leaves alone allow, relocation pins aside.
func (a *Agent) leafFloor() uint64 {
	if a.tree.LeafCount() == 0 {
		return 0
	}
	self := a.stackNode().PID()
	floor := ^uint64(0)
	for _, l := range a.tree.Leaves {
		w := a.leafWater[l.ID.Key()]
		if l.ID.Equal(a.leafID) {
			if own := a.trk.Ctg(self); own > w {
				w = own
			}
		}
		if w < floor {
			floor = w
		}
	}
	return floor
}

// pinMovers records members a split or merge moves to another leaf, pinning
// the floor at their old leaf's acknowledged watermark until they land. Every
// leader member pins (only the coordinator's pins feed a floor), so a
// coordinator that takes over inherits them, at watermark zero.
func (a *Agent) pinMovers(from types.GroupID, movers []types.ProcessID) {
	water := a.leafWater[from.Key()]
	for _, p := range movers {
		if p == a.stackNode().PID() {
			continue // our own tracker already holds the floor via SetFloor's clamp
		}
		a.moverWater[p] = moverMark{water: water, expire: a.recoveryTicks + moverGraceTicks}
	}
}

// raiseWater records that every member of leaf has acknowledged the
// initiator's records up to seq. Watermarks are monotone.
func (a *Agent) raiseWater(leaf types.GroupID, seq uint64) {
	if seq > a.leafWater[leaf.Key()] {
		a.leafWater[leaf.Key()] = seq
	}
}

// onRecoveryTick is the agent's periodic recovery driver: it retries
// unacknowledged stages, NAKs persistent gaps, and prunes initiator-side
// bookkeeping. Runs on the actor goroutine via node.Every.
func (a *Agent) onRecoveryTick() {
	if a.closed {
		return
	}
	a.recoveryTicks++
	a.retryPendingStages()
	a.nakGaps()

	// Leaf reports are one-shot per view change, and the one report that
	// matters most — "our leaf shrank" right after a crash — races the
	// leader group's own eviction of the same crash: it can be sent while
	// the dead coordinator is still the forwarding target and vanish, and
	// the tree then keeps planning stages through dead contacts forever.
	// Re-sending periodically makes the report path self-healing.
	if a.recoveryTicks%leaderRefreshTicks == 0 && a.leaf != nil && !a.leaf.Closed() {
		v := a.leaf.CurrentView()
		if v.Coordinator() == a.stackNode().PID() {
			a.sendLeafReport(leafReport{Leaf: a.leafID, Members: v.Members})
		}
		if a.recoveryTicks <= a.landing && !a.moving {
			a.catchUp()
		}
	}
	// A member whose relocation failed outright, or that its leaf
	// excluded, sits in no leaf, and nothing else would place it again.
	if a.recoveryTicks%leaderRefreshTicks == 0 && !a.moving && a.leaf != nil && a.leaf.Closed() {
		a.moving = true
		go a.relocate(nil, placement{})
	}

	// Initiator housekeeping: waters of leaves that left the tree must not
	// wedge the floor forever, and our own buffer prunes against the live
	// floor directly (other members learn it from the next record).
	if a.leaderCoordinator() {
		// Backstop for lost recruitment traffic: re-invite while the leader
		// group is short, and re-push the contact list (receivers drop
		// no-change pushes, so the steady state is quiet leaf-side).
		if a.recoveryTicks%leaderRefreshTicks == 0 {
			lv := a.leader.CurrentView()
			a.replenishLeaders(lv)
			a.pushLeaderContacts(lv)
		}
		live := make(map[string]bool, a.tree.LeafCount())
		for _, l := range a.tree.Leaves {
			live[l.ID.Key()] = true
		}
		for key := range a.leafWater {
			if !live[key] {
				delete(a.leafWater, key)
			}
		}
		for p, mk := range a.moverWater {
			if a.recoveryTicks > mk.expire {
				delete(a.moverWater, p)
			}
		}
		a.trk.SetFloor(a.stackNode().PID(), a.currentFloor())
	}
	// Completed-stage cache entries below the stability watermark can never
	// be asked about again.
	for key := range a.doneStages {
		if key.seq <= a.trk.Stable(key.origin) {
			delete(a.doneStages, key)
		}
	}
}

// retryPendingStages re-sends the outstanding children of every pending
// stage, rotating each child to its next contact — the failover that
// recovers from a representative that accepted the frame and then died (or
// was black-holed) without a synchronous send error. A leader member also
// refreshes the child's contact list from the live tree, so a plan that
// went stale mid-broadcast stops pointing at departed members.
func (a *Agent) retryPendingStages() {
	if a.cfg.StageRetries < 0 {
		return
	}
	for corr, st := range a.pendingAggs {
		st.retryTicks++
		if st.retryTicks < a.cfg.StageRetryTicks {
			continue
		}
		st.retryTicks = 0
		st.retries++
		if st.retries > a.cfg.StageRetries {
			done := st.agg.Done()
			for _, cs := range st.children {
				if st.agg.ChildOutstanding(cs.stage.Leaf) {
					st.failed = true
					done = st.agg.ChildFailed(cs.stage.Leaf)
				}
			}
			if done {
				delete(a.pendingAggs, corr)
				a.finishStage(st)
			}
			continue
		}
		for _, cs := range st.children {
			if !st.agg.ChildOutstanding(cs.stage.Leaf) {
				continue
			}
			if info, ok := a.tree.Lookup(cs.stage.Leaf); ok && len(info.Contacts) > 0 {
				cs.stage.Contacts = types.CopyProcesses(info.Contacts)
			}
			// The refreshed plan can name this process itself as the child's
			// representative — the tree caught up with an eviction that left
			// us the only live contact of our own leaf. sendStageTo skips
			// self, so without this the stage could never be delivered: run
			// it locally (it casts the record into the leaf) and let its ack
			// flow back through the normal path.
			if types.ContainsProcess(cs.stage.Contacts, a.stackNode().PID()) {
				a.handleStage(cs.stage, st.rec, corr, nil, a.stackNode().PID())
				continue
			}
			// Assume the contact the frame last went to is gone; start the
			// next attempt at the following one. A duplicate frame reaching a
			// representative that already ran the stage is re-acked from its
			// doneStages cache, so over-retrying is safe.
			cs.cursor++
			_ = a.sendStageTo(cs, corr, st.rec)
		}
	}
}

// nakGaps asks a likely holder to retransmit records this member is missing
// once a gap has persisted long enough. The threshold is staggered by leaf
// rank so the leaf coordinator usually repairs (and re-casts into the leaf)
// before the other members NAK for the same range.
func (a *Agent) nakGaps() {
	age := a.trk.GapTick()
	if age == 0 {
		return
	}
	threshold := a.cfg.NakTicks
	if a.leaf != nil && !a.leaf.Closed() {
		if rank := a.leaf.CurrentView().Rank(a.stackNode().PID()); rank > 0 {
			threshold += rank * a.cfg.NakTicks
		}
	}
	if age < threshold {
		return
	}
	byOrigin := make(map[types.ProcessID][]reliability.SeqRange)
	for _, r := range a.trk.Missing() {
		byOrigin[r.Sender] = append(byOrigin[r.Sender], r)
	}
	for origin, ranges := range byOrigin {
		target := a.nakTarget(origin)
		if target.IsNil() {
			continue
		}
		err := a.stackNode().Send(target, &types.Message{
			Kind:    types.KindTreeCastNak,
			Group:   types.BranchGroup(a.name),
			Payload: reliability.EncodeNak(ranges),
		})
		if err == nil {
			a.relStats.NaksSent += uint64(len(ranges))
		}
	}
}

// catchUp asks the leader for every record above this member's watermarks,
// one open-ended NAK range per origin it knows plus the leader
// coordinator's own. A relocated member misses what its old leaf was no
// longer sent and its new leaf delivered before it arrived, and unless a
// later record of the same origin reaches it, nothing shows it the gap. The
// ranges also name its watermarks, which is what releases its relocation
// pin (onTreeCastNak).
func (a *Agent) catchUp() {
	if len(a.leaderContacts) == 0 {
		return
	}
	cut := a.trk.CutVector()
	if _, ok := cut[a.leaderContacts[0]]; !ok {
		cut[a.leaderContacts[0]] = 0
	}
	ranges := make([]reliability.SeqRange, 0, len(cut))
	for p, ctg := range cut {
		ranges = append(ranges, reliability.SeqRange{Sender: p, Lo: ctg + 1, Hi: math.MaxUint64})
	}
	msg := &types.Message{
		Kind:    types.KindTreeCastNak,
		Group:   types.BranchGroup(a.name),
		Payload: reliability.EncodeNak(ranges),
	}
	for _, dest := range a.leaderContacts {
		if dest != a.stackNode().PID() && a.stackNode().Send(dest, msg) == nil {
			return
		}
	}
}

// nakTarget rotates over the processes likely to hold a missing record: the
// other members of our own leaf (the representative that forwarded around us
// certainly buffered it), the origin, and the leader contacts.
func (a *Agent) nakTarget(origin types.ProcessID) types.ProcessID {
	self := a.stackNode().PID()
	var candidates []types.ProcessID
	add := func(p types.ProcessID) {
		if p.IsNil() || p == self || types.ContainsProcess(candidates, p) {
			return
		}
		candidates = append(candidates, p)
	}
	if a.leaf != nil && !a.leaf.Closed() {
		for _, p := range a.leaf.CurrentView().Members {
			add(p)
		}
	}
	add(origin)
	for _, p := range a.leaderContacts {
		add(p)
	}
	if len(candidates) == 0 {
		return types.NilProcess
	}
	pick := candidates[a.nakRR[origin]%len(candidates)]
	a.nakRR[origin]++
	return pick
}

// encodeRecoveryState snapshots the treecast tracker for a leaf-group state
// transfer: every known origin's stability floor and contiguous watermark,
// plus every buffered (unstable) record. A member that moves between leaves
// — its old leaf dissolved under a merge, say — misses the records the
// destination leaf delivered while it was in flight, and nothing replays
// them: intra-leaf casts are not re-sent across a join, and once the
// cumulative floor passes them the NAK path has no buffers left to serve
// from. Handing the joiner the provider's buffer at view-install time closes
// that window. Actor goroutine only.
func (a *Agent) encodeRecoveryState() []byte {
	cut := a.trk.CutVector()
	origins := make([]types.ProcessID, 0, len(cut))
	for p := range cut {
		origins = append(origins, p)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i].Less(origins[j]) })
	b := encodePIDs(nil, origins)
	for _, p := range origins {
		b = types.EncodeUint64(b, a.trk.Stable(p))
		b = types.EncodeUint64(b, cut[p])
	}
	buffered := a.trk.Unstable()
	b = types.EncodeUint64(b, uint64(len(buffered)))
	for _, m := range buffered {
		b = types.EncodeString(b, string(m.Payload))
	}
	return b
}

// applyRecoveryState folds a leaf-group state transfer into the local
// tracker: unknown origins are baselined at the provider's floor (history
// below it predates us and is not recoverable), buffered records are
// delivered through the normal dedup path, and the provider's contiguous
// watermarks become NAKable expectations — so a gap the transfer itself did
// not cover (the provider was lagging too) is detected instead of silently
// trailing. Actor goroutine only.
func (a *Agent) applyRecoveryState(b []byte) {
	origins, rest, ok := decodePIDs(b)
	if !ok {
		return
	}
	floors := make([]uint64, len(origins))
	ctgs := make([]uint64, len(origins))
	for i := range origins {
		if floors[i], rest, ok = types.DecodeUint64(rest); !ok {
			return
		}
		if ctgs[i], rest, ok = types.DecodeUint64(rest); !ok {
			return
		}
	}
	for i, p := range origins {
		a.trk.Bootstrap(p, floors[i])
	}
	n, rest, ok := types.DecodeUint64(rest)
	if !ok {
		return
	}
	for i := uint64(0); i < n; i++ {
		var s string
		if s, rest, ok = types.DecodeString(rest); !ok {
			return
		}
		if rec, recOK := decodeRecord([]byte(s)); recOK {
			a.noteRecord(rec)
		}
	}
	for i, p := range origins {
		a.trk.Expect(p, ctgs[i])
	}
}

// onTreeCastNak serves a retransmission request out of the local buffer.
// Any member holding the records may answer, exactly as in the flat layer.
func (a *Agent) onTreeCastNak(m *types.Message) {
	if a.closed {
		return
	}
	ranges, ok := reliability.DecodeNak(m.Payload)
	if !ok {
		return
	}
	// Any NAK names its sender's contiguous watermark for our records (its
	// lowest range starts just above it). A relocated member's pin can go
	// once that reaches the floor the leaves allow: the floor then never
	// rises above what the mover holds.
	if _, pinned := a.moverWater[m.From]; pinned {
		self := a.stackNode().PID()
		lo := uint64(math.MaxUint64)
		for _, r := range ranges {
			if r.Sender == self {
				lo = min(lo, r.Lo)
			}
		}
		if lo != math.MaxUint64 && lo > a.leafFloor() {
			delete(a.moverWater, m.From)
		}
	}
	budget := 128
	for _, r := range ranges {
		for _, held := range a.trk.Retrieve(r, budget) {
			out := held.Clone()
			out.Corr = 0
			if err := a.stackNode().Send(m.From, out); err != nil {
				return
			}
			a.relStats.NaksServed++
			budget--
		}
		if budget <= 0 {
			return
		}
	}
}

// onTreeCastRepair applies a retransmitted record: deliver it locally if
// fresh, and re-cast it into our own leaf so one repaired member (typically
// the leaf coordinator) heals the whole leaf.
func (a *Agent) onTreeCastRepair(m *types.Message) {
	if a.closed {
		return
	}
	rec, ok := decodeRecord(m.Payload)
	if !ok {
		return
	}
	if a.noteRecord(rec) && a.leaf != nil && !a.leaf.Closed() {
		a.leaf.CastAsync(a.cfg.Ordering, encodeLeafCast(tagBroadcast, 0, encodeRecord(rec)))
	}
}
