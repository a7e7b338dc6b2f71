package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/group"
	"repro/internal/member"
	"repro/internal/node"
	"repro/internal/reliability"
	"repro/internal/treecast"
	"repro/internal/types"
)

// Agent is one process's participation in one large group. Every agent is a
// member of exactly one leaf subgroup; the first cfg.LeaderSize agents are
// additionally members of the resilient leader group that manages the
// subgroup tree.
type Agent struct {
	host *Host
	name string
	cfg  Config

	// Actor-owned state.
	leaf           *group.Group
	leafID         types.GroupID
	leader         *group.Group
	tree           *Tree
	leaderContacts []types.ProcessID
	moving         bool
	leaderJoining  bool
	closed         bool
	reqCounter     uint64
	pendingAggs    map[uint64]*aggState

	// Hierarchy recovery state (actor-owned; see recovery.go). trk tracks
	// every tree-broadcast record by origin — duplicate filter, gap NAKs,
	// retransmit buffer; it is driven by SetFloor, never Report/Advance.
	// bcastSeq numbers this process's own broadcasts; leafWater is the
	// initiator's per-leaf acknowledged watermark table; doneStages caches
	// completed forwarding stages for re-acks; stageCorr maps in-progress
	// records to their pending aggregation; nakRR rotates NAK targets.
	trk           *reliability.Tracker
	relStats      *reliability.Stats
	recoveryTicks uint64
	bcastSeq      uint64
	leafWater     map[string]uint64
	moverWater    map[types.ProcessID]moverMark
	doneStages    map[recordKey]doneStage
	stageCorr     map[recordKey]uint64
	nakRR         map[types.ProcessID]int
	recoveryStop  func()

	// Statistics (actor-owned; snapshots taken via Stats).
	statRequestsHandled uint64
	statCohortCopies    uint64
	statBroadcasts      uint64

	// Snapshot fields readable from any goroutine.
	mu       sync.Mutex
	snapLeaf *group.Group
	snapLead bool
}

// aggState tracks one tree broadcast this process is forwarding or
// initiating.
type aggState struct {
	agg    *treecast.Aggregator
	origin *types.Message // non-nil on the initiator: the request to answer
	parent types.ProcessID
	leafID types.GroupID
	rec    record // the broadcast being forwarded

	// children mirrors the aggregator's outstanding set with the plan and
	// per-child contact cursor the retry timer needs; waters collects each
	// acknowledged subtree's minimum receive watermark.
	children map[string]*childState
	waters   map[string]uint64

	retryTicks int
	retries    int
	failed     bool   // a subtree was given up: ack with a zero watermark
	cancel     func() // pending OpTimeout backstop
}

// childState is one child stage plus the rotating contact cursor its
// re-sends fail over with.
type childState struct {
	stage  *treecast.Stage
	cursor int
}

func newAgent(h *Host, name string, cfg Config) *Agent {
	a := &Agent{
		host:        h,
		name:        name,
		cfg:         cfg,
		pendingAggs: make(map[uint64]*aggState),
		relStats:    &reliability.Stats{},
		leafWater:   make(map[string]uint64),
		moverWater:  make(map[types.ProcessID]moverMark),
		doneStages:  make(map[recordKey]doneStage),
		stageCorr:   make(map[recordKey]uint64),
		nakRR:       make(map[types.ProcessID]int),
	}
	a.trk = reliability.NewTracker(h.stack.Node().PID(), nil, a.relStats)
	return a
}

// Name returns the large group's name.
func (a *Agent) Name() string { return a.name }

// Leaf returns the leaf subgroup this process currently belongs to.
func (a *Agent) Leaf() *group.Group {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.snapLeaf
}

// IsLeader reports whether this process is a member of the leader group.
func (a *Agent) IsLeader() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.snapLead
}

// LeaderContacts returns the currently known leader-group contacts.
func (a *Agent) LeaderContacts() []types.ProcessID {
	var out []types.ProcessID
	_ = a.stackNode().Call(func() { out = types.CopyProcesses(a.leaderContacts) })
	return out
}

// Tree returns a copy of the subgroup tree as this process knows it (only
// leader members hold one; others get an empty tree).
func (a *Agent) Tree() *Tree {
	var t *Tree
	_ = a.stackNode().Call(func() {
		if a.tree != nil {
			t = a.tree.Clone()
		}
	})
	if t == nil {
		t = NewTree(a.name, a.cfg.Fanout)
	}
	return t
}

// Stats is a snapshot of per-agent counters used by experiments.
type Stats struct {
	RequestsHandled uint64
	CohortCopies    uint64
	Broadcasts      uint64
}

// LeafID returns the id of the leaf subgroup this process currently belongs
// to (zero value before the agent has been placed).
func (a *Agent) LeafID() types.GroupID {
	var id types.GroupID
	_ = a.stackNode().Call(func() { id = a.leafID })
	return id
}

// RecoveryStats returns the hierarchy recovery layer's counters — the
// NAK/retransmit and pruning work done for tree broadcasts on this process.
func (a *Agent) RecoveryStats() reliability.Stats {
	var s reliability.Stats
	_ = a.stackNode().Call(func() { s = *a.relStats })
	return s
}

// Stats returns the agent's counters.
func (a *Agent) Stats() Stats {
	var s Stats
	_ = a.stackNode().Call(func() {
		s = Stats{
			RequestsHandled: a.statRequestsHandled,
			CohortCopies:    a.statCohortCopies,
			Broadcasts:      a.statBroadcasts,
		}
	})
	return s
}

// stackNode returns the node hosting this agent's process.
func (a *Agent) stackNode() *node.Node { return a.host.stack.Node() }

// --- bootstrap and join ---------------------------------------------------------

// bootstrap founds the large group: this process becomes the first leader
// member and the first (sole) member of leaf 0.
func (a *Agent) bootstrap() error {
	self := a.stackNode().PID()
	tree := NewTree(a.name, a.cfg.Fanout)
	info := tree.AddLeaf(self)

	if err := a.stackNode().Call(func() {
		a.tree = tree
		a.leaderContacts = []types.ProcessID{self}
	}); err != nil {
		return err
	}

	leader, err := a.host.stack.Create(types.LeaderGroup(a.name), a.leaderGroupConfig())
	if err != nil {
		return fmt.Errorf("large group %q: create leader group: %w", a.name, err)
	}
	leaf, err := a.host.stack.Create(info.ID, a.leafGroupConfig(info.ID))
	if err != nil {
		return fmt.Errorf("large group %q: create leaf group: %w", a.name, err)
	}
	return a.adopt(leaf, info.ID, leader)
}

// joinVia requests placement from any participant and joins the assigned
// leaf (and possibly the leader group).
func (a *Agent) joinVia(ctx context.Context, contact types.ProcessID) error {
	for {
		pl, err := a.requestPlacement(ctx, contact)
		if err != nil {
			return err
		}
		if err := a.stackNode().Call(func() {
			if len(pl.LeaderContacts) > 0 {
				a.leaderContacts = types.CopyProcesses(pl.LeaderContacts)
			} else {
				a.leaderContacts = []types.ProcessID{contact}
			}
		}); err != nil {
			return err
		}

		var leaf *group.Group
		if pl.Create {
			leaf, err = a.host.stack.Create(pl.Leaf, a.leafGroupConfig(pl.Leaf))
		} else {
			leaf, err = a.joinLeaf(ctx, pl.Leaf, pl.Contacts)
		}
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("join large group %q: %w", a.name, types.ErrTimeout)
			}
			// The assigned leaf may have dissolved in the meantime; ask for a
			// fresh placement.
			continue
		}

		var leader *group.Group
		if pl.AlsoLeader {
			lg, lerr := a.host.stack.Join(ctx, pl.LeaderGroup, pl.LeaderContacts[0], a.leaderGroupConfig())
			if lerr == nil {
				leader = lg
			}
			// Failing to join the leader group is not fatal: the process is
			// still a regular member of the service.
		}
		return a.adopt(leaf, pl.Leaf, leader)
	}
}

func (a *Agent) requestPlacement(ctx context.Context, contact types.ProcessID) (placement, error) {
	reply, err := a.stackNode().Request(ctx, contact, &types.Message{
		Kind:  types.KindHJoinRequest,
		Group: types.BranchGroup(a.name),
	})
	if err != nil {
		return placement{}, fmt.Errorf("join large group %q via %v: %w", a.name, contact, err)
	}
	pl, ok := decodePlacement(reply.Payload)
	if !ok {
		return placement{}, fmt.Errorf("join large group %q: malformed placement: %w", a.name, types.ErrRejected)
	}
	return pl, nil
}

func (a *Agent) joinLeaf(ctx context.Context, leafID types.GroupID, contacts []types.ProcessID) (*group.Group, error) {
	var lastErr error = types.ErrNoSuchGroup
	for _, c := range contacts {
		sub, cancel := context.WithTimeout(ctx, a.cfg.OpTimeout)
		g, err := a.host.stack.Join(sub, leafID, c, a.leafGroupConfig(leafID))
		cancel()
		if err == nil {
			return g, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

// adopt installs the leaf/leader group references and starts the hierarchy
// recovery timer.
func (a *Agent) adopt(leaf *group.Group, leafID types.GroupID, leader *group.Group) error {
	err := a.stackNode().Call(func() {
		a.leaf = leaf
		a.leafID = leafID
		if leader != nil {
			a.leader = leader
			if a.tree == nil {
				a.tree = NewTree(a.name, a.cfg.Fanout)
			}
		}
		if a.recoveryStop == nil {
			a.recoveryStop = a.stackNode().Every(a.cfg.RecoveryInterval, a.onRecoveryTick)
		}
	})
	if err != nil {
		return err
	}
	a.mu.Lock()
	a.snapLeaf = leaf
	a.snapLead = leader != nil
	a.mu.Unlock()
	return nil
}

// Leave removes this process from the large group (its leaf and, if
// applicable, the leader group).
func (a *Agent) Leave(ctx context.Context) error {
	var leaf, leader *group.Group
	_ = a.stackNode().Call(func() {
		leaf, leader = a.leaf, a.leader
		a.closed = true
		if a.recoveryStop != nil {
			a.recoveryStop()
			a.recoveryStop = nil
		}
	})
	var firstErr error
	if leaf != nil && !leaf.Closed() {
		if err := leaf.Leave(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if leader != nil && !leader.Closed() {
		if err := leader.Leave(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	_ = a.stackNode().Call(func() { a.host.remove(a.name) })
	return firstErr
}

// --- group configurations -------------------------------------------------------

func (a *Agent) leafGroupConfig(leafID types.GroupID) group.Config {
	return group.Config{
		Resiliency: a.cfg.Resiliency,
		OnView: func(v member.View) {
			a.onLeafView(leafID, v)
		},
		OnDeliver: func(d group.Delivery) {
			a.onLeafDelivery(d)
		},
		// The checkpoint hands a joiner the treecast tracker's buffered
		// records and watermarks (a member relocating between leaves would
		// otherwise permanently miss every broadcast the destination leaf
		// delivered while it was in flight) plus, when the service carries
		// application state, the application's snapshot.
		State: leafState{a},
	}
}

func (a *Agent) leaderGroupConfig() group.Config {
	return group.Config{
		Resiliency: a.cfg.Resiliency,
		OnView: func(v member.View) {
			a.onLeaderView(v)
		},
		OnDeliver: func(d group.Delivery) {
			a.onLeaderDelivery(d)
		},
		State: leaderState{a},
	}
}

// leafState is a leaf group's checkpoint: the hierarchy's recovery state
// (length-prefixed) followed by the optional application snapshot. It runs on
// the actor goroutine, like every group callback.
type leafState struct{ a *Agent }

func (s leafState) Snapshot() ([]byte, error) {
	rec := s.a.encodeRecoveryState()
	b := types.EncodeUint64(nil, uint64(len(rec)))
	b = append(b, rec...)
	if s.a.cfg.State != nil {
		app, err := s.a.cfg.State.Snapshot()
		if err != nil {
			return nil, err
		}
		b = append(b, 1)
		b = append(b, app...)
		return b, nil
	}
	return append(b, 0), nil
}

func (s leafState) Restore(b []byte) error {
	n, rest, ok := types.DecodeUint64(b)
	if !ok || uint64(len(rest)) < n {
		return fmt.Errorf("core: leaf checkpoint truncated: %w", types.ErrRejected)
	}
	s.a.applyRecoveryState(rest[:n])
	rest = rest[n:]
	if len(rest) >= 1 && rest[0] == 1 && s.a.cfg.State != nil {
		return s.a.cfg.State.Restore(rest[1:])
	}
	return nil
}

// Apply replays a write-ahead-logged leaf delivery during recovery. Only
// application-level casts reach the application handler; hierarchy-internal
// traffic (requests, result replicas, leader updates) is coordination, not
// state, and its effects are re-derived live.
func (s leafState) Apply(d group.Delivery) {
	applier, ok := s.a.cfg.State.(group.StateApplier)
	if !ok {
		return
	}
	tag, _, payload, ok := decodeLeafCast(d.Payload)
	if !ok {
		return
	}
	switch tag {
	case tagAppCast:
		d.Payload = payload
		applier.Apply(d)
	case tagBroadcast:
		if r, ok := decodeRecord(payload); ok {
			d.Payload = r.Payload
			applier.Apply(d)
		}
	}
}

// leaderState is the leader group's checkpoint: the subgroup tree.
type leaderState struct{ a *Agent }

func (s leaderState) Snapshot() ([]byte, error) {
	if s.a.tree == nil {
		return NewTree(s.a.name, s.a.cfg.Fanout).Encode(), nil
	}
	return s.a.tree.Encode(), nil
}

func (s leaderState) Restore(b []byte) error {
	t, err := DecodeTree(b)
	if err != nil {
		return err
	}
	s.a.tree = t
	return nil
}

// Apply is a deliberate no-op: leader-group deliveries are placement and
// reconfiguration decisions whose outcome is already folded into the tree
// snapshot; replaying them at boot would re-issue directives.
func (s leaderState) Apply(group.Delivery) {}

// onLeafView runs on the actor goroutine whenever the leaf installs a new
// view. The leaf coordinator reports the membership to the leader group —
// this is the only membership traffic that ever leaves a leaf, and its size
// is bounded by the leaf size.
func (a *Agent) onLeafView(leafID types.GroupID, v member.View) {
	self := a.stackNode().PID()
	if v.Coordinator() != self || a.closed {
		return
	}
	report := leafReport{Leaf: leafID, Members: v.Members}
	a.sendLeafReport(report)
}

func (a *Agent) sendLeafReport(r leafReport) {
	self := a.stackNode().PID()
	msg := &types.Message{
		Kind:    types.KindHLeafReport,
		Group:   types.BranchGroup(a.name),
		Payload: encodeLeafReport(r),
	}
	for _, dest := range a.leaderContacts {
		if dest == self {
			a.onLeafReport(msg)
			return
		}
		if err := a.stackNode().Send(dest, msg.Clone()); err == nil {
			return
		}
	}
}

// onLeafDelivery demultiplexes intra-leaf multicasts.
func (a *Agent) onLeafDelivery(d group.Delivery) {
	tag, _, payload, ok := decodeLeafCast(d.Payload)
	if !ok {
		return
	}
	switch tag {
	case tagCCRequest, tagCCResult:
		// Cohort copy kept for resiliency: a cohort that takes over after a
		// coordinator failure re-executes from these.
		a.statCohortCopies++
	case tagBroadcast:
		// The payload is a broadcast record; noteRecord dedups across the
		// arrival paths (our representative delivered its copy at stage
		// time, a repair may have beaten the cast here) and delivers the
		// first copy to the application.
		if rec, ok := decodeRecord(payload); ok {
			a.noteRecord(rec)
		}
	case tagAppCast:
		if a.cfg.OnLeafDeliver != nil {
			a.cfg.OnLeafDeliver(d.From, payload)
		}
	case tagLeaderUpdate:
		if pids, _, ok := decodePIDs(payload); ok && len(pids) > 0 {
			a.leaderContacts = pids
		}
	}
}

// onLeaderDelivery applies tree replication casts within the leader group.
func (a *Agent) onLeaderDelivery(d group.Delivery) {
	if a.closed {
		return
	}
	// a.leader is still nil while a recruited member is mid-adoption
	// (joinLeaderAsync); such a member is certainly not the coordinator, and
	// dropping the replication cast here would leave it on the state-transfer
	// snapshot until the next tree change.
	if a.leader != nil && a.leader.CurrentView().Coordinator() == a.stackNode().PID() {
		return // the coordinator's copy is authoritative
	}
	if t, err := DecodeTree(d.Payload); err == nil {
		a.tree = t
	}
}

// replicateTree pushes the coordinator's tree to the other leader members.
func (a *Agent) replicateTree() {
	if a.leader == nil || a.closed || a.tree == nil {
		return
	}
	if a.leader.Size() <= 1 {
		return
	}
	a.leader.CastAsync(types.Total, a.tree.Encode())
}

// --- leader-group replenishment ---------------------------------------------------
//
// Leader-group membership originally only grew at join time, so every leader
// crash shrank the group permanently — and once the last leader died the
// whole hierarchy was headless: no tree, no placement, no broadcast
// initiation, even with most members alive. The chaos soak surfaced exactly
// that (two spaced crashes with LeaderSize 2). The coordinator now recruits
// replacements from the leaf contacts whenever the leader view falls below
// LeaderSize, and pushes the refreshed contact list down to the leaves so
// non-leader members stop forwarding to dead leaders.

// onLeaderView runs on the actor goroutine whenever the leader group
// installs a new view: every leader refreshes its contact cache, and the
// coordinator recruits replacements and republishes the contacts.
func (a *Agent) onLeaderView(v member.View) {
	if a.closed || v.Size() == 0 {
		return
	}
	a.leaderContacts = types.CopyProcesses(v.Members)
	if v.Coordinator() == a.stackNode().PID() {
		a.replenishLeaders(v)
		a.pushLeaderContacts(v)
		// Re-replicate on every membership change: a recruit's state
		// transfer may have come from a stale member, and the authoritative
		// copy otherwise only travels on the next tree mutation.
		a.replicateTree()
	}
}

// replenishLeaders invites members (picked from the tree's leaf contacts)
// into the leader group until it is back at LeaderSize. Invites are
// idempotent on the receiving side, so re-sending after a lost invite is
// safe; a synchronous send error rotates to the next candidate.
func (a *Agent) replenishLeaders(lv member.View) {
	need := a.cfg.LeaderSize - lv.Size()
	if need <= 0 || a.tree == nil {
		return
	}
	self := a.stackNode().PID()
	for _, l := range a.tree.Leaves {
		for _, p := range l.Contacts {
			if p == self || lv.Contains(p) {
				continue
			}
			err := a.stackNode().Send(p, &types.Message{
				Kind:  types.KindHLeaderInvite,
				Group: types.BranchGroup(a.name),
			})
			if err != nil {
				continue
			}
			if need--; need == 0 {
				return
			}
		}
	}
}

// pushLeaderContacts sends the current leader membership to every leaf
// contact in the tree; leaf coordinators relay it leaf-wide as an ordinary
// leaf cast, so even members the tree does not name stop pointing at dead
// leaders.
func (a *Agent) pushLeaderContacts(lv member.View) {
	if a.tree == nil {
		return
	}
	self := a.stackNode().PID()
	payload := encodePIDs(nil, lv.Members)
	for _, l := range a.tree.Leaves {
		for _, p := range l.Contacts {
			if p == self || lv.Contains(p) {
				continue
			}
			_ = a.stackNode().Send(p, &types.Message{
				Kind:    types.KindHLeaderUpdate,
				Group:   types.BranchGroup(a.name),
				Payload: payload,
			})
		}
	}
	// The coordinator's own leaf learns through its leaf cast.
	if a.leaf != nil && !a.leaf.Closed() && a.leaf.Size() > 1 {
		a.leaf.CastAsync(a.cfg.Ordering, encodeLeafCast(tagLeaderUpdate, 0, payload))
	}
}

// onLeaderInvite accepts a recruitment into the leader group. The join
// blocks, so it runs on its own goroutine; leaderJoining keeps duplicate
// invites from racing each other.
func (a *Agent) onLeaderInvite(m *types.Message) {
	if a.closed || a.leaderJoining {
		return
	}
	if a.leader != nil && !a.leader.Closed() {
		return // already a leader
	}
	a.leaderJoining = true
	contact := m.From
	go a.joinLeaderAsync(contact)
}

func (a *Agent) joinLeaderAsync(contact types.ProcessID) {
	ctx, cancel := context.WithTimeout(context.Background(), a.cfg.OpTimeout)
	defer cancel()
	lg, err := a.host.stack.Join(ctx, types.LeaderGroup(a.name), contact, a.leaderGroupConfig())
	var adopted bool
	_ = a.stackNode().Call(func() {
		a.leaderJoining = false
		if err != nil || a.closed {
			return
		}
		a.leader = lg
		if a.tree == nil {
			// The coordinator's state transfer normally arrives with the
			// install; an empty tree is a safe fallback until the next
			// replication cast.
			a.tree = NewTree(a.name, a.cfg.Fanout)
		}
		adopted = true
	})
	if err == nil && !adopted && lg != nil && !lg.Closed() {
		_ = lg.Leave(ctx) // the agent closed while we were joining
	}
	if adopted {
		a.mu.Lock()
		a.snapLead = true
		a.mu.Unlock()
	}
}

// onLeaderUpdate refreshes this member's leader contacts from the
// coordinator's push and relays the list into the local leaf if this member
// coordinates it.
func (a *Agent) onLeaderUpdate(m *types.Message) {
	if a.closed {
		return
	}
	pids, _, ok := decodePIDs(m.Payload)
	if !ok || len(pids) == 0 {
		return
	}
	if samePIDs(a.leaderContacts, pids) {
		return // periodic re-push with nothing new: don't re-relay
	}
	a.leaderContacts = pids
	if a.leaf != nil && !a.leaf.Closed() && a.leaf.Size() > 1 &&
		a.leaf.CurrentView().Coordinator() == a.stackNode().PID() {
		a.leaf.CastAsync(a.cfg.Ordering, encodeLeafCast(tagLeaderUpdate, 0, m.Payload))
	}
}

func samePIDs(a, b []types.ProcessID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- leader duties ---------------------------------------------------------------

// leaderCoordinator reports whether this process currently coordinates the
// leader group.
func (a *Agent) leaderCoordinator() bool {
	return a.leader != nil && !a.leader.Closed() &&
		a.leader.CurrentView().Coordinator() == a.stackNode().PID()
}

// forwardToLeader relays a message towards the leader coordinator: the
// leader view's coordinator first, then the remaining leader members, then
// the cached contacts — a crashed coordinator (synchronous send error) no
// longer strands traffic from non-leader members. Returns false if nothing
// accepted the message.
func (a *Agent) forwardToLeader(m *types.Message) bool {
	self := a.stackNode().PID()
	fwd := m.Clone()
	if fwd.ReplyTo.IsNil() {
		fwd.ReplyTo = m.From
	}
	var tried []types.ProcessID
	try := func(dest types.ProcessID) bool {
		if dest.IsNil() || dest == self || types.ContainsProcess(tried, dest) {
			return false
		}
		tried = append(tried, dest)
		return a.stackNode().Send(dest, fwd.Clone()) == nil
	}
	if a.leader != nil && !a.leader.Closed() {
		lv := a.leader.CurrentView()
		if try(lv.Coordinator()) {
			return true
		}
		for _, p := range lv.Members {
			if try(p) {
				return true
			}
		}
	}
	for _, dest := range a.leaderContacts {
		if try(dest) {
			return true
		}
	}
	return false
}

// onJoinRequest handles a placement request for a joining process.
func (a *Agent) onJoinRequest(m *types.Message) {
	if !a.leaderCoordinator() {
		if !a.forwardToLeader(m) {
			_ = a.stackNode().Reply(m, nil, types.ErrNoSuchGroup.Error())
		}
		return
	}
	joiner := m.ReplyTo
	if joiner.IsNil() {
		joiner = m.From
	}
	// Hand the joiner the full current leader view (answering coordinator
	// first), not just one contact: a joiner that only ever knew the
	// placement coordinator was stranded when that one process died.
	self := a.stackNode().PID()
	contacts := []types.ProcessID{self}
	if a.leader != nil && !a.leader.Closed() {
		for _, p := range a.leader.CurrentView().Members {
			if p != self {
				contacts = append(contacts, p)
			}
		}
	}
	pl := placement{LeaderGroup: types.LeaderGroup(a.name), LeaderContacts: contacts}

	target, ok := a.tree.Place()
	if !ok || target.Size >= a.cfg.MaxLeafSize {
		info := a.tree.AddLeaf(joiner)
		pl.Create = true
		pl.Leaf = info.ID
	} else {
		pl.Leaf = target.ID
		pl.Contacts = target.Contacts
		a.tree.Update(target.ID, target.Size+1, target.Contacts)
	}
	if a.leader != nil {
		lv := a.leader.CurrentView()
		if lv.Size() < a.cfg.LeaderSize && !lv.Contains(joiner) {
			pl.AlsoLeader = true
		}
	}
	_ = a.stackNode().Reply(m, encodePlacement(pl), "")
	a.replicateTree()
}

// onLeafReport handles a leaf coordinator's membership report.
func (a *Agent) onLeafReport(m *types.Message) {
	if !a.leaderCoordinator() {
		a.forwardToLeader(m)
		return
	}
	r, ok := decodeLeafReport(m.Payload)
	if !ok {
		return
	}
	size := len(r.Members)
	if size == 0 {
		a.tree.RemoveLeaf(r.Leaf)
		a.replicateTree()
		return
	}
	contacts := r.Members
	if len(contacts) > a.cfg.Resiliency {
		contacts = contacts[:a.cfg.Resiliency]
	}
	a.tree.Update(r.Leaf, size, contacts)
	// Members named by a leaf report have landed: the leaf-group state
	// transfer has handed them the buffered records, so their relocation
	// pins can stop holding the floor.
	for _, p := range r.Members {
		delete(a.moverWater, p)
	}

	switch {
	case size > a.cfg.MaxLeafSize:
		a.splitLeaf(r)
	case size < a.cfg.MinLeafSize && a.tree.LeafCount() > 1:
		a.mergeLeaf(r)
	}
	a.replicateTree()
}

// splitLeaf moves the youngest members of an oversized leaf into a freshly
// created leaf.
func (a *Agent) splitLeaf(r leafReport) {
	target := (a.cfg.MaxLeafSize + a.cfg.MinLeafSize) / 2
	if target < a.cfg.MinLeafSize {
		target = a.cfg.MinLeafSize
	}
	moverCount := len(r.Members) - target
	if moverCount <= 0 {
		return
	}
	movers := r.Members[len(r.Members)-moverCount:]
	a.pinMovers(r.Leaf, movers)
	info := a.tree.AddLeaf(movers[0])
	for i, p := range movers {
		d := directive{Leaf: info.ID}
		if i == 0 {
			d.Create = true
		} else {
			d.Contacts = []types.ProcessID{movers[0]}
		}
		a.sendDirective(p, d)
	}
	// The old leaf's recorded size shrinks accordingly; the next report will
	// confirm.
	remaining := len(r.Members) - moverCount
	contacts := r.Members[:minInt(remaining, a.cfg.Resiliency)]
	a.tree.Update(r.Leaf, remaining, contacts)
}

// mergeLeaf folds an undersized leaf into a sibling, but only when the
// combined leaf stays within the fanout bound. Without the capacity guard a
// freshly founded leaf (size 1, still filling up) would be merged straight
// back into the full leaf it was created to relieve, and the leader would
// oscillate between creating, merging and splitting the same members.
func (a *Agent) mergeLeaf(r leafReport) {
	var target LeafInfo
	found := false
	for _, sib := range a.tree.Siblings(r.Leaf) {
		if len(sib.Contacts) == 0 {
			continue
		}
		if sib.Size+len(r.Members) <= a.cfg.MaxLeafSize {
			target = sib
			found = true
			break
		}
	}
	if !found {
		return
	}
	a.pinMovers(r.Leaf, r.Members)
	for _, p := range r.Members {
		a.sendDirective(p, directive{Leaf: target.ID, Contacts: target.Contacts})
	}
	a.tree.RemoveLeaf(r.Leaf)
}

func (a *Agent) sendDirective(to types.ProcessID, d directive) {
	if to == a.stackNode().PID() {
		a.onRedirect(&types.Message{
			Kind:    types.KindHJoinRedirect,
			Group:   types.BranchGroup(a.name),
			Payload: encodeDirective(d),
		})
		return
	}
	_ = a.stackNode().Send(to, &types.Message{
		Kind:    types.KindHJoinRedirect,
		Group:   types.BranchGroup(a.name),
		Payload: encodeDirective(d),
	})
}

// onRedirect relocates this process to another leaf, as instructed by the
// leader during a split or merge.
func (a *Agent) onRedirect(m *types.Message) {
	if a.closed || a.moving {
		return
	}
	d, ok := decodeDirective(m.Payload)
	if !ok {
		return
	}
	if d.Leaf.Equal(a.leafID) {
		return
	}
	a.moving = true
	oldLeaf := a.leaf
	go a.relocate(oldLeaf, d)
}

// relocate runs on its own goroutine: it leaves the current leaf and joins
// (or founds) the directed one, then swaps the agent's leaf reference.
func (a *Agent) relocate(oldLeaf *group.Group, d directive) {
	ctx, cancel := context.WithTimeout(context.Background(), a.cfg.OpTimeout)
	defer cancel()

	if oldLeaf != nil && !oldLeaf.Closed() {
		_ = oldLeaf.Leave(ctx)
	}
	var newLeaf *group.Group
	var err error
	if d.Create {
		newLeaf, err = a.host.stack.Create(d.Leaf, a.leafGroupConfig(d.Leaf))
	} else {
		newLeaf, err = a.joinLeaf(ctx, d.Leaf, d.Contacts)
	}
	if err != nil {
		// Fall back to asking the leader for a fresh placement so the
		// process does not end up outside every leaf.
		contacts := a.LeaderContacts()
		if len(contacts) > 0 {
			if pl, perr := a.requestPlacement(ctx, contacts[0]); perr == nil {
				if pl.Create {
					newLeaf, err = a.host.stack.Create(pl.Leaf, a.leafGroupConfig(pl.Leaf))
				} else {
					newLeaf, err = a.joinLeaf(ctx, pl.Leaf, pl.Contacts)
				}
				if err == nil {
					d.Leaf = pl.Leaf
				}
			}
		}
	}
	_ = a.stackNode().Call(func() {
		a.moving = false
		if err == nil && newLeaf != nil {
			a.leaf = newLeaf
			a.leafID = d.Leaf
		}
	})
	if err == nil && newLeaf != nil {
		a.mu.Lock()
		a.snapLeaf = newLeaf
		a.mu.Unlock()
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
