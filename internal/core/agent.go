package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

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

	// Tree inputs this member cast into the leader group whose side effects
	// still wait for delivery and quorum, in cast order (see castInput).
	inputSeq uint64
	inputs   []*pendingInput

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
	landing       uint64 // after a relocation: catch up until this recovery tick
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

	local      uint64 // own watermark when the leaf cast went out (castToLeaf)
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
		tree:        NewTree(name, cfg.Fanout),
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
	if a.stackNode().Call(func() { t = a.tree.Clone() }) != nil {
		return NewTree(a.name, a.cfg.Fanout)
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
	var info LeafInfo
	if err := a.stackNode().Call(func() {
		info = a.tree.AddLeaf(self)
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

		leaf, err := a.enterLeaf(ctx, pl)
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
			// Failing to join the leader group is not fatal: the process is
			// still a regular member of the service.
			leader, _ = a.joinLeader(ctx, pl.LeaderContacts[0])
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
		State:      leaderState{a: a},
		StateGrace: a.cfg.OpTimeout,
	}
}

// joinLeader joins the leader group through contact and returns it once the
// tree checkpoint is restored. The checkpoint is the only whole-tree
// transfer, so a recruit whose transfer ends without one — its holder
// crashed mid-transfer and the StateGrace release handed it the held inputs
// only, or Restore failed — would keep a tree nothing repairs. It leaves
// again instead, with an empty tree; the leader coordinator re-invites while
// the leader group is short.
func (a *Agent) joinLeader(ctx context.Context, contact types.ProcessID) (*group.Group, error) {
	restored := make(chan struct{})
	cfg := a.leaderGroupConfig()
	cfg.State = leaderState{a: a, restored: restored}
	lg, err := a.host.stack.Join(ctx, types.LeaderGroup(a.name), contact, cfg)
	if err != nil {
		return nil, err
	}
	select {
	case <-restored:
		return lg, nil
	case <-time.After(cfg.StateGrace):
	}
	leaveCtx, cancel := context.WithTimeout(context.Background(), a.cfg.OpTimeout)
	defer cancel()
	_ = lg.Leave(leaveCtx)
	_ = a.stackNode().Call(func() { a.tree = NewTree(a.name, a.cfg.Fanout) })
	return nil, fmt.Errorf("join leader group of %q: tree checkpoint not restored: %w", a.name, types.ErrTimeout)
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

// leaderState is the leader group's checkpoint: the subgroup tree. A
// joiner's restored channel is closed once the checkpoint is in place.
type leaderState struct {
	a        *Agent
	restored chan struct{}
}

func (s leaderState) Snapshot() ([]byte, error) { return s.a.tree.Encode(), nil }

func (s leaderState) Restore(b []byte) error {
	t, err := DecodeTree(b)
	if err != nil {
		return err
	}
	s.a.tree = t
	if s.restored != nil {
		select {
		case <-s.restored:
		default:
			close(s.restored)
		}
	}
	return nil
}

// Apply replays a write-ahead-logged tree input into the tree. No input is
// pending at boot, so replay re-issues no side effect.
func (s leaderState) Apply(d group.Delivery) { s.a.onLeaderDelivery(d) }

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
		if err := a.stackNode().Send(dest, msg); err == nil {
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
	case tagCohort:
		// The leaf-wide record of one request and its result (serveRequest).
		// It is counted, not acted on: no cohort takes over from it.
		a.statCohortCopies++
	case tagBroadcast:
		// The payload is a broadcast record; noteRecord dedups across the
		// arrival paths (our representative delivered its copy at stage
		// time, a repair may have beaten the cast here) and delivers the
		// first copy to the application. The caster noted the record before
		// casting it, so its own copy is not noted again.
		if d.From == a.stackNode().PID() {
			return
		}
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

// --- the replicated tree -----------------------------------------------------------
//
// The leader group's tree is a replicated state machine: the leader
// coordinator never changes its tree directly. It ABCASTs each decision's
// input — a joiner to place, a leaf report to apply — and every leader
// member, the coordinator included, runs the same decision logic on
// delivery, so every copy of the tree is a function of the agreed delivery
// sequence. The checkpoint handed to a member joining the leader group is the
// only whole-tree transfer. A decision's side effects — the placement reply,
// relocation directives — run only at the member that cast the input, once
// the input is delivered there and the leader group's resiliency quorum has
// acknowledged it, so a coordinator crash cannot lose a placement a joiner
// already holds. Mover pins are state, not effects: they must hold
// the floor from the moment a leaf leaves the tree.

// pendingInput is one tree input this member cast.
type pendingInput struct {
	id      uint64
	lg      *group.Group
	payload []byte
	req     *types.Message           // the join request a placement answers
	effect  func(req *types.Message) // the decision's side effect, set at delivery
	acked   bool
}

// castInput queues a tree input for the leader group. Group.Cast blocks until
// the resiliency quorum acknowledges, so one caster goroutine casts the
// queue's unacknowledged tail, one input at a time: concurrent Casts could
// reach the sequencer in any order, and a leaf's reports must apply in the
// order it sent them. A caster runs exactly while the queue's last input is
// unacknowledged.
func (a *Agent) castInput(tag leafCastTag, r leafReport, req *types.Message) {
	a.inputSeq++
	p := &pendingInput{id: a.inputSeq, lg: a.leader, req: req,
		payload: encodeLeafCast(tag, a.inputSeq, encodeLeafReport(r))}
	idle := len(a.inputs) == 0 || a.inputs[len(a.inputs)-1].acked
	a.inputs = append(a.inputs, p)
	if idle {
		go a.castInputs(p)
	}
}

// castInputs is the caster goroutine, starting at p; it exits when every
// queued input is acknowledged. A cast that fails drops the input and its
// side effect; a joiner is told, rather than left to wait out its context.
func (a *Agent) castInputs(p *pendingInput) {
	for p != nil {
		ctx, cancel := context.WithTimeout(context.Background(), a.cfg.OpTimeout)
		err := p.lg.Cast(ctx, types.Total, p.payload)
		cancel()
		if a.stackNode().Call(func() {
			p.acked = true
			if err != nil {
				a.inputs = slices.DeleteFunc(a.inputs, func(q *pendingInput) bool { return q == p })
				if p.req != nil {
					_ = a.stackNode().Reply(p.req, nil, err.Error())
				}
			}
			a.settleInputs()
			p = a.nextToCast()
		}) != nil {
			return
		}
	}
}

// nextToCast returns the oldest queued input not yet acknowledged, or nil.
func (a *Agent) nextToCast() *pendingInput {
	for _, q := range a.inputs {
		if !q.acked {
			return q
		}
	}
	return nil
}

// settleInputs runs, in cast order, the side effects of the inputs at the
// head of the queue that are both delivered and acknowledged.
func (a *Agent) settleInputs() {
	for len(a.inputs) > 0 && a.inputs[0].acked && a.inputs[0].effect != nil {
		p := a.inputs[0]
		a.inputs = a.inputs[1:]
		p.effect(p.req)
	}
}

// onLeaderDelivery applies one tree input in the leader group's agreed order.
func (a *Agent) onLeaderDelivery(d group.Delivery) {
	if a.closed {
		return
	}
	tag, id, r, ok := decodeTreeInput(d.Payload)
	if !ok {
		return
	}
	var effect func(*types.Message)
	if tag == tagPlace {
		effect = a.placeJoiner(r.Members[0])
	} else {
		effect = a.applyReport(r)
	}
	if d.From != a.stackNode().PID() {
		return
	}
	for _, p := range a.inputs {
		if p.id == id {
			p.effect = effect
			a.settleInputs()
			return
		}
	}
}

// --- leader-group replenishment ---------------------------------------------------
//
// Every leader crash would shrink the leader group for good, until the
// hierarchy was headless. So the coordinator recruits replacements from the
// leaf contacts whenever the leader view falls below LeaderSize, and pushes
// the refreshed contact list down to the leaves so non-leader members stop
// forwarding to dead leaders.

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
		// The coordinator's own leaf learns through a leaf cast. The list
		// only changes with the leader view, so only a view change casts it.
		if a.leaf != nil && !a.leaf.Closed() && a.leaf.Size() > 1 {
			a.leaf.CastAsync(a.cfg.Ordering, encodeLeafCast(tagLeaderUpdate, 0, encodePIDs(nil, v.Members)))
		}
	}
}

// replenishLeaders invites members (picked from the tree's leaf contacts)
// into the leader group until it is back at LeaderSize. Invites are
// idempotent on the receiving side, so re-sending after a lost invite is
// safe; a synchronous send error rotates to the next candidate.
func (a *Agent) replenishLeaders(lv member.View) {
	need := a.cfg.LeaderSize - lv.Size()
	if need <= 0 {
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
	lg, err := a.joinLeader(ctx, contact)
	// On a stopping node Call can return while its fn still runs, so
	// adopted is read only after a Call that completed.
	var adopted bool
	if a.stackNode().Call(func() {
		a.leaderJoining = false
		if adopted = err == nil && !a.closed; adopted {
			a.leader = lg
		}
	}) != nil {
		return
	}
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
	if slices.Equal(a.leaderContacts, pids) {
		return // periodic re-push with nothing new: don't re-relay
	}
	a.leaderContacts = pids
	if a.leaf != nil && !a.leaf.Closed() && a.leaf.Size() > 1 &&
		a.leaf.CurrentView().Coordinator() == a.stackNode().PID() {
		a.leaf.CastAsync(a.cfg.Ordering, encodeLeafCast(tagLeaderUpdate, 0, m.Payload))
	}
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
	// Send borrows its message, so one envelope serves every attempt.
	fwd := *m
	if fwd.ReplyTo.IsNil() {
		fwd.ReplyTo = m.From
	}
	var tried []types.ProcessID
	try := func(dest types.ProcessID) bool {
		if dest.IsNil() || dest == self || types.ContainsProcess(tried, dest) {
			return false
		}
		tried = append(tried, dest)
		return a.stackNode().Send(dest, &fwd) == nil
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

// onJoinRequest handles a placement request for a joining process: the
// leader coordinator casts the joiner as a tree input and answers once it is
// delivered and acknowledged (placeJoiner).
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
	a.castInput(tagPlace, leafReport{Members: []types.ProcessID{joiner}}, m.Clone())
}

// onLeafReport handles a leaf coordinator's membership report. Leaf
// coordinators re-send reports periodically, so the leader coordinator casts
// only those that would change the tree.
func (a *Agent) onLeafReport(m *types.Message) {
	if !a.leaderCoordinator() {
		a.forwardToLeader(m)
		return
	}
	if r, ok := decodeLeafReport(m.Payload); ok && a.reportChanges(r) {
		a.castInput(tagReport, r, nil)
	}
}

// reportChanges reports whether applying r (applyReport) would change the
// tree, or would split the leaf: an oversized leaf's re-sent report repeats
// its split's directives (splitLeaf).
func (a *Agent) reportChanges(r leafReport) bool {
	cur, known := a.tree.Lookup(r.Leaf)
	size := len(r.Members)
	switch {
	case size == 0:
		return known
	case !known || size > a.cfg.MaxLeafSize || cur.Size != size ||
		!slices.Equal(cur.Contacts, a.leafContacts(r.Members)):
		return true
	}
	_, merge := a.mergeTarget(r)
	return merge
}

// placeJoiner applies a placement input: the joiner goes to the smallest leaf,
// or founds a new one when every leaf is full. The side effect answers the
// join request.
func (a *Agent) placeJoiner(joiner types.ProcessID) func(*types.Message) {
	var pl placement
	target, ok := a.tree.Place()
	if !ok || target.Size >= a.cfg.MaxLeafSize {
		pl.Create = true
		pl.Leaf = a.tree.AddLeaf(joiner).ID
	} else {
		pl.Leaf = target.ID
		pl.Contacts = target.Contacts
		a.tree.Update(target.ID, target.Size+1, target.Contacts)
	}
	return func(req *types.Message) {
		// Hand the joiner the full current leader view (answering
		// coordinator first), not just one contact: a joiner that only ever
		// knew the placement coordinator was stranded when that one process
		// died.
		self := a.stackNode().PID()
		lv := a.leader.CurrentView()
		pl.LeaderContacts = []types.ProcessID{self}
		for _, p := range lv.Members {
			if p != self {
				pl.LeaderContacts = append(pl.LeaderContacts, p)
			}
		}
		pl.AlsoLeader = lv.Size() < a.cfg.LeaderSize && !lv.Contains(joiner)
		_ = a.stackNode().Reply(req, encodePlacement(pl), "")
	}
}

// applyReport applies a leaf report input: record the leaf's size and
// contacts, then split it if oversized or merge it if undersized. The side
// effect sends the relocation directives.
func (a *Agent) applyReport(r leafReport) func(*types.Message) {
	size := len(r.Members)
	if size == 0 {
		a.tree.RemoveLeaf(r.Leaf)
		return func(*types.Message) {}
	}
	a.tree.Update(r.Leaf, size, a.leafContacts(r.Members))
	if size > a.cfg.MaxLeafSize {
		return a.splitLeaf(r)
	}
	target, ok := a.mergeTarget(r)
	if !ok {
		return func(*types.Message) {}
	}
	// Fold the undersized leaf into its sibling, which counts the movers
	// from now on.
	a.pinMovers(r.Leaf, r.Members)
	a.tree.RemoveLeaf(r.Leaf)
	a.tree.Update(target.ID, target.Size+size, target.Contacts)
	return func(*types.Message) {
		for _, p := range r.Members {
			a.sendDirective(p, placement{Leaf: target.ID, Contacts: target.Contacts})
		}
	}
}

// leafContacts is the contact list the tree records for a leaf: its first
// Resiliency members, coordinator first.
func (a *Agent) leafContacts(members []types.ProcessID) []types.ProcessID {
	return members[:min(len(members), a.cfg.Resiliency)]
}

// splitLeaf moves the youngest members of an oversized leaf into a freshly
// created leaf, founded by the first mover.
//
// The leaf's coordinator re-sends its report until the movers are gone, and
// a split must not repeat: a report that finds the leaf its first mover
// founds already in the tree sends the same directives again instead, so a
// lost directive or a failed input cast is retried. The new leaf counts
// every mover from the first split on; the old leaf keeps its reported size
// until a report shows the movers gone.
func (a *Agent) splitLeaf(r leafReport) func(*types.Message) {
	target := max((a.cfg.MaxLeafSize+a.cfg.MinLeafSize)/2, a.cfg.MinLeafSize)
	remaining := min(target, len(r.Members))
	movers := r.Members[remaining:]
	if len(movers) == 0 {
		return func(*types.Message) {}
	}
	info, ok := a.tree.FoundedBy(movers[0])
	if !ok {
		info = a.tree.AddLeaf(movers[0])
		a.tree.Update(info.ID, len(movers), info.Contacts)
	}
	a.pinMovers(r.Leaf, movers)
	return func(*types.Message) {
		for i, p := range movers {
			d := placement{Leaf: info.ID}
			if i == 0 {
				d.Create = true
			} else {
				d.Contacts = movers[:1]
			}
			a.sendDirective(p, d)
		}
	}
}

// mergeTarget picks the sibling an undersized leaf folds into, but only when
// the combined leaf stays within the fanout bound. Without the capacity guard
// a freshly founded leaf (size 1, still filling up) would be merged straight
// back into the full leaf it was created to relieve, and the leader would
// oscillate between creating, merging and splitting the same members.
func (a *Agent) mergeTarget(r leafReport) (LeafInfo, bool) {
	if len(r.Members) >= a.cfg.MinLeafSize || a.tree.LeafCount() <= 1 {
		return LeafInfo{}, false
	}
	for _, sib := range a.tree.Siblings(r.Leaf) {
		if len(sib.Contacts) > 0 && sib.Size+len(r.Members) <= a.cfg.MaxLeafSize {
			return sib, true
		}
	}
	return LeafInfo{}, false
}

func (a *Agent) sendDirective(to types.ProcessID, d placement) {
	m := &types.Message{
		Kind:    types.KindHJoinRedirect,
		Group:   types.BranchGroup(a.name),
		Payload: encodePlacement(d),
	}
	if to == a.stackNode().PID() {
		a.onRedirect(m)
		return
	}
	_ = a.stackNode().Send(to, m)
}

// onRedirect relocates this process to another leaf, as instructed by the
// leader during a split or merge.
func (a *Agent) onRedirect(m *types.Message) {
	if a.closed || a.moving {
		return
	}
	d, ok := decodePlacement(m.Payload)
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
// (or founds) the directed one, then swaps the agent's leaf reference. A
// zero placement skips straight to asking the leader for a fresh one.
func (a *Agent) relocate(oldLeaf *group.Group, d placement) {
	ctx, cancel := context.WithTimeout(context.Background(), a.cfg.OpTimeout)
	defer cancel()

	if oldLeaf != nil && !oldLeaf.Closed() {
		_ = oldLeaf.Leave(ctx)
	}
	var newLeaf *group.Group
	err := error(types.ErrNoSuchGroup)
	if d.Leaf.Name != "" {
		newLeaf, err = a.enterLeaf(ctx, d)
	}
	if err != nil {
		// Fall back to asking the leader for a fresh placement so the
		// process does not end up outside every leaf. The failed join may
		// have used up ctx, so the fallback gets an OpTimeout of its own.
		ctx, cancel := context.WithTimeout(context.Background(), a.cfg.OpTimeout)
		defer cancel()
		newLeaf, d, err = a.placeAnew(ctx)
	}
	_ = a.stackNode().Call(func() {
		a.moving = false
		if err == nil {
			a.leaf = newLeaf
			a.leafID = d.Leaf
			a.landing = a.recoveryTicks + moverGraceTicks
		}
	})
	if err == nil {
		a.mu.Lock()
		a.snapLeaf = newLeaf
		a.mu.Unlock()
	}
}

// enterLeaf joins the leaf a placement names, or founds it.
func (a *Agent) enterLeaf(ctx context.Context, pl placement) (*group.Group, error) {
	if pl.Create {
		return a.host.stack.Create(pl.Leaf, a.leafGroupConfig(pl.Leaf))
	}
	return a.joinLeaf(ctx, pl.Leaf, pl.Contacts)
}

// placeAnew asks the leader contacts in turn for a fresh placement and
// enters the leaf it names: the first contact may be a leader that died.
func (a *Agent) placeAnew(ctx context.Context) (*group.Group, placement, error) {
	err := error(types.ErrNoSuchGroup)
	for _, c := range a.LeaderContacts() {
		var pl placement
		if pl, err = a.requestPlacement(ctx, c); err == nil {
			var leaf *group.Group
			if leaf, err = a.enterLeaf(ctx, pl); err == nil {
				return leaf, pl, nil
			}
		}
		if ctx.Err() != nil {
			break
		}
	}
	return nil, placement{}, err
}
