package group

import (
	"context"
	"fmt"
	"time"

	"repro/internal/fdetect"
	"repro/internal/member"
	"repro/internal/node"
	"repro/internal/reliability"
	"repro/internal/types"
)

// Stack manages every group membership of one process. Create one Stack per
// node; groups (flat groups, and the leaf/leader groups of the hierarchical
// layer) are created and joined through it.
type Stack struct {
	node *node.Node
	det  *fdetect.Detector

	// walDir, when non-empty, is the directory holding the write-ahead
	// delivery logs of this process's stateful groups. Set before any group
	// is created or joined.
	walDir string

	// groups, obs, owing and walDirty are only touched on the actor
	// goroutine. owing lists the groups that owe acknowledgements
	// (Group.owe), paid from the node's idle hook; walDirty lists the groups
	// whose write-ahead log buffers records the current step appended,
	// written from the node's step-end hook.
	groups   map[string]*Group
	obs      Observer
	owing    []*Group
	walDirty []*Group
}

// Observer taps every group event on one process: each installed view and
// each delivered multicast, across all groups of the stack, tagged with the
// group id. It exists so history recorders (the chaos harness's invariant
// checkers, tracing tools) can observe a process without owning the
// per-group Config callbacks the application uses. Callbacks run on the
// node's actor goroutine and must not block; the View is a private copy, and
// the Delivery's read-only arrays (see Delivery) may be retained as they
// are.
type Observer struct {
	OnView    func(types.GroupID, member.View)
	OnDeliver func(types.GroupID, Delivery)
}

// NewStack creates the group stack for a node and registers its message
// handlers. The failure detector is optional; when present, suspicions are
// routed to every group the suspected process belongs to and group views
// feed the detector's monitored set.
func NewStack(n *node.Node, det *fdetect.Detector) *Stack {
	s := &Stack{node: n, det: det, groups: make(map[string]*Group)}
	n.Handle(types.KindJoinRequest, s.onJoinRequest)
	n.Handle(types.KindLeaveRequest, s.onLeaveRequest)
	n.Handle(types.KindViewPropose, s.route((*Group).onViewPropose))
	n.Handle(types.KindViewFlushAck, s.route((*Group).onViewFlushAck))
	n.Handle(types.KindViewInstall, s.onViewInstall)
	n.Handle(types.KindStateTransfer, s.route((*Group).onStateTransfer))
	n.Handle(types.KindStateOffer, s.route((*Group).onStateOffer))
	n.Handle(types.KindStateChunk, s.route((*Group).onStateChunk))
	n.Handle(types.KindStateNak, s.route((*Group).onStateNak))
	n.HandleBatch(types.KindCast, s.routeCastBatch)
	n.Handle(types.KindOrder, s.route((*Group).onOrder))
	n.Handle(types.KindNak, s.route((*Group).onNak))
	n.Handle(types.KindNakOrder, s.route((*Group).onNakOrder))
	n.Handle(types.KindStability, s.route((*Group).onStability))
	n.Handle(types.KindViewNak, s.route((*Group).onViewNak))
	n.OnIdle(s.payDebts)
	n.OnStepEnd(s.writeWALs)
	return s
}

// writeWALs writes what the step appended to each write-ahead log, one
// write(2) per log. The node runs it at the end of every actor step, so a
// delivery's record is in the file before the step that applied it returns.
func (s *Stack) writeWALs() {
	if len(s.walDirty) == 0 {
		return
	}
	for _, g := range s.walDirty {
		g.walWrite()
	}
	clear(s.walDirty)
	s.walDirty = s.walDirty[:0]
}

// payDebts sends every acknowledgement intake left owed, one report envelope
// per owing group. The node runs it when the actor runs out of work and
// before each inbound frame, so a burst of frames is acknowledged once and a
// busy member still acknowledges within a frame.
func (s *Stack) payDebts() {
	if len(s.owing) == 0 {
		return
	}
	for _, g := range s.owing {
		g.payDebts()
	}
	clear(s.owing)
	s.owing = s.owing[:0]
}

// ReliabilityStats sums the recovery counters of every group this process
// belongs to (or ever belonged to in this stack's lifetime — counters are
// cumulative per group object).
func (s *Stack) ReliabilityStats() reliability.Stats {
	var out reliability.Stats
	_ = s.node.Call(func() {
		for _, g := range s.groups {
			out.Add(g.relStats)
		}
	})
	return out
}

// Release drops the stack's groups and observer once its node has stopped:
// a halted process that stays reachable (a crashed process its runtime
// keeps) must not pin their protocol state. It first waits for any
// write-ahead log fsync still running in the background, so no goroutine
// outlives the process. Call it only after node.Stop has returned — the
// actor goroutine, the groups' only other user, has exited by then — so it
// needs no lock.
func (s *Stack) Release() {
	for _, g := range s.groups {
		if g.wal != nil {
			_ = g.wal.Wait() // its error has no one left to act on it
		}
	}
	s.groups = nil
	s.owing = nil
	s.walDirty = nil
	s.obs = Observer{}
}

// Node returns the node this stack is bound to.
func (s *Stack) Node() *node.Node { return s.node }

// SetObserver installs (or, with the zero Observer, removes) the stack's
// event observer. Install it before creating or joining groups whose events
// must not be missed; events are delivered from the install point on.
func (s *Stack) SetObserver(o Observer) {
	_ = s.node.Call(func() { s.obs = o })
}

// Detector returns the stack's failure detector (may be nil).
func (s *Stack) Detector() *fdetect.Detector { return s.det }

// SetWALDir points the stack at the directory holding this process's
// write-ahead delivery logs (empty disables durable logging, the default).
// Call it before creating or joining groups; groups with a State handler
// then log applied deliveries and recover them at Create.
func (s *Stack) SetWALDir(dir string) {
	_ = s.node.Call(func() { s.walDir = dir })
}

// WALDir returns the stack's write-ahead-log directory ("" when disabled).
func (s *Stack) WALDir() string {
	var dir string
	_ = s.node.Call(func() { dir = s.walDir })
	return dir
}

// SyncWALs forces every group's write-ahead log to stable storage: it
// returns once each log is written and fsynced, after any background fsync
// the recovery tick left running. A graceful shutdown (SIGTERM drain in the
// daemon) calls it before stopping the node so deliveries applied since the
// last recovery tick survive a machine crash after the restart.
func (s *Stack) SyncWALs() {
	_ = s.node.Call(func() {
		for _, g := range s.groups {
			if g.wal != nil {
				_ = g.wal.Sync()
			}
		}
	})
}

// lookup finds this process's Group for gid (actor goroutine only). Unlike
// indexing by gid.Key() it allocates nothing: every inbound message pays it.
func (s *Stack) lookup(gid types.GroupID) (*Group, bool) {
	var buf [64]byte
	g, ok := s.groups[string(gid.AppendKey(buf[:0]))]
	return g, ok
}

// route adapts a Group method into a node handler, dispatching on the
// message's group id.
func (s *Stack) route(fn func(*Group, *types.Message)) node.Handler {
	return func(m *types.Message) {
		g, ok := s.lookup(m.Group)
		if !ok {
			return // group unknown at this process (stale or misdirected)
		}
		if s.det != nil {
			s.det.Alive(m.From)
		}
		fn(g, m)
	}
}

// routeCastBatch is the stack's cast handler: the node hands it every run of
// casts a frame carries, a run of one included. It splits the run into
// consecutive same-group sub-runs so each group's ordering engines can
// accept the whole sub-run in one pass.
func (s *Stack) routeCastBatch(ms []*types.Message) {
	for i := 0; i < len(ms); {
		j := i + 1
		for j < len(ms) && ms[j].Group.Equal(ms[i].Group) {
			j++
		}
		if g, ok := s.lookup(ms[i].Group); ok {
			if s.det != nil {
				s.det.Alive(ms[i].From)
			}
			g.onCastBatch(ms[i:j], false)
		} else {
			s.disown(ms[i])
		}
		i = j
	}
}

// disown answers a cast for a group this process holds no record of with a
// leave request on its own behalf. The sender still counts this process a
// member — typically a joiner that gave up waiting after its install was
// lost — and being alive, it is never suspected: every resiliency quorum
// that counts it would wait on it for good.
func (s *Stack) disown(m *types.Message) {
	_ = s.node.Send(m.From, &types.Message{Kind: types.KindLeaveRequest, Group: m.Group})
}

// ReportSuspicion informs every group containing p that p is suspected to
// have failed. It must be called on the actor goroutine (the failure
// detector's callback already runs there).
func (s *Stack) ReportSuspicion(p types.ProcessID) {
	for _, g := range s.groups {
		g.reportFailure(p)
	}
}

// Get returns the local Group object for gid, or nil. Safe from any
// goroutine (read-only snapshot via the actor).
func (s *Stack) Get(gid types.GroupID) *Group {
	var g *Group
	_ = s.node.Call(func() { g, _ = s.lookup(gid) })
	return g
}

// Groups returns the ids of all groups this process currently belongs to.
func (s *Stack) Groups() []types.GroupID {
	var out []types.GroupID
	_ = s.node.Call(func() {
		for _, g := range s.groups {
			if g.joined && !g.closed {
				out = append(out, g.id)
			}
		}
	})
	return out
}

// Create makes this process the founding (and sole) member of a new group.
func (s *Stack) Create(gid types.GroupID, cfg Config) (*Group, error) {
	cfg = cfg.withDefaults()
	var g *Group
	var err error
	callErr := s.node.Call(func() {
		if _, exists := s.lookup(gid); exists {
			err = fmt.Errorf("create %s: already a member: %w", gid, types.ErrRejected)
			return
		}
		g = newGroup(s, gid, cfg)
		s.groups[gid.Key()] = g
		// A founding member's disk is the freshest copy of the group's
		// state: recover the write-ahead log (if any) before the founding
		// install captures the first checkpoint.
		if g.state != nil {
			g.recoverFromWAL(g.openWAL(false))
			g.stateReady = true
		}
		v := member.NewView(gid, 1, []types.ProcessID{s.node.PID()})
		g.install(v, nil)
	})
	if callErr != nil {
		return nil, callErr
	}
	return g, err
}

// Join adds this process to an existing group by contacting any current
// member (typically learned from the name service). It blocks until the
// first view including this process is installed, the context expires, or
// the contact definitively rejects the join.
func (s *Stack) Join(ctx context.Context, gid types.GroupID, contact types.ProcessID, cfg Config) (*Group, error) {
	cfg = cfg.withDefaults()
	var g *Group
	var regErr error
	callErr := s.node.Call(func() {
		if _, exists := s.lookup(gid); exists {
			regErr = fmt.Errorf("join %s: already a member: %w", gid, types.ErrRejected)
			return
		}
		g = newGroup(s, gid, cfg)
		s.groups[gid.Key()] = g
		// A joiner's log starts fresh: whatever a previous incarnation
		// logged is superseded by the incoming state transfer.
		_ = g.openWAL(true)
	})
	if callErr != nil {
		return nil, callErr
	}
	if regErr != nil {
		return nil, regErr
	}

	// Keep asking until a view including us is installed or the caller gives
	// up. The request is idempotent at the coordinator.
	for {
		reqCtx, cancel := context.WithTimeout(ctx, retryInterval)
		_, err := s.node.Request(reqCtx, contact, &types.Message{
			Kind:  types.KindJoinRequest,
			Group: gid,
		})
		cancel()
		if err == nil {
			// Accepted; now wait (bounded by ctx) for the install.
			select {
			case <-g.joinedC:
				return g, nil
			case <-time.After(retryInterval):
				// Re-request: the coordinator may have failed mid-change.
			case <-ctx.Done():
				s.abandon(gid)
				return nil, fmt.Errorf("join %s: %w", gid, types.ErrTimeout)
			}
			continue
		}
		select {
		case <-g.joinedC:
			// The install can race with a rejected/late retry; joined wins.
			return g, nil
		default:
		}
		if ctx.Err() != nil {
			s.abandon(gid)
			return nil, fmt.Errorf("join %s via %v: %w", gid, contact, types.ErrTimeout)
		}
		// Transient failure (timeout, crashed contact, rejection because a
		// view change is in flight): back off briefly and retry.
		select {
		case <-time.After(retryInterval / 4):
		case <-ctx.Done():
			s.abandon(gid)
			return nil, fmt.Errorf("join %s via %v: %w", gid, contact, types.ErrTimeout)
		}
	}
}

// abandon removes a group registration that never completed joining.
func (s *Stack) abandon(gid types.GroupID) {
	_ = s.node.Call(func() {
		if g, ok := s.lookup(gid); ok && !g.joined {
			g.closed = true
			g.closeWAL()
			delete(s.groups, gid.Key())
		}
	})
}

// remove unregisters a group after leave/dissolve. Actor goroutine only.
func (s *Stack) remove(gid types.GroupID) {
	delete(s.groups, gid.Key())
}

// onJoinRequest handles a join request arriving at any member: forward it to
// the coordinator if necessary, otherwise queue the join.
func (s *Stack) onJoinRequest(m *types.Message) {
	g, ok := s.lookup(m.Group)
	if !ok || !g.joined || g.closed {
		_ = s.node.Reply(m, nil, types.ErrNoSuchGroup.Error())
		return
	}
	coord := g.actingCoordinator()
	if coord != s.node.PID() {
		// Forward to the coordinator; the reply will go straight back to the
		// joiner because ReplyTo is preserved.
		fwd := m.Clone()
		if fwd.ReplyTo.IsNil() {
			fwd.ReplyTo = m.From
		}
		_ = s.node.Send(coord, fwd)
		return
	}
	g.coordinatorAddJoin(m)
}

// onLeaveRequest handles a leave request at the coordinator (or forwards).
func (s *Stack) onLeaveRequest(m *types.Message) {
	g, ok := s.lookup(m.Group)
	if !ok || !g.joined || g.closed {
		_ = s.node.Reply(m, nil, types.ErrNoSuchGroup.Error())
		return
	}
	coord := g.actingCoordinator()
	if coord != s.node.PID() {
		fwd := m.Clone()
		if fwd.ReplyTo.IsNil() {
			fwd.ReplyTo = m.From
		}
		_ = s.node.Send(coord, fwd)
		return
	}
	g.coordinatorAddLeave(m)
}

// onViewInstall needs special routing: the installing process may not have a
// Group object yet only in the (unsupported) uninvited-add case; normally the
// group exists because Join registered it.
func (s *Stack) onViewInstall(m *types.Message) {
	g, ok := s.lookup(m.Group)
	if !ok {
		return
	}
	if s.det != nil {
		s.det.Alive(m.From)
	}
	g.onViewInstall(m)
}
