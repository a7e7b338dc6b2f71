package group

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/member"
	"repro/internal/order"
	"repro/internal/reliability"
	"repro/internal/types"
	"repro/internal/wal"
)

// Group is one process's membership in one flat group. All unexported
// methods and fields are owned by the node's actor goroutine; the exported
// methods are safe from any other goroutine.
type Group struct {
	stack *Stack
	id    types.GroupID
	cfg   Config

	view   member.View
	joined bool
	closed bool
	wedged bool

	// Sender-side state. acks tracks blocking casts still waiting for their
	// resiliency quorum, keyed by the cast's own send sequence and resolved
	// from the members' receive-watermark reports.
	sendSeq uint64
	acks    map[uint64]*ackWaiter

	// Receiver-side state.
	fifo   *order.FIFO
	causal *order.Causal
	total  *order.Total
	seqr   *order.Sequencer

	// Reliability state: per-view receive/stability tracker plus cumulative
	// counters. The previous view's tracker and total-order engine are kept
	// for one view so NAKs from members still installing can be served.
	rel        *reliability.Tracker
	relStats   reliability.Stats
	prevViewID types.ViewID
	prevRel    *reliability.Tracker
	prevTotal  *order.Total

	suspected map[types.ProcessID]bool

	// Coordinator-side view-change state.
	flush            *member.FlushTracker
	pendJoin         []types.ProcessID
	pendLeave        []types.ProcessID
	pendFail         []types.ProcessID
	flushRetryCancel func()

	// Member-side view-change state.
	pending      *pendingInstall
	futureCasts  []*types.Message
	afterInstall []func()
	// parked holds current-view casts that arrived while wedged: delivering
	// them eagerly could exceed the flush's delivery cut at this member only,
	// breaking set agreement. They are replayed (up to the cut) when the
	// install arrives and discarded beyond it.
	parked       []*types.Message
	intake       castIntake      // onCastBatch's per-frame scratch
	forwardedFor types.ViewID    // proposed view we already flush-forwarded for
	proposeFrom  types.ProcessID // proposer of the in-progress view change
	proposedView types.ViewID

	// Recovery timer and bookkeeping (NAKs, stability reports, view NAKs).
	recoveryCancel     func()
	stabTicks          int
	stabRR             int // rotation cursor for the bounded-fanout stability tick
	ordGapTicks        int
	viewNakRR          int
	wedgeTicks         int // consecutive recovery ticks spent wedged awaiting an install
	lastInstallView    types.ViewID
	lastInstallPayload []byte

	// Durable state (state.go, wal.go): the application handler, the
	// checkpoint this member serves to joiners, a joining member's transfer
	// in progress with the deliveries held until its restore, and the
	// write-ahead delivery log.
	state         StateHandler
	stateReady    bool // state authoritative: capture checkpoints, log deliveries
	awaitingState bool // joiner holding OnDeliver until restore or grace
	held          []Delivery
	xfer          *stateXfer
	ckpt          *checkpoint
	earlyState    []*types.Message // offers/chunks that raced ahead of our install
	pendingOffers []types.ProcessID
	stateStats    StateTransferStats
	wal           *wal.Log

	joinedC   chan struct{}
	joinedSet bool
	leftC     chan struct{}
	leftSet   bool

	// Event subscriptions (Views/Deliveries). The maps are actor-owned; the
	// individual subs carry their own locks so they can be closed from the
	// subscriber side too.
	viewSubs map[*eventSub[member.View]]struct{}
	delSubs  map[*eventSub[Delivery]]struct{}

	snapMu     sync.Mutex
	snap       member.View
	closedSnap bool
}

// castIntake is the scratch onCastBatch sorts one frame into, kept across
// frames so intake allocates no per-frame lists. byOrdering[o] collects the
// current-view casts for engine o; direct holds the casts outside the known
// orderings, delivered directly like onCast does; reportTo lists the
// originators the frame is acknowledged to.
type castIntake struct {
	byOrdering [4][]*types.Message
	direct     []*types.Message
	reportTo   []types.ProcessID
}

// reset empties the scratch, dropping the message pointers so a quiet group
// pins no cast.
func (in *castIntake) reset() {
	for o := range in.byOrdering {
		clear(in.byOrdering[o])
		in.byOrdering[o] = in.byOrdering[o][:0]
	}
	clear(in.direct)
	in.direct, in.reportTo = in.direct[:0], in.reportTo[:0]
}

// ackWaiter tracks one cast's resiliency acknowledgements. Ackers are
// counted by process id, not by message, because the network may duplicate
// reports (the chaos harness injects exactly that): the quorum must mean
// "need distinct members hold the cast", never "need ack frames arrived".
type ackWaiter struct {
	need  int
	from  map[types.ProcessID]bool
	done  chan error
	ticks int // recovery ticks survived; drives the re-send of lost reports
}

type pendingInstall struct {
	view  member.View
	cut   map[types.ProcessID]uint64
	abCut uint64 // highest re-announced ABCAST slot to deliver before installing
}

func newGroup(s *Stack, gid types.GroupID, cfg Config) *Group {
	return &Group{
		stack:     s,
		id:        gid,
		cfg:       cfg,
		state:     cfg.State,
		acks:      make(map[uint64]*ackWaiter),
		suspected: make(map[types.ProcessID]bool),
		joinedC:   make(chan struct{}),
		leftC:     make(chan struct{}),
	}
}

// ID returns the group's identifier.
func (g *Group) ID() types.GroupID { return g.id }

// Stack returns the group stack this membership belongs to.
func (g *Group) Stack() *Stack { return g.stack }

// Self returns the process id of the local member.
func (g *Group) Self() types.ProcessID { return g.stack.node.PID() }

// CurrentView returns a snapshot of the most recently installed view. It is
// safe to call from any goroutine, including delivery callbacks.
func (g *Group) CurrentView() member.View {
	g.snapMu.Lock()
	defer g.snapMu.Unlock()
	return g.snap.Clone()
}

// Coordinator returns the coordinator of the current view snapshot.
func (g *Group) Coordinator() types.ProcessID { return g.CurrentView().Coordinator() }

// Size returns the member count of the current view snapshot.
func (g *Group) Size() int { return g.CurrentView().Size() }

// DebugString renders this member's view-change state on one line — the
// installed view, wedge/flush/pending status, the in-progress proposal and
// the current suspicions. Chaos reports attach it to violations so a wedged
// or diverged replica explains itself. Safe from any goroutine.
func (g *Group) DebugString() string {
	var s string
	err := g.stack.node.Call(func() {
		susp := make([]string, 0, len(g.suspected))
		for _, p := range g.view.Members {
			if g.suspected[p] {
				susp = append(susp, p.String())
			}
		}
		s = fmt.Sprintf("%v wedged=%t flush=%t pending=%t proposed=v%d from=%v joined=%t awaitState=%t parked=%d suspected=%v",
			g.view, g.wedged, g.flush != nil, g.pending != nil, g.proposedView, g.proposeFrom, g.joined, g.awaitingState, len(g.parked), susp)
	})
	if err != nil {
		return fmt.Sprintf("unavailable: %v", err)
	}
	return s
}

// Closed reports whether this process has left (or been removed from) the
// group.
func (g *Group) Closed() bool {
	g.snapMu.Lock()
	defer g.snapMu.Unlock()
	return g.closedSnap
}

// Left returns a channel closed once this process has left the group.
func (g *Group) Left() <-chan struct{} { return g.leftC }

// --- lifecycle ---------------------------------------------------------------

// install applies a new view on the actor goroutine. The cut (nil only for
// a founding view) was already honoured — or grace-timed-out — by the
// caller; here it additionally settles the closing view's pending
// resiliency waiters.
func (g *Group) install(v member.View, cut map[types.ProcessID]uint64) {
	self := g.stack.node.PID()
	wasJoined := g.joined

	if debugViews {
		fmt.Printf("[views] %v installs %v (was %v)\n", self, v, g.view)
	}

	// The install settles every waiter still pending from the closing view,
	// judged against the delivery cut:
	// a cast at or below the cut's entry for this sender is held (and
	// delivered) by every survivor that honoured the cut — view agreement
	// now guarantees what the per-member quorum was waiting to observe — so
	// its waiter resolves with success. A cast ABOVE the cut got no such
	// guarantee (the sender's flush acknowledgement was never collected:
	// lost propose plus suspicion mid-flush, or a skipped install whose cut
	// describes a later view), and its per-view report state is about to be
	// discarded, so its waiter fails as a timeout. (A sender that did not
	// survive never reaches this path: removal goes through markLeft, which
	// fails the waiters with ErrNotMember.) Success still inherits the
	// InstallGrace escape hatch's weakening exactly as set agreement itself
	// does: a member that timed out waiting for the cut installed without
	// some casts, and the sender cannot observe that remotely.
	for seq, w := range g.acks {
		delete(g.acks, seq)
		var res error
		if seq > cut[self] {
			res = fmt.Errorf("cast %d to %s: view changed before the quorum formed: %w", seq, g.id, types.ErrTimeout)
		}
		select {
		case w.done <- res:
		default:
		}
	}

	// Keep the outgoing view's retransmit buffer and delivered-order log for
	// one view: members still waiting for this install NAK their missing
	// casts and bindings, and the holders that already moved on must still
	// be able to serve them.
	if g.joined {
		g.prevViewID, g.prevRel, g.prevTotal = g.view.ID, g.rel, g.total
	}
	g.parked = nil
	g.forwardedFor = 0
	g.proposeFrom = types.NilProcess
	g.proposedView = 0
	g.ordGapTicks = 0

	g.view = v
	g.joined = true
	g.wedged = false
	g.pending = nil
	g.sendSeq = 0
	g.rel = reliability.NewTracker(self, v.Members, &g.relStats)
	g.fifo = order.NewFIFO()
	g.causal = order.NewCausal(v.Members)
	g.total = order.NewTotal()
	if v.Coordinator() == self {
		g.seqr = order.NewSequencer()
	} else {
		g.seqr = nil
	}
	for p := range g.suspected {
		if !v.Contains(p) {
			delete(g.suspected, p)
		}
	}
	if g.recoveryCancel == nil {
		g.recoveryCancel = g.stack.node.Every(g.cfg.Reliability.NakInterval, func() { g.onRecoveryTick() })
	}

	g.snapMu.Lock()
	g.snap = v.Clone()
	g.snapMu.Unlock()

	// Durable state: the install is the view-consistent cut. Ready members
	// re-capture their checkpoint here — before any view-v delivery touches
	// the application — a joining member arms its transfer, and the flush
	// coordinator streams the fresh checkpoint to the members this install
	// added.
	g.stateOnInstall(v.ID, wasJoined)

	if det := g.stack.det; det != nil {
		// Monitor the other members of every group we belong to. Using the
		// union across groups would be more precise; monitoring per install
		// is enough because MonitorSet is called again on the next change.
		det.MonitorSet(v.Members)
	}

	if !g.joinedSet {
		g.joinedSet = true
		close(g.joinedC)
	}
	if g.cfg.OnView != nil {
		g.cfg.OnView(v.Clone())
	}
	if obs := g.stack.obs.OnView; obs != nil {
		obs(g.id, v.Clone())
	}
	g.emitView(v)

	// Replay casts that arrived for this view before the install did.
	future := g.futureCasts
	g.futureCasts = nil
	for _, m := range future {
		if m.View == g.view.ID {
			g.onCast(m)
		}
	}

	// Run deferred work (casts issued while wedged).
	deferred := g.afterInstall
	g.afterInstall = nil
	for _, fn := range deferred {
		fn()
	}

	// If more membership work is queued and we are the acting coordinator,
	// keep going.
	g.maybeStartViewChange()
}

// markLeft finalises removal of the local process from the group.
func (g *Group) markLeft() {
	g.closed = true
	if g.recoveryCancel != nil {
		g.recoveryCancel()
		g.recoveryCancel = nil
	}
	g.cancelFlushRetry()
	g.closeWAL()
	g.awaitingState = false
	g.xfer, g.ckpt, g.held, g.earlyState, g.pendingOffers = nil, nil, nil, nil, nil
	g.dropSubscribers()
	g.snapMu.Lock()
	g.closedSnap = true
	g.snapMu.Unlock()
	if !g.leftSet {
		g.leftSet = true
		close(g.leftC)
	}
	// Fail any casts still waiting for acknowledgements.
	for seq, w := range g.acks {
		select {
		case w.done <- fmt.Errorf("group %s: %w", g.id, types.ErrNotMember):
		default:
		}
		delete(g.acks, seq)
	}
	g.stack.remove(g.id)
}

// --- membership: coordinator side --------------------------------------------

// actingCoordinator returns the lowest-ranked member of the current view
// that this process does not suspect. With no live members it returns the
// local process id (so a lone survivor can still make progress).
func (g *Group) actingCoordinator() types.ProcessID {
	for _, m := range g.view.Members {
		if !g.suspected[m] {
			return m
		}
	}
	return g.stack.node.PID()
}

func (g *Group) coordinatorAddJoin(m *types.Message) {
	joiner := m.ReplyTo
	if joiner.IsNil() {
		joiner = m.From
	}
	if g.view.Contains(joiner) {
		_ = g.stack.node.Reply(m, nil, "")
		return
	}
	if !types.ContainsProcess(g.pendJoin, joiner) {
		g.pendJoin = append(g.pendJoin, joiner)
	}
	_ = g.stack.node.Reply(m, nil, "")
	g.maybeStartViewChange()
}

func (g *Group) coordinatorAddLeave(m *types.Message) {
	leaver := m.ReplyTo
	if leaver.IsNil() {
		leaver = m.From
	}
	if !g.view.Contains(leaver) {
		_ = g.stack.node.Reply(m, nil, "")
		return
	}
	if !types.ContainsProcess(g.pendLeave, leaver) {
		g.pendLeave = append(g.pendLeave, leaver)
	}
	_ = g.stack.node.Reply(m, nil, "")
	g.maybeStartViewChange()
}

// reportFailure records a suspicion and, when this process is the acting
// coordinator, schedules the membership change.
func (g *Group) reportFailure(p types.ProcessID) {
	if g.closed || p == g.stack.node.PID() {
		return
	}
	g.suspected[p] = true
	// A suspected process must not be admitted either: a join request whose
	// sender died while queued would otherwise put a corpse in the next view
	// (no flush ever waits on a non-member, so nothing detects it — every
	// later flush then waits on the dead member forever).
	g.pendJoin = types.RemoveProcess(g.pendJoin, p)
	if !g.joined || !g.view.Contains(p) {
		return
	}
	// If we are coordinating a flush and waiting on the failed process, stop
	// waiting for it.
	if g.flush != nil && g.flush.Drop(p) {
		g.finishFlush()
	}
	if !types.ContainsProcess(g.pendFail, p) {
		g.pendFail = append(g.pendFail, p)
	}
	g.maybeStartViewChange()
}

// maybeStartViewChange starts a flush if this process is the acting
// coordinator, no change is already in progress, and membership work is
// queued.
func (g *Group) maybeStartViewChange() {
	if g.closed || !g.joined || g.wedged || g.flush != nil {
		return
	}
	if g.actingCoordinator() != g.stack.node.PID() {
		return
	}
	if len(g.pendJoin) == 0 && len(g.pendLeave) == 0 && len(g.pendFail) == 0 {
		return
	}
	g.startViewChange()
}

// takeOverViewChange restarts a view change whose proposing coordinator died
// before any survivor processed the install. The acked proposal is abandoned
// (it lives only in the survivors' wedges) and this member — the acting
// coordinator, every member ranked above it being suspected — re-proposes
// with the same successor view id: wedged members re-acknowledge a proposal
// for their current view's successor regardless of who sends it. If the
// original change *was* installed somewhere after all, the installed member
// answers the takeover proposal with the install itself (see onViewPropose)
// and the takeover flush is abandoned in its favour (see onViewInstall), so
// the two coordinators cannot produce rival views with the same id.
func (g *Group) takeOverViewChange() {
	g.wedgeTicks = 0
	g.wedged = false
	g.startViewChange() // folds every suspected member into the removal set
}

func (g *Group) startViewChange() {
	self := g.stack.node.PID()

	if debugViews {
		susp := make([]string, 0, len(g.suspected))
		for p := range g.suspected {
			susp = append(susp, p.String())
		}
		fmt.Printf("[views] %v proposes from %v: fail=%v join=%v leave=%v suspected=%v\n",
			self, g.view, g.pendFail, g.pendJoin, g.pendLeave, susp)
	}

	removed := make(map[types.ProcessID]bool)
	for _, p := range g.pendLeave {
		removed[p] = true
	}
	for _, p := range g.pendFail {
		removed[p] = true
	}
	// Invariant: a proposal never carries a member its proposer suspects.
	// Suspicion of a non-member leaves no pendFail entry (there is nothing to
	// remove), so a process that was suspected before it was admitted would
	// otherwise survive as a permanent zombie member.
	for _, p := range g.view.Members {
		if g.suspected[p] {
			removed[p] = true
		}
	}
	var added []types.ProcessID
	for _, p := range g.pendJoin {
		if !g.view.Contains(p) && !removed[p] && !g.suspected[p] {
			added = append(added, p)
		}
	}
	newMembers := make([]types.ProcessID, 0, g.view.Size()+len(added))
	for _, p := range g.view.Members {
		if !removed[p] {
			newMembers = append(newMembers, p)
		}
	}
	newMembers = append(newMembers, added...)
	g.pendJoin, g.pendLeave, g.pendFail = nil, nil, nil

	proposed := member.View{Group: g.id, ID: g.view.ID + 1, Members: newMembers}

	// Survivors (old ∩ new) must flush; the coordinator acknowledges
	// implicitly below.
	var waitFor []types.ProcessID
	for _, p := range g.view.Members {
		if p != self && proposed.Contains(p) && !g.suspected[p] {
			waitFor = append(waitFor, p)
		}
	}

	corr := g.stack.node.NextCorr()
	g.flush = member.NewFlushTracker(proposed, corr, waitFor)
	g.wedged = true
	g.proposedView = proposed.ID
	g.flushForward(proposed)

	payload := types.EncodeString(nil, string(proposed.Encode()))
	template := &types.Message{
		Kind:    types.KindViewPropose,
		Group:   g.id,
		View:    proposed.ID,
		Corr:    corr,
		Payload: payload,
	}
	g.stack.node.SendCopies(g.view.Members, template)
	g.scheduleFlushRetry(corr, payload)

	// The coordinator's own flush contribution.
	g.flush.NoteOrder(self, g.orderInfo())
	if g.flush.Ack(self, g.cutVector()) {
		g.finishFlush()
	}
}

// flushForward re-multicasts every unstable cast this member holds to the
// survivors of a proposed view change (classic virtual synchrony's flush
// forwarding). It runs once per proposed view, at the moment the member
// wedges: anything a survivor received before acknowledging the flush is
// thereby offered to every other survivor, so the aggregated delivery cut —
// built from contiguous-receive watermarks — is always satisfiable, even for
// casts whose sender crashed mid-fanout. Stability bounds the forwarded set:
// casts every member already holds are never re-sent.
func (g *Group) flushForward(proposed member.View) {
	if g.rel == nil || !g.joined {
		return
	}
	if g.forwardedFor == proposed.ID {
		return
	}
	g.forwardedFor = proposed.ID
	self := g.stack.node.PID()
	var dests []types.ProcessID
	for _, p := range g.view.Members {
		if p != self && proposed.Contains(p) && !g.suspected[p] {
			dests = append(dests, p)
		}
	}
	if len(dests) == 0 {
		return
	}
	for _, m := range g.rel.Unstable() {
		g.stack.node.SendCopies(dests, retransmission(m))
		g.relStats.Forwarded++
	}
}

// orderInfo snapshots this member's ABCAST state for a flush
// acknowledgement.
func (g *Group) orderInfo() member.OrderInfo {
	if g.total == nil {
		return member.OrderInfo{Next: 1}
	}
	return member.OrderInfo{
		Next:      g.total.NextSeq(),
		Bindings:  g.total.Bindings(0),
		Unordered: g.total.UnorderedIDs(),
	}
}

// cutVector is this member's flush-acknowledgement delivery cut: per-sender
// contiguous-receive watermarks (every sequence in it is a cast this process
// holds, so the aggregated cut is satisfiable by forwarding), plus its own
// send watermark.
func (g *Group) cutVector() map[types.ProcessID]uint64 {
	var out map[types.ProcessID]uint64
	if g.rel != nil {
		out = g.rel.CutVector()
	} else {
		out = make(map[types.ProcessID]uint64, 1)
	}
	out[g.stack.node.PID()] = g.sendSeq
	return out
}

// scheduleFlushRetry re-sends the view proposal to members that have not
// acknowledged yet, so a lost propose (or a lost acknowledgement) cannot
// stall the view change forever. The retry stops when the flush completes.
func (g *Group) scheduleFlushRetry(corr uint64, payload []byte) {
	g.cancelFlushRetry()
	g.flushRetryCancel = g.stack.node.Every(g.cfg.FlushRetry, func() {
		if g.closed || g.flush == nil || g.flush.Corr != corr {
			return
		}
		waiting := g.flush.Waiting()
		if len(waiting) == 0 {
			return
		}
		template := &types.Message{
			Kind:    types.KindViewPropose,
			Group:   g.id,
			View:    g.flush.Proposed.ID,
			Corr:    corr,
			Payload: payload,
		}
		g.stack.node.SendCopies(waiting, template)
	})
}

func (g *Group) cancelFlushRetry() {
	if g.flushRetryCancel != nil {
		g.flushRetryCancel()
		g.flushRetryCancel = nil
	}
}

func (g *Group) finishFlush() {
	if g.flush == nil {
		return
	}
	proposed := g.flush.Proposed
	cut := g.flush.Cut()
	reannounce, unbound, lastSlot := g.flush.MergedOrder()
	g.flush = nil
	g.cancelFlushRetry()

	// Sequencer failover: re-announce the agreed order of the closing view.
	// Bindings some survivor still needs are re-sent, and casts whose order
	// announcements died with the old sequencer get fresh slots after the
	// highest slot it provably used. Survivors that already delivered a
	// re-announced slot ignore it as stale; within one view there is a
	// single sequencer, so re-announced bindings can never conflict.
	abCut := lastSlot
	anns := reannounce
	for _, id := range unbound {
		abCut++
		anns = append(anns, types.SeqBinding{Seq: abCut, ID: id})
	}
	for _, b := range anns {
		om := &types.Message{
			Kind:  types.KindOrder,
			Group: g.id,
			View:  g.view.ID,
			ID:    b.ID,
			Seq:   b.Seq,
		}
		g.stack.node.SendCopies(g.view.Members, om)
		for _, d := range g.total.AddOrder(b.Seq, b.ID) {
			g.deliver(d)
		}
		g.relStats.Reannounced++
	}

	// Replay casts parked during the wedge, up to the cut, before the
	// install freezes the view's delivered set.
	g.applyParked(cut)

	viewBytes := types.EncodeString(nil, string(proposed.Encode()))
	payload := append(viewBytes, member.EncodeCut(cut)...)
	payload = types.EncodeUint64(payload, abCut)

	// Install goes to everyone who needs to learn the outcome: members of
	// the new view plus members of the old view that were removed.
	dests := types.CopyProcesses(proposed.Members)
	for _, p := range g.view.Members {
		if !proposed.Contains(p) && !types.ContainsProcess(dests, p) {
			dests = append(dests, p)
		}
	}
	template := &types.Message{
		Kind:    types.KindViewInstall,
		Group:   g.id,
		View:    proposed.ID,
		Payload: payload,
	}
	g.stack.node.SendCopies(dests, template)
	// Keep the install so members whose copy was lost can re-request it
	// (KindViewNak).
	g.lastInstallView = proposed.ID
	g.lastInstallPayload = payload

	// Queue checkpoint offers for the members this change adds. The stream
	// itself starts once the local install captures the snapshot at the new
	// view's cut (stateOnInstall) — the retired one-shot transfer sent here,
	// before the coordinator had necessarily delivered up to the cut itself,
	// and as a single unacknowledged frame.
	if g.state != nil {
		for _, p := range proposed.Members {
			if !g.view.Contains(p) && p != g.stack.node.PID() {
				g.pendingOffers = append(g.pendingOffers, p)
			}
		}
	}

	// Apply locally, honouring the same delivery cut members honour (the
	// coordinator itself may still be missing forwarded casts in flight).
	self := g.stack.node.PID()
	if proposed.Contains(self) {
		g.holdOrInstall(proposed, cut, abCut)
	} else {
		g.markLeft()
	}
}

// holdOrInstall installs the view once the delivery cut (and the
// re-announced ABCAST prefix) is satisfied, holding it as a pending install
// with a grace timeout otherwise. Shared by the coordinator's local apply
// and the member-side install handler.
func (g *Group) holdOrInstall(v member.View, cut map[types.ProcessID]uint64, abCut uint64) {
	if g.joined && !g.cutSatisfied(cut, abCut) {
		// Wedge while the install is pending: a member whose propose copy
		// was lost (the flush completed by dropping it as suspected) arrives
		// here unwedged, and without the wedge it would keep delivering —
		// and, as sequencer, keep sequencing — closing-view casts beyond the
		// cut that every other survivor parks and discards.
		g.wedged = true
		g.pending = &pendingInstall{view: v, cut: cut, abCut: abCut}
		vid := v.ID
		g.stack.node.After(g.cfg.InstallGrace, func() {
			if g.pending != nil && g.pending.view.ID == vid {
				p := g.pending
				g.pending = nil
				g.install(p.view, p.cut)
			}
		})
		return
	}
	g.install(v, cut)
}

// --- membership: member side --------------------------------------------------

func (g *Group) onViewPropose(m *types.Message) {
	if g.closed {
		return
	}
	if g.joined && m.View <= g.view.ID {
		// A propose for a view we already installed (a delayed or duplicated
		// copy arriving after the install). Re-wedging here would freeze the
		// group forever: the flush it belongs to has already completed and no
		// further install will release us. If the proposer is a takeover
		// coordinator that missed the original install, the install is its
		// answer — sending it supersedes the takeover flush.
		if g.lastInstallPayload != nil && g.lastInstallView >= m.View {
			_ = g.stack.node.Send(m.From, &types.Message{
				Kind:    types.KindViewInstall,
				Group:   g.id,
				View:    g.lastInstallView,
				Payload: g.lastInstallPayload,
			})
		}
		return
	}
	viewStr, _, ok := types.DecodeString(m.Payload)
	if !ok {
		return
	}
	proposed, err := member.DecodeView([]byte(viewStr))
	if err != nil {
		return
	}
	if !g.joined || m.View != g.view.ID+1 {
		// The proposal closes a view we are not in — we missed at least one
		// install. Acknowledging now would merge this member's watermarks
		// for an older view into the new view's delivery cut, corrupting it
		// for everyone (sequence numbers restart per view). Wedge, remember
		// the proposal, and let the recovery tick pull the installs we are
		// missing; the proposer's flush retry collects our acknowledgement
		// once we have caught up.
		if g.joined {
			g.wedged = true
			g.proposeFrom = m.From
			if m.View > g.proposedView {
				g.proposedView = m.View
			}
		}
		return
	}
	if !g.view.Contains(m.From) {
		// A proposal to close our current view from a process that is not in
		// it: a ghost. Real-process chaos produces these — a member stalled
		// under SIGSTOP is evicted, wakes with stale state, suspects the
		// world and proposes rival view changes to the group it is no longer
		// part of. Only current members (the acting coordinator, or a
		// takeover coordinator) may close the view; wedging for a ghost
		// would freeze the group forever, since the ghost's flush can never
		// finish with an install we accept. Answer with the install that
		// evicted it so the ghost discovers its removal and stands down.
		if g.lastInstallPayload != nil {
			_ = g.stack.node.Send(m.From, &types.Message{
				Kind:    types.KindViewInstall,
				Group:   g.id,
				View:    g.lastInstallView,
				Payload: g.lastInstallPayload,
			})
		}
		return
	}
	g.wedged = true
	g.proposeFrom = m.From
	if m.View > g.proposedView {
		g.proposedView = m.View
	}
	// Forward our unstable casts to the survivors before acknowledging, so
	// the cut we are about to report is satisfiable everywhere (once per
	// proposed view; retried proposes only re-acknowledge).
	g.flushForward(proposed)
	// Flush acknowledgement carries the contiguous prefix of each sender's
	// traffic we hold, plus our ABCAST order state for sequencer failover.
	payload := member.EncodeCut(g.cutVector())
	payload = append(payload, member.EncodeOrderInfo(g.orderInfo())...)
	_ = g.stack.node.Send(m.From, &types.Message{
		Kind:    types.KindViewFlushAck,
		Group:   g.id,
		View:    m.View,
		Corr:    m.Corr,
		Payload: payload,
	})
}

func (g *Group) onViewFlushAck(m *types.Message) {
	if g.flush == nil || m.Corr != g.flush.Corr {
		return
	}
	cut, rest, ok := member.DecodeCut(m.Payload)
	if !ok {
		return
	}
	if oi, _, ok := member.DecodeOrderInfo(rest); ok {
		g.flush.NoteOrder(m.From, oi)
	}
	if g.flush.Ack(m.From, cut) {
		g.finishFlush()
	}
}

func (g *Group) onViewInstall(m *types.Message) {
	if g.closed {
		return
	}
	viewStr, rest, ok := types.DecodeString(m.Payload)
	if !ok {
		return
	}
	v, err := member.DecodeView([]byte(viewStr))
	if err != nil {
		return
	}
	cut, rest, _ := member.DecodeCut(rest)
	abCut, _, _ := types.DecodeUint64(rest)

	if g.joined && v.ID <= g.view.ID {
		return // stale install
	}
	// The install that closes our current view must come from one of its
	// members — the acting coordinator or a takeover coordinator, both by
	// definition inside the view being closed. An install for view.ID+1 from
	// an outsider is a ghost: a member evicted views ago that woke from a
	// stall still believing it owns the group and kept installing rival
	// views. Accepting it would desynchronise us from the surviving
	// majority (or, below, make us remove ourselves). Checked before the
	// flush-abandon block so a ghost cannot abort a real takeover flush.
	if g.joined && v.ID == g.view.ID+1 && !g.view.Contains(m.From) {
		return
	}
	// An install for (or past) the view we are proposing as a takeover
	// coordinator: the original change completed somewhere after all. Adopt
	// the install and abandon our flush — two completed flushes for the same
	// successor id would hand out rival views.
	if g.flush != nil && v.ID >= g.flush.Proposed.ID {
		g.flush = nil
		g.cancelFlushRetry()
	}
	self := g.stack.node.PID()
	if !v.Contains(self) {
		// We have been removed (left, or wrongly suspected while partitioned).
		// But never on the word of a process we ourselves suspect: a member
		// stalled long enough to be evicted wakes believing everyone else is
		// dead, installs a rival singleton view unilaterally, and broadcasts
		// that install to the view it just "closed" — accepting it would make
		// healthy members of the surviving majority remove themselves. The
		// ghost's install races the real one here, so the suspicion set is
		// the discriminator: the real coordinator's install retains us (taken
		// above), while an install that evicts us *and* comes from a process
		// whose heartbeats have stopped is the ghost's. The ghost itself
		// stays in its rival view; the fleet doctor restarts it.
		if g.joined && g.suspected[m.From] {
			return
		}
		g.markLeft()
		return
	}
	g.lastInstallView = v.ID
	g.lastInstallPayload = append([]byte(nil), m.Payload...)
	if g.joined && v.ID == g.view.ID+1 {
		// The install's sender is the flush's authority for the closing
		// view. A member whose propose copy was lost arrives here with no
		// proposer recorded; noting one now keeps the sequencer-failover
		// fence (onOrder) from discarding the order traffic — re-announced
		// bindings, NAK answers in a coordinator-led change — that the
		// pending install's abCut needs to complete.
		if g.proposeFrom.IsNil() {
			g.proposeFrom = m.From
		}
		// Replay casts parked during the wedge up to the cut; anything
		// beyond it belongs to no survivor's acknowledged prefix and is
		// discarded, so no member's delivered set can exceed the cut.
		g.applyParked(cut)
		g.holdOrInstall(v, cut, abCut)
		return
	}
	// Skipping ahead (we missed an intermediate install): the cut describes
	// a view we never saw, so neither parked casts nor pending resiliency
	// waiters (whose sequences belong to our older view) can be interpreted
	// against it — drop the former, and hand install a nil cut so the
	// latter settle as timeouts rather than false successes.
	g.parked = nil
	g.install(v, nil)
}

// onStateTransfer handles the legacy one-shot transfer kind (wire compat with
// pre-chunking senders; nothing in this repository emits it anymore). It is
// fenced: only a member still awaiting its join-time state accepts one, and
// only for a view at or after the member's first — a delayed transfer from an
// older view must not overwrite a newer restore.
func (g *Group) onStateTransfer(m *types.Message) {
	if g.closed || g.state == nil {
		return
	}
	if !g.joined {
		g.earlyState = append(g.earlyState, m)
		return
	}
	if !g.awaitingState || g.xfer == nil || m.View < g.xfer.minView {
		return
	}
	if g.xfer.locked && m.View < g.xfer.offerView {
		return
	}
	g.finishStateTransfer(append([]byte(nil), m.Payload...), m.View, true)
}

// cutSatisfied reports whether this member holds every cast the install's
// delivery cut demands. The cut aggregates contiguous-receive watermarks, so
// every sequence in it is held by at least one survivor and recoverable by
// flush forwarding and NAKs — which is why failed senders are NOT skipped:
// their casts are exactly what flush forwarding recovers, and waiting for
// them is what makes survivors agree on the dead sender's delivered set.
// abCut additionally requires the re-announced ABCAST prefix to be fully
// delivered before the view closes.
func (g *Group) cutSatisfied(cut map[types.ProcessID]uint64, abCut uint64) bool {
	for sender, seq := range cut {
		if sender == g.stack.node.PID() {
			continue // we have trivially seen our own traffic
		}
		if g.rel == nil || g.rel.Ctg(sender) < seq {
			return false
		}
	}
	if abCut > 0 && g.total != nil && g.total.NextSeq() <= abCut {
		return false
	}
	return true
}

// applyParked replays the casts parked while wedged, up to the delivery
// cut, through the normal receive path (without sequencing: the closing
// view's agreed order is frozen by the flush). Casts beyond the cut are
// discarded — no acknowledged survivor holds them, so delivering them here
// would break set agreement.
func (g *Group) applyParked(cut map[types.ProcessID]uint64) {
	parked := g.parked
	g.parked = nil
	for _, m := range parked {
		if m.View != g.view.ID || m.ID.Seq > cut[m.ID.Sender] {
			continue
		}
		g.processCast(m, false, false)
	}
}

// --- multicast ----------------------------------------------------------------

// Cast multicasts payload to the group with the requested ordering and
// blocks until the configured resiliency (number of destination
// acknowledgements) is met, the context expires, or the group is closed.
func (g *Group) Cast(ctx context.Context, o types.Ordering, payload []byte) error {
	done := make(chan error, 1)
	g.stack.node.Do(func() { g.castOnActor(o, payload, done) })
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return fmt.Errorf("cast to %s: %w", g.id, types.ErrTimeout)
	case <-g.stack.node.StopC():
		return types.ErrStopped
	}
}

// CastAsync multicasts without waiting for acknowledgements. Errors are
// reported only for local conditions (not a member, closed).
func (g *Group) CastAsync(o types.Ordering, payload []byte) {
	g.stack.node.Do(func() {
		// nil done: fire-and-forget, no completion channel to allocate.
		g.castOnActor(o, payload, nil)
	})
}

// castOnActor runs the sender side of one multicast. done may be nil
// (CastAsync), in which case completion and errors are not reported.
func (g *Group) castOnActor(o types.Ordering, payload []byte, done chan error) {
	if g.closed || !g.joined {
		if done != nil {
			done <- fmt.Errorf("cast to %s: %w", g.id, types.ErrNotMember)
		}
		return
	}
	if g.wedged {
		// A view change is in progress: defer the cast into the next view.
		g.afterInstall = append(g.afterInstall, func() { g.castOnActor(o, payload, done) })
		return
	}
	self := g.stack.node.PID()
	g.sendSeq++
	msg := &types.Message{
		Kind:     types.KindCast,
		From:     self,
		Group:    g.id,
		View:     g.view.ID,
		ID:       types.MsgID{Sender: self, Seq: g.sendSeq},
		Ordering: o,
		Payload:  payload,
	}
	switch o {
	case types.Causal:
		vt := g.causal.Clock()
		rank := g.causal.Rank(self)
		if rank >= 0 {
			vt = vt.Tick(rank)
		}
		msg.VT = vt
	case types.Total:
		if g.seqr != nil {
			msg.Seq = g.seqr.Assign()
		}
	}
	// Piggyback our receive watermarks and delivered ABCAST prefix: the
	// receivers aggregate every member's report into the stability watermark
	// that bounds retransmit buffers and the ordering engines' memory.
	msg.Stab = g.rel.StabVector()
	msg.StabOrd = g.total.NextSeq()

	need := g.cfg.Resiliency
	if max := g.view.Size() - 1; need > max {
		need = max
	}
	if need > 0 && done != nil {
		g.acks[g.sendSeq] = &ackWaiter{need: need, from: make(map[types.ProcessID]bool, need), done: done}
	}

	g.stack.node.SendCopies(g.view.Members, msg)
	// Self-delivery through the same path as remote copies, in an envelope
	// of its own: msg now belongs to the outbox, and the ordering engines
	// write delivered envelopes (order.Total stamps Seq). The VT is shared
	// read-only; the payload is copied because the delivery hands it to the
	// application. No stability report: ingestStab ignores our own.
	own := *msg
	own.Payload = bytes.Clone(payload)
	own.Stab, own.StabOrd = nil, 0
	g.onCast(&own)

	if need <= 0 && done != nil {
		done <- nil
	}
}

func (g *Group) onCast(m *types.Message) {
	if g.closed {
		return
	}
	if !g.joined || m.View != g.view.ID {
		if m.View > g.view.ID || !g.joined {
			// A cast from a view we have not installed yet: keep it for
			// replay right after the install.
			g.futureCasts = append(g.futureCasts, m)
		}
		return
	}
	g.ingestStab(m)
	if g.parksCast(m) {
		g.parked = append(g.parked, m)
		g.sendReportTo(m.ID.Sender)
		return
	}
	g.processCast(m, g.maySequence(m), true)
	g.recheckPendingInstall()
}

// parksCast reports whether a current-view cast must wait out the view
// change in progress: a wedged member parks every peer's cast until the
// install announces the delivery cut, and every cast beyond the cut after
// that. Delivering one eagerly could exceed the eventual cut at this member
// only, breaking set agreement; the install replays parked casts up to the
// cut and discards the rest. A cast at or below a known cut is taken in, so
// the pending install can complete.
func (g *Group) parksCast(m *types.Message) bool {
	return g.wedged && m.From != g.stack.node.PID() &&
		(g.pending == nil || m.ID.Seq > g.pending.cut[m.ID.Sender])
}

// maySequence reports whether the sequencer may still assign m a slot:
// sequencing stays frozen for peers' casts while a flush is in progress.
func (g *Group) maySequence(m *types.Message) bool {
	return !g.wedged || m.From == g.stack.node.PID()
}

// processCast runs the receive path for one current-view cast: duplicate
// filtering and buffering in the reliability tracker, the receipt
// acknowledgement, sequencing (when allowed) and the ordering engines.
func (g *Group) processCast(m *types.Message, allowSequence, ack bool) {
	fresh := g.rel.Note(m)
	if ack {
		// Duplicates re-acknowledge too: the first report may have been lost.
		g.sendReportTo(m.ID.Sender)
	}
	if !fresh {
		// Already held (network duplicate or a retransmission of something
		// we have). This receive-side filter is what lets the ordering
		// engines prune their duplicate-suppression state to the unstable
		// suffix.
		return
	}
	// The sequencer assigns the total order for casts that need one. The
	// Ordered check keeps an already-sequenced retransmission from being
	// sequenced a second time (which would deliver it twice everywhere).
	if allowSequence && m.Ordering == types.Total && m.Seq == 0 && g.seqr != nil && !g.total.Ordered(m.ID) {
		seq := g.seqr.Assign()
		orderMsg := &types.Message{
			Kind:  types.KindOrder,
			Group: g.id,
			View:  g.view.ID,
			ID:    m.ID,
			Seq:   seq,
		}
		g.stack.node.SendCopies(g.view.Members, orderMsg)
		for _, d := range g.total.AddOrder(seq, m.ID) {
			g.deliver(d)
		}
	}

	var deliverable []*types.Message
	switch m.Ordering {
	case types.Causal:
		deliverable = g.causal.Add(m)
	case types.Total:
		deliverable = g.total.Add(m)
	case types.FIFO:
		deliverable = g.fifo.Add(m)
	default: // Unordered
		deliverable = []*types.Message{m}
	}
	for _, d := range deliverable {
		g.deliver(d)
	}
}

// sendReportTo sends this member's cumulative stability report (the per-
// sender contiguous-receive watermarks plus the delivered ABCAST prefix) to
// one peer. Sent to a cast's originator it is the acknowledgement of that
// cast and of its whole prefix: the receiver folds it into its tracker, which
// both advances stability and resolves any resiliency waiters the watermarks
// now cover. The report rides the batching outbox, so a frame of casts is
// answered by (at most) one report per sender in it.
func (g *Group) sendReportTo(p types.ProcessID) {
	if p == g.stack.node.PID() || g.rel == nil {
		return
	}
	_ = g.stack.node.Send(p, &types.Message{
		Kind:    types.KindStability,
		Group:   g.id,
		View:    g.view.ID,
		Stab:    g.rel.StabVector(),
		StabOrd: g.total.NextSeq(),
	})
}

// ingestStab folds a piggybacked (or standalone) stability report into the
// tracker and prunes the total-order engine's delivered bookkeeping to the
// group-wide stable prefix.
func (g *Group) ingestStab(m *types.Message) {
	if len(m.Stab) == 0 && m.StabOrd == 0 {
		return
	}
	if !g.joined || m.View != g.view.ID || g.rel == nil {
		return
	}
	if m.From == g.stack.node.PID() {
		return // self-delivery: our own watermarks are the tracker's state already
	}
	var ord uint64
	if m.StabOrd > 0 {
		ord = m.StabOrd - 1
	}
	g.rel.Report(m.From, m.Stab, ord)
	g.total.SetStable(g.rel.StableOrd(g.total.NextSeq() - 1))
	g.resolveCastWaiters(m.From)
}

// resolveCastWaiters re-checks pending resiliency waiters against one
// member's freshly ingested receive-watermark report: every waiting cast
// whose sequence the report covers gains that member as an acker — a single
// watermark entry acknowledges an entire prefix of casts at once.
func (g *Group) resolveCastWaiters(from types.ProcessID) {
	if len(g.acks) == 0 {
		return
	}
	self := g.stack.node.PID()
	if from == self {
		return
	}
	covered := g.rel.Reported(from, self)
	for seq, w := range g.acks {
		if seq > covered || w.from[from] {
			continue // not covered yet, or this member already counted
		}
		w.from[from] = true
		if len(w.from) >= w.need {
			delete(g.acks, seq)
			select {
			case w.done <- nil:
			default:
			}
		}
	}
}

// onCastBatch is the batch-frame form of onCast: per-message bookkeeping
// (reliability tracking, parking, sequencing) runs in one loop, then each
// ordering engine accepts its sub-batch and releases deliveries in one pass,
// and everything cumulative is settled once for the whole frame — the
// piggybacked stability report is folded once per source, the frame is
// acknowledged by one stability report per originator in it, and the
// pending-install cut is rechecked once. The order announcements coalesce in
// the node's outbox, so they cost at most a frame rather than one
// transmission each.
func (g *Group) onCastBatch(ms []*types.Message) {
	if len(ms) == 1 {
		g.onCast(ms[0])
		return
	}
	if g.closed {
		return
	}
	self := g.stack.node.PID()
	in := &g.intake
	defer in.reset()

	// Watermarks are cumulative and monotone, so the last report a source put
	// in the frame is pointwise at least every earlier one: folding it alone,
	// after the frame's casts are noted, leaves the tracker where folding
	// each in turn would. A frame has one source; should the source change
	// mid-run the previous one's report is folded on the spot.
	var report *types.Message
	// Acknowledgement is per sender, not per message: one stability report to
	// each distinct originator in the frame, sent after intake so it covers
	// the whole frame (parked casts and duplicates count too — their earlier
	// report may have been the casualty). reportTo stays tiny, so a linear
	// membership test beats a map.
	for _, m := range ms {
		if !g.joined || m.View != g.view.ID {
			if m.View > g.view.ID || !g.joined {
				// A cast from a view we have not installed yet: keep it for
				// replay right after the install.
				g.futureCasts = append(g.futureCasts, m)
			}
			continue
		}
		if len(m.Stab) > 0 || m.StabOrd > 0 {
			if report != nil && report.From != m.From {
				g.ingestStab(report)
			}
			report = m
		}
		if s := m.ID.Sender; s != self && !types.ContainsProcess(in.reportTo, s) {
			in.reportTo = append(in.reportTo, s)
		}
		if g.parksCast(m) {
			g.parked = append(g.parked, m)
			continue
		}
		if !g.rel.Note(m) {
			continue // already held: a network duplicate or retransmission
		}
		// The sequencer assigns the total order for casts that need one,
		// skipping casts it has already sequenced.
		if m.Ordering == types.Total && m.Seq == 0 && g.seqr != nil && g.maySequence(m) && !g.total.Ordered(m.ID) {
			seq := g.seqr.Assign()
			orderMsg := &types.Message{
				Kind:  types.KindOrder,
				Group: g.id,
				View:  g.view.ID,
				ID:    m.ID,
				Seq:   seq,
			}
			g.stack.node.SendCopies(g.view.Members, orderMsg)
			for _, d := range g.total.AddOrder(seq, m.ID) {
				g.deliver(d)
			}
		}
		switch m.Ordering {
		case types.FIFO, types.Causal, types.Total:
			in.byOrdering[m.Ordering] = append(in.byOrdering[m.Ordering], m)
		default: // Unordered
			in.direct = append(in.direct, m)
		}
	}
	for _, d := range in.direct {
		g.deliver(d)
	}
	if batch := in.byOrdering[types.FIFO]; len(batch) > 0 {
		for _, d := range g.fifo.AddBatch(batch) {
			g.deliver(d)
		}
	}
	if batch := in.byOrdering[types.Causal]; len(batch) > 0 {
		for _, d := range g.causal.AddBatch(batch) {
			g.deliver(d)
		}
	}
	if batch := in.byOrdering[types.Total]; len(batch) > 0 {
		for _, d := range g.total.AddBatch(batch) {
			g.deliver(d)
		}
	}
	if report != nil {
		g.ingestStab(report)
	}
	for _, p := range in.reportTo {
		g.sendReportTo(p)
	}
	g.recheckPendingInstall()
}

func (g *Group) onOrder(m *types.Message) {
	if g.closed || !g.joined || m.View != g.view.ID {
		return
	}
	// Sequencer-failover fence: once this member wedges for a view change
	// that deposes the sequencer (the current view's coordinator), the
	// flush's merged order — re-announced by the proposer and completed by
	// the install's abCut — is the only authority on the closing view's
	// agreed slots. A deposed sequencer's announcement still in flight (or
	// re-served from its stale binding log across a partition) could bind a
	// slot differently from the merge, because the merge only aggregates
	// what survivors held when they acknowledged the flush; applying it here
	// would make this member's agreed order and delivered set diverge from
	// every member that followed the re-announcement. Announcements applied
	// BEFORE wedging are safe: they are reported in this member's flush
	// acknowledgement and therefore part of the merge. When the coordinator
	// is itself the proposer (plain join/leave changes) there is no second
	// announcement source and its traffic passes.
	if g.wedged && m.From == g.view.Coordinator() && g.proposeFrom != m.From {
		return
	}
	for _, d := range g.total.AddOrder(m.Seq, m.ID) {
		g.deliver(d)
	}
	g.recheckPendingInstall()
}

func (g *Group) deliver(m *types.Message) {
	obs := g.stack.obs.OnDeliver
	if g.cfg.OnDeliver == nil && obs == nil && len(g.delSubs) == 0 &&
		g.wal == nil && !g.awaitingState {
		return
	}
	d := Delivery{
		Group:    g.id,
		View:     m.View,
		From:     m.ID.Sender,
		ID:       m.ID,
		Ordering: m.Ordering,
		Seq:      m.Seq,
		Payload:  m.Payload,
	}
	if len(m.VT) > 0 {
		d.VT = append([]uint64(nil), m.VT...)
	}
	if g.awaitingState {
		// A joining member holds application deliveries until its checkpoint
		// restore so the two compose exactly-once; the observer and the
		// subscription channels still see the delivery at its protocol
		// position.
		g.held = append(g.held, d)
	} else {
		if g.cfg.OnDeliver != nil {
			g.cfg.OnDeliver(d)
		}
		g.walAppend(&d)
	}
	if obs != nil {
		// The observer's copy is private (it may be retained by history
		// recorders), so it must not share the VT backing array with the
		// application callback and the subscription channels.
		od := d
		if len(d.VT) > 0 {
			od.VT = append([]uint64(nil), d.VT...)
		}
		obs(g.id, od)
	}
	g.emitDelivery(d)
}

func (g *Group) recheckPendingInstall() {
	if g.pending == nil {
		return
	}
	if g.cutSatisfied(g.pending.cut, g.pending.abCut) {
		p := g.pending
		g.pending = nil
		g.install(p.view, p.cut)
	}
}

// --- leaving ------------------------------------------------------------------

// Leave removes this process from the group. It blocks until the removal is
// installed or the context expires.
func (g *Group) Leave(ctx context.Context) error {
	for {
		if g.Closed() {
			return nil
		}
		coord := g.Coordinator()
		if coord.IsNil() {
			return fmt.Errorf("leave %s: %w", g.id, types.ErrNotMember)
		}
		reqCtx, cancel := context.WithTimeout(ctx, g.cfg.RetryInterval)
		var err error
		if coord == g.stack.node.PID() {
			err = g.stack.node.Call(func() {
				g.coordinatorAddLeave(&types.Message{
					Kind:    types.KindLeaveRequest,
					Group:   g.id,
					From:    g.stack.node.PID(),
					ReplyTo: g.stack.node.PID(),
					Corr:    0,
				})
			})
		} else {
			_, err = g.stack.node.Request(reqCtx, coord, &types.Message{
				Kind:  types.KindLeaveRequest,
				Group: g.id,
			})
		}
		cancel()
		if err == nil {
			select {
			case <-g.leftC:
				return nil
			case <-time.After(g.cfg.RetryInterval):
				continue
			case <-ctx.Done():
				return fmt.Errorf("leave %s: %w", g.id, types.ErrTimeout)
			}
		}
		if ctx.Err() != nil {
			return fmt.Errorf("leave %s: %w", g.id, types.ErrTimeout)
		}
	}
}
