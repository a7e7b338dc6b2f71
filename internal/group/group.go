package group

import (
	"context"
	"fmt"
	"slices"
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
	intake       castIntake        // onCastBatch's per-call scratch
	relayTo      []types.ProcessID // relay's destination scratch
	forwarded    member.View       // proposed view we already flush-forwarded for
	proposeFrom  types.ProcessID   // proposer of the in-progress view change
	proposedView types.ViewID

	// owed lists the originators of current-view casts this member has
	// taken in but not yet acknowledged. The next cast it multicasts pays
	// them all (it carries the same report), an ABCAST it sends to the
	// sequencer alone pays the sequencer; the stack's idle hook pays the
	// rest with one report envelope. owing marks the group as listed in the
	// stack's owing list.
	owed  []types.ProcessID
	owing bool

	// Recovery timer and bookkeeping (NAKs, stability reports, view NAKs).
	recoveryCancel     func()
	stabTicks          int
	stabRR             int               // rotation cursor for the bounded-fanout stability tick
	tickVec            []types.StabEntry // the snapshot the ticks are rotating
	tickLeft           int               // members the rotation has yet to reach with tickVec
	ordGapTicks        int               // consecutive recovery ticks the delivered ABCAST prefix stalled
	ordTickNext        uint64            // the delivered ABCAST prefix (NextSeq) at the last recovery tick
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
	walQueued     bool // listed in the stack's walDirty: appends await the step's write

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
// current-view casts for engine o; direct holds the unordered casts, which
// no engine holds back.
type castIntake struct {
	byOrdering [4][]*types.Message
	direct     []*types.Message
}

// reset empties the scratch, dropping the message pointers so a quiet group
// pins no cast.
func (in *castIntake) reset() {
	for o := range in.byOrdering {
		clear(in.byOrdering[o])
		in.byOrdering[o] = in.byOrdering[o][:0]
	}
	clear(in.direct)
	in.direct = in.direct[:0]
}

// ackWaiter tracks one cast's resiliency acknowledgements. Ackers are
// counted by process id, not by message, because the network may duplicate
// reports (the chaos harness injects exactly that): the quorum must mean
// "need distinct members hold the cast", never "need ack frames arrived".
type ackWaiter struct {
	need  int
	from  map[types.ProcessID]bool
	done  func(error) // called once, on the actor goroutine
	ticks int         // recovery ticks survived; drives the re-send of lost reports
}

type pendingInstall struct {
	view  member.View
	cut   map[types.ProcessID]uint64
	abCut uint64 // highest re-announced ABCAST slot to deliver before installing
	ticks int    // recovery ticks the install has waited, for NAK spacing
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
		w.done(res)
	}

	// Keep the outgoing view's retransmit buffer and delivered-order log for
	// one view: members still waiting for this install NAK their missing
	// casts and bindings, and the holders that already moved on must still
	// be able to serve them.
	if g.joined {
		g.prevViewID, g.prevRel, g.prevTotal = g.view.ID, g.rel, g.total
	}
	g.parked = nil
	g.owed = g.owed[:0] // acknowledgements of the closing view: nobody waits on them now
	g.forwarded = member.View{}
	g.proposeFrom = types.NilProcess
	g.proposedView = 0
	g.ordGapTicks, g.ordTickNext = 0, 0

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

	// Replay, as one frame, the casts that arrived for this view before the
	// install did; those of any other view are dropped.
	future := slices.DeleteFunc(g.futureCasts, func(m *types.Message) bool { return m.View != v.ID })
	g.futureCasts = nil
	g.onCastBatch(future, false)

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
		delete(g.acks, seq)
		w.done(fmt.Errorf("group %s: %w", g.id, types.ErrNotMember))
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
	newly := !g.suspected[p]
	g.suspected[p] = true
	// A suspected process must not be admitted either: a join request whose
	// sender died while queued would otherwise put a corpse in the next view
	// (no flush ever waits on a non-member, so nothing detects it — every
	// later flush then waits on the dead member forever).
	g.pendJoin = types.RemoveProcess(g.pendJoin, p)
	if !g.joined || !g.view.Contains(p) {
		return
	}
	// Flush forwarding leaves a survivor's casts to it; once it is suspected
	// in a flush this member has forwarded for, every holder forwards them.
	if newly && g.wedged && g.forwarded.ID == g.proposedView && g.forwarded.Contains(p) {
		dests := g.flushDests()
		for _, m := range g.rel.Unstable() {
			if m.ID.Sender == p {
				g.forward(m, dests)
			}
		}
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
	g.flush.NoteOrder(self, g.orderInfo(self))
	if g.flush.Ack(self, g.cutVector()) {
		g.finishFlush()
	}
}

// flushForward re-multicasts the unstable casts a survivor of a proposed
// view change may lack (classic virtual synchrony's flush forwarding). It
// runs once per proposed view, at the moment the member wedges, so the
// aggregated delivery cut — built from contiguous-receive watermarks — is
// satisfiable everywhere, even for casts whose sender crashed mid-fanout.
// Forwarding sends only what a survivor may lack:
//
//   - this member's own casts go to the survivors whose acknowledgements do
//     not cover them yet: receivers pay their acknowledgements to the
//     originator, so its tracker knows best who holds what;
//   - the casts of a sender that is leaving the view, or that this member
//     suspects, go to every survivor from every holder;
//   - the casts of any other surviving sender are left to that sender. Should
//     it become suspected before the install, reportFailure forwards them.
//
// Stability bounds the forwarded set: casts every member already holds are
// never re-sent.
func (g *Group) flushForward(proposed member.View) {
	if g.rel == nil || !g.joined || g.forwarded.ID == proposed.ID {
		return
	}
	g.forwarded = proposed
	dests := g.flushDests()
	if len(dests) == 0 {
		return
	}
	self := g.stack.node.PID()
	covered := make([]uint64, len(dests)) // what each survivor has acknowledged of our casts
	for i, d := range dests {
		covered[i] = g.rel.Reported(d, self)
	}
	var lacking []types.ProcessID
	for _, m := range g.rel.Unstable() {
		switch sender := m.ID.Sender; {
		case sender == self && proposed.Contains(self):
			lacking = lacking[:0]
			for i, d := range dests {
				if covered[i] < m.ID.Seq {
					lacking = append(lacking, d)
				}
			}
			g.forward(m, lacking)
		case !proposed.Contains(sender) || g.suspected[sender]:
			g.forward(m, dests)
		}
	}
}

// flushDests lists the survivors of the view change being forwarded for:
// members of both the closing view and the proposed one, other than this
// member and the members it suspects.
func (g *Group) flushDests() []types.ProcessID {
	self := g.stack.node.PID()
	var dests []types.ProcessID
	for _, p := range g.view.Members {
		if p != self && g.forwarded.Contains(p) && !g.suspected[p] {
			dests = append(dests, p)
		}
	}
	return dests
}

// forward sends one flush-forwarded copy of a held cast to dests.
func (g *Group) forward(m *types.Message, dests []types.ProcessID) {
	if len(dests) == 0 {
		return
	}
	g.stack.node.SendCopies(dests, retransmission(m, g.total))
	g.relStats.Forwarded++
}

// orderInfo snapshots this member's ABCAST state for a flush
// acknowledgement to proposer. The closing view's coordinator is its
// sequencer and retains every binding above the group-wide stable prefix —
// every slot some survivor has yet to deliver — so a report to it carries no
// bindings; a takeover proposer, whose sequencer has died, gets them all.
func (g *Group) orderInfo(proposer types.ProcessID) member.OrderInfo {
	if g.total == nil {
		return member.OrderInfo{Next: 1}
	}
	oi := member.OrderInfo{Next: g.total.NextSeq(), Unordered: g.total.UnorderedIDs()}
	if proposer != g.view.Coordinator() || proposer == g.stack.node.PID() {
		oi.Bindings = g.total.Bindings(0)
	}
	return oi
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
	g.flushRetryCancel = g.stack.node.Every(flushRetry, func() {
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
		g.deliverAll(g.total.AddOrder(b.Seq, b.ID))
		g.relStats.Reannounced++
	}

	// Replay casts parked during the wedge, up to the cut, before the
	// install freezes the view's delivered set.
	g.applyParked(cut, abCut)

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
	payload = append(payload, member.EncodeOrderInfo(g.orderInfo(m.From))...)
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
		g.applyParked(cut, abCut)
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
// cut, through the cast intake as a replay (see onCastBatch). Casts beyond
// the cut are discarded — no acknowledged survivor holds them, so
// delivering them here would break set agreement.
func (g *Group) applyParked(cut map[types.ProcessID]uint64, abCut uint64) {
	parked := slices.DeleteFunc(g.parked, func(m *types.Message) bool {
		return m.View != g.view.ID || !g.withinCut(m, cut, abCut)
	})
	g.parked = nil
	g.onCastBatch(parked, true)
}

// withinCut reports whether an install with delivery cut cut and
// re-announced ABCAST prefix abCut obliges this member to deliver m: m lies
// in its sender's acknowledged prefix, or its agreed slot is one of the
// prefix's. The two differ when the sequencer bound a cast whose sender's
// earlier casts no survivor holds: survivors that delivered the cast before
// wedging reported its binding, so every member must deliver it.
func (g *Group) withinCut(m *types.Message, cut map[types.ProcessID]uint64, abCut uint64) bool {
	if m.ID.Seq <= cut[m.ID.Sender] {
		return true
	}
	if abCut == 0 || m.Ordering != types.Total {
		return false
	}
	slot := g.total.Bound(m.ID)
	if slot == 0 {
		slot = g.binding(m)
	}
	return slot != 0 && slot <= abCut
}

// --- multicast ----------------------------------------------------------------

// Cast multicasts payload to the group with the requested ordering and
// blocks until the configured resiliency (number of destination
// acknowledgements) is met, the context expires, or the group is closed.
// The payload belongs to the group once Cast is called: the outbox, the
// retransmit buffer and every member's delivery share it, so the caller
// must never write it again (the same holds for CastAsync and
// CastAsyncHeld).
func (g *Group) Cast(ctx context.Context, o types.Ordering, payload []byte) error {
	return g.castAwait(ctx, o, payload, g.cfg.Resiliency)
}

func (g *Group) castAwait(ctx context.Context, o types.Ordering, payload []byte, need int) error {
	done := make(chan error, 1)
	g.stack.node.Do(func() {
		g.castOnActor(o, payload, need, func(err error) { done <- err })
	})
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
// reported only for local conditions (not a member, closed). The payload
// belongs to the group after the call, as with Cast.
func (g *Group) CastAsync(o types.Ordering, payload []byte) {
	g.stack.node.Do(func() {
		// nil done: fire-and-forget, no completion channel to allocate.
		g.castOnActor(o, payload, 0, nil)
	})
}

// CastAsyncHeld multicasts without waiting, like CastAsync, and calls held
// on the actor goroutine once one other member holds the message, whatever
// the configured resiliency — the weakest acknowledgement that outlives the
// sender, since the flush of the next view hands every survivor a message
// that any survivor holds — or with the error that ended the wait. In a
// one-member view held runs at once. The payload belongs to the group after
// the call, as with Cast.
func (g *Group) CastAsyncHeld(o types.Ordering, payload []byte, held func(error)) {
	g.stack.node.Do(func() { g.castOnActor(o, payload, 1, held) })
}

// castOnActor runs the sender side of one multicast; done is called once
// need other members acknowledge it. done may be nil (CastAsync), in which
// case completion and errors are not reported.
func (g *Group) castOnActor(o types.Ordering, payload []byte, need int, done func(error)) {
	if g.closed || !g.joined {
		if done != nil {
			done(fmt.Errorf("cast to %s: %w", g.id, types.ErrNotMember))
		}
		return
	}
	if g.wedged {
		// A view change is in progress: defer the cast into the next view.
		g.afterInstall = append(g.afterInstall, func() { g.castOnActor(o, payload, need, done) })
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
	// that bounds retransmit buffers and the ordering engines' memory. Our
	// own casts' watermark is the cast's ID.
	msg.Stab = g.rel.StabVector()
	msg.StabOrd = g.total.NextSeq()

	need = min(need, g.view.Size()-1)
	if need > 0 && done != nil {
		g.acks[g.sendSeq] = &ackWaiter{need: need, from: make(map[types.ProcessID]bool, need), done: done}
	}

	if seqr := g.view.Coordinator(); o == types.Total && g.seqr == nil && !g.suspected[seqr] {
		// An ABCAST goes through the sequencer, which relays it to the other
		// members with its slot (relay). The report reaches the sequencer
		// alone, so it pays only that debt.
		_ = g.stack.node.Send(seqr, msg)
		if i := slices.Index(g.owed, seqr); i >= 0 {
			g.owed = slices.Delete(g.owed, i, i+1)
		}
	} else {
		// The report reaches every member: it pays every debt.
		g.stack.node.SendCopies(g.view.Members, msg)
		g.owed = g.owed[:0]
	}
	// Self-delivery, a frame of one through the intake remote copies take,
	// of the frozen envelope every receiver shares: nothing on the receive
	// path writes a cast. ingestStab ignores our own stability report. The
	// sequencer's ABCAST, delivered at once, leaves first, as its relays do.
	if msg.Seq != 0 {
		g.stack.node.Flush()
	}
	g.onCastBatch([]*types.Message{msg}, false)

	if need <= 0 && done != nil {
		done(nil)
	}
}

// parksCast reports whether a current-view cast must wait out the view
// change in progress: a wedged member parks every peer's cast until the
// install announces the delivery cut, and every cast beyond the cut after
// that. Delivering one eagerly could exceed the eventual cut at this member
// only, breaking set agreement; the install replays parked casts up to the
// cut and discards the rest. A cast within a known cut (withinCut) is taken
// in, so the pending install can complete, and so is a cast the tracker already
// holds (a forwarded or network duplicate): the receive path drops it, and
// the acknowledgement it is owed still goes out.
func (g *Group) parksCast(m *types.Message) bool {
	return g.wedged && m.From != g.stack.node.PID() &&
		(g.pending == nil || !g.withinCut(m, g.pending.cut, g.pending.abCut)) &&
		!g.rel.Holds(m.ID)
}

// maySequence reports whether the sequencer may still assign m a slot:
// sequencing stays frozen for peers' casts while a flush is in progress.
func (g *Group) maySequence(m *types.Message) bool {
	return !g.wedged || m.From == g.stack.node.PID()
}

// deliverAll delivers what an ordering engine released, then clears the
// engine's release buffer (order.Engine) so a group that goes quiet pins
// none of those messages. deliver never calls back into an engine, so the
// buffer stays valid for the whole loop.
func (g *Group) deliverAll(ms []*types.Message) {
	for _, d := range ms {
		g.deliver(d)
	}
	clear(ms)
}

// owe records that this member owes p an acknowledgement: its cumulative
// stability report (the per-sender contiguous-receive watermarks plus the
// delivered ABCAST prefix), which the originator folds into its tracker,
// advancing stability and resolving the resiliency waiters the watermarks
// now cover. One report acknowledges a cast and its whole prefix, so the
// debt is per originator, not per cast: the next cast this member
// multicasts pays it, and whatever is still owed when the actor runs out of
// work (or, at the latest, before its next inbound frame) goes out as one
// report envelope to every creditor (Stack.payDebts).
func (g *Group) owe(p types.ProcessID) {
	if p == g.stack.node.PID() || g.rel == nil || types.ContainsProcess(g.owed, p) {
		return
	}
	g.owed = append(g.owed, p)
	if !g.owing {
		g.owing = true
		g.stack.owing = append(g.stack.owing, g)
	}
}

// payDebts sends the owed acknowledgements as one stability report to every
// creditor, unless the group has since closed.
func (g *Group) payDebts() {
	g.owing = false
	if len(g.owed) == 0 {
		return
	}
	if g.joined && !g.closed && g.rel != nil {
		g.stack.node.SendCopies(g.owed, g.report())
	}
	g.owed = g.owed[:0]
}

// report builds this member's standalone stability report. Its ID carries
// the member's watermark for its own casts, which the vector leaves out.
func (g *Group) report() *types.Message {
	self := g.stack.node.PID()
	return &types.Message{
		Kind:    types.KindStability,
		Group:   g.id,
		View:    g.view.ID,
		ID:      types.MsgID{Sender: self, Seq: g.rel.Ctg(self)},
		Stab:    g.rel.StabVector(),
		StabOrd: g.total.NextSeq(),
	}
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
	if m.ID.Sender == m.From {
		// The reporter's watermark for its own casts: a cast's own seq, a
		// standalone report's ID.
		g.rel.ReportOwn(m.From, m.ID.Seq)
	}
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
			w.done(nil)
		}
	}
}

// onCastBatch is the group's one cast intake: a peer's frame, this
// member's own cast as a frame of one, and the casts an install replays.
// Per-message bookkeeping (future-view set-aside, parking, the tracker, the
// fence, sequencing) runs in one loop, and each ordering engine then takes
// its sub-batch in one pass. Cumulative work is settled once per frame: one
// report folded per source, before the deliveries, so that the waiters it
// resolves do not wait for the application; one acknowledgement owed per
// originator; one recheck of the pending install. A sequencer's relays
// leave in one flush before the engines deliver. A replay (the parked casts
// an install's cut admits) owes no acknowledgement (it was owed at
// parking), parks and sequences nothing (the flush froze the closing view's
// order), folds no report and leaves the pending install to its caller.
func (g *Group) onCastBatch(ms []*types.Message, replay bool) {
	if g.closed {
		return
	}
	in := &g.intake

	// Watermarks are cumulative and monotone, so the last report a source put
	// in the frame is pointwise at least every earlier one: folding it alone,
	// after the frame's casts are noted, leaves the tracker where folding
	// each in turn would. A frame has one source; should the source change
	// mid-run the previous one's report is folded on the spot.
	var report *types.Message
	relayed := false
	for _, m := range ms {
		if !g.joined || m.View != g.view.ID {
			if m.View > g.view.ID || !g.joined {
				// A cast from a view we have not installed yet: keep it for
				// replay right after the install.
				g.futureCasts = append(g.futureCasts, m)
			}
			continue
		}
		if !replay {
			if len(m.Stab) > 0 || m.StabOrd > 0 {
				if report != nil && report.From != m.From {
					g.ingestStab(report)
				}
				report = m
			}
			// Acknowledgement is per sender, not per message: each distinct
			// originator in the frame is owed one report, paid after intake
			// so it covers the whole frame (parked casts and duplicates count
			// too — their earlier report may have been the casualty).
			g.owe(m.ID.Sender)
			if g.parksCast(m) {
				g.parked = append(g.parked, m)
				continue
			}
		}
		if !g.rel.Note(m) {
			// Already held (network duplicate or a retransmission of something
			// we have). This receive-side filter is what lets the ordering
			// engines prune their duplicate-suppression state to the unstable
			// suffix. The slot a copy carries still counts.
			if seq := g.binding(m); seq != 0 {
				g.deliverAll(g.total.AddOrder(seq, m.ID))
			}
			continue
		}
		m = g.withoutFencedBinding(m)
		// The sequencer assigns the total order for casts that need one,
		// skipping casts it has already sequenced.
		if !replay && g.maySequence(m) && g.sequences(m) {
			seq := g.seqr.Assign()
			g.relay(m, seq)
			relayed = true
			g.deliverAll(g.total.AddOrder(seq, m.ID))
		}
		switch m.Ordering {
		case types.FIFO, types.Causal, types.Total:
			in.byOrdering[m.Ordering] = append(in.byOrdering[m.Ordering], m)
		default: // Unordered
			in.direct = append(in.direct, m)
		}
	}
	// The report folds, and the relays leave, before the frame is delivered.
	if report != nil {
		g.ingestStab(report)
	}
	if relayed {
		g.stack.node.Flush()
	}
	for _, d := range in.direct {
		g.deliver(d)
	}
	if batch := in.byOrdering[types.FIFO]; len(batch) > 0 {
		g.deliverAll(g.fifo.AddBatch(batch))
	}
	if batch := in.byOrdering[types.Causal]; len(batch) > 0 {
		g.deliverAll(g.causal.AddBatch(batch))
	}
	if batch := in.byOrdering[types.Total]; len(batch) > 0 {
		g.deliverAll(g.total.AddBatch(batch))
	}
	// Empty the scratch first: an install the recheck completes replays the
	// casts held for its view through this intake.
	in.reset()
	if !replay {
		g.recheckPendingInstall()
	}
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
	if g.orderFenced(m.From) {
		return
	}
	g.deliverAll(g.total.AddOrder(m.Seq, m.ID))
	g.recheckPendingInstall()
}

// orderFenced reports whether ABCAST bindings p sends must be ignored: p is
// the sequencer of a view this member has wedged to close under another
// proposer (see onOrder).
func (g *Group) orderFenced(p types.ProcessID) bool {
	return g.wedged && p == g.view.Coordinator() && g.proposeFrom != p
}

// sequences reports whether this member, the sequencer, assigns m a slot:
// an ABCAST that carries none and has none yet. The Ordered check keeps an
// already-sequenced retransmission from being sequenced a second time (which
// would deliver it twice everywhere).
func (g *Group) sequences(m *types.Message) bool {
	return m.Ordering == types.Total && m.Seq == 0 && g.seqr != nil && !g.total.Ordered(m.ID)
}

// relay sends a peer's ABCAST on from the sequencer with the slot it was
// just assigned: every member but its originator gets a self-describing copy
// (retransmission's, with the slot set), so the data and its binding arrive
// as one message; the originator, which holds the data, gets the bare
// announcement.
func (g *Group) relay(m *types.Message, seq uint64) {
	c := retransmission(m, nil)
	c.Seq = seq
	orig := m.ID.Sender
	dests := g.relayTo[:0]
	for _, p := range g.view.Members {
		if p != orig {
			dests = append(dests, p)
		}
	}
	g.relayTo = dests
	// One SendCopies, not a Send per member: the copy is frozen once it is
	// queued, and Send would write its From again.
	g.stack.node.SendCopies(dests, c)
	_ = g.stack.node.Send(orig, &types.Message{
		Kind:  types.KindOrder,
		Group: g.id,
		View:  g.view.ID,
		ID:    m.ID,
		Seq:   seq,
	})
}

// binding returns the agreed slot a cast carries that this member may use,
// or zero: a copy the sequencer relayed (or re-served) is a binding from the
// sequencer, and onOrder's fence applies to it. A cast's originator is not
// fenced: a sequencer's own cast carries its slot from the start, so every
// member that holds it holds its binding.
func (g *Group) binding(m *types.Message) uint64 {
	if m.Ordering != types.Total || (m.ID.Sender != m.From && g.orderFenced(m.From)) {
		return 0
	}
	return m.Seq
}

// withoutFencedBinding returns m, or a copy of it without its slot when the
// fence rules the slot out: the data still counts, and the flush's merged
// order binds it.
func (g *Group) withoutFencedBinding(m *types.Message) *types.Message {
	if g.binding(m) == m.Seq {
		return m
	}
	c := *m
	c.Seq = 0
	return &c
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
		VT:       m.VT,
		Payload:  m.Payload,
	}
	if m.Ordering == types.Total {
		// The envelope may be shared with every member, so the agreed slot
		// is the engine's to tell, not a field of the message.
		d.Seq = g.total.Slot(m.ID)
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
		obs(g.id, d)
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
		reqCtx, cancel := context.WithTimeout(ctx, retryInterval)
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
			case <-time.After(retryInterval):
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
