// Message stability and retransmission — the mechanism that turns the
// best-effort multicast fan-out into the reliable one classic virtual
// synchrony assumes (Birman & Joseph, SOSP 1987).
//
// Every member tracks, per sender, the contiguous prefix of casts it has
// received in the current view (the receive watermark) and buffers every
// received cast. Members piggyback their watermark vectors on outgoing casts
// and acknowledgements; the minimum across all members is the stability
// watermark — a cast below it is held by everyone, can never be needed for
// retransmission, and can never reappear as a genuinely new message, so the
// buffer (and the ordering engines' duplicate-suppression state) is pruned
// to the unstable suffix. Gaps above the watermark are repaired by NAKs: the
// receiver asks any live holder — not just the original sender — to
// retransmit the missing range, which is what recovers casts lost to random
// loss or healed partitions, and casts whose sender crashed mid-fanout.
package reliability

import (
	"math"
	"time"

	"repro/internal/types"
)

// Config tunes the per-group reliability layer.
type Config struct {
	// NakTicks paces NAKs: a gap (or a stalled ABCAST prefix) is NAKed once
	// its sender's contiguous watermark (the delivered prefix) has stood
	// still for more than NakTicks NAK-timer ticks — a gap behind a moving
	// watermark is just out-of-order arrival. Zero selects 1.
	NakTicks int
	// NakInterval is the period of the per-group recovery timer driving
	// NAKs, order NAKs and stability reports. Zero selects 20ms.
	NakInterval time.Duration
}

// WithDefaults fills zero fields with the default knob settings.
func (c Config) WithDefaults() Config {
	if c.NakTicks <= 0 {
		c.NakTicks = 1
	}
	if c.NakInterval <= 0 {
		c.NakInterval = 20 * time.Millisecond
	}
	return c
}

// Stats counts the reliability layer's recovery work for one process (or,
// summed, one run). All counters are cumulative across views.
type Stats struct {
	// NaksSent counts retransmission requests sent for missing casts.
	NaksSent uint64
	// NaksServed counts casts retransmitted in answer to a NAK.
	NaksServed uint64
	// OrderNaksSent counts requests for missing ABCAST order announcements.
	OrderNaksSent uint64
	// OrderNaksServed counts order bindings re-sent in answer to one.
	OrderNaksServed uint64
	// Forwarded counts unstable casts re-multicast during view-change
	// flushes (flush forwarding).
	Forwarded uint64
	// Reannounced counts ABCAST bindings the new coordinator re-announced
	// (or freshly assigned) during sequencer failover.
	Reannounced uint64
	// StablePruned counts buffered casts released by stability advances.
	StablePruned uint64
	// Duplicates counts received casts rejected as already held.
	Duplicates uint64
	// Reports counts stability reports folded into a tracker — one per frame
	// and source on the cast path, not one per cast.
	Reports uint64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.NaksSent += o.NaksSent
	s.NaksServed += o.NaksServed
	s.OrderNaksSent += o.OrderNaksSent
	s.OrderNaksServed += o.OrderNaksServed
	s.Forwarded += o.Forwarded
	s.Reannounced += o.Reannounced
	s.StablePruned += o.StablePruned
	s.Duplicates += o.Duplicates
	s.Reports += o.Reports
}

// SeqRange is an inclusive range of missing per-sender sequence numbers.
type SeqRange struct {
	Sender types.ProcessID
	Lo, Hi uint64
}

// senderState is the per-sender receive and retransmit state within a view.
type senderState struct {
	pid     types.ProcessID
	ctg     uint64                    // contiguous receive watermark: 1..ctg all held
	stable  uint64                    // stability watermark: every member holds 1..stable
	maxSeen uint64                    // highest seq received or heard of (gap detection)
	buf     map[uint64]*types.Message // every held cast with seq > stable; nil until the first
	// minRep caches the lowest watermark the other view members have reported
	// for this sender and minCnt how many of them sit exactly at it, so a
	// report entry costs a column rescan only when the last member holding
	// the minimum back moves off it. A sole member has nobody to wait for
	// (minRep is the maximum); a sender outside the view has no column, so
	// its minRep stays zero and only SetFloor moves its stability.
	minRep   uint64
	minCnt   int
	gapTicks int    // consecutive timer ticks a gap has persisted behind a stalled ctg
	tickCtg  uint64 // ctg at the previous GapTick
	nakRR    int    // round-robin cursor over NAK targets
}

// settle raises the stability watermark to what the view agrees on — the
// lowest of this member's own contiguous watermark and everyone else's
// reported one. Never above ctg, so a cast Note has not yet seen can never be
// mistaken for a duplicate, whatever order casts and reports are fed in.
func (t *Tracker) settle(s *senderState) {
	floor := s.minRep
	if s.ctg < floor {
		floor = s.ctg
	}
	t.raiseStable(s, floor)
}

// raiseStable advances s.stable to floor (at most ctg) and releases the
// buffered casts at or below it; every sequence in (stable, ctg] is buffered.
func (t *Tracker) raiseStable(s *senderState, floor uint64) {
	if floor <= s.stable {
		return
	}
	for seq := s.stable + 1; seq <= floor; seq++ {
		delete(s.buf, seq)
	}
	t.stats.StablePruned += floor - s.stable
	s.stable = floor
}

// gaps appends the runs of sequence numbers in (ctg, hi] that are not
// buffered — the casts a NAK asks for.
func (s *senderState) gaps(out []SeqRange, hi uint64) []SeqRange {
	lo := uint64(0)
	for seq := s.ctg + 1; seq <= hi; seq++ {
		if s.buf[seq] == nil {
			if lo == 0 {
				lo = seq
			}
			continue
		}
		if lo != 0 {
			out = append(out, SeqRange{Sender: s.pid, Lo: lo, Hi: seq - 1})
			lo = 0
		}
	}
	if lo != 0 {
		out = append(out, SeqRange{Sender: s.pid, Lo: lo, Hi: hi})
	}
	return out
}

// Tracker is one group member's reliability state for one view. It is owned
// by the node's actor goroutine, like all per-group protocol state.
//
// State lives in slices indexed by slot. The view's members own slots 0..n-1
// in view order — the same order at every member, which is also the order
// StabVector emits entries in — and any other sender (the treecast hop
// tracker runs without a member list) is appended at first contact.
type Tracker struct {
	self     types.ProcessID
	members  []types.ProcessID
	selfSlot int // self's slot, -1 when self is not in members
	senders  []senderState
	slots    map[types.ProcessID]int
	last     int // slot of the latest lookup: casts arrive in per-sender runs
	// rep[m][s] is the highest watermark member m has reported for member
	// s's casts (a row stays nil until m first reports) and ordRep[m] its
	// delivered ABCAST prefix; stability is their minimum over the members.
	rep    [][]uint64
	ordRep []uint64
	stats  *Stats
	// vec is the StabVector snapshot and vecOK whether it is still current:
	// it changes only when another sender's contiguous watermark moves, so
	// every cast and report in between shares one frozen vector.
	vec   []types.StabEntry
	vecOK bool
}

// NewTracker creates the reliability state for one freshly installed view.
// stats may be shared across views (counters are cumulative).
func NewTracker(self types.ProcessID, members []types.ProcessID, stats *Stats) *Tracker {
	n := len(members)
	t := &Tracker{
		self:     self,
		members:  types.CopyProcesses(members),
		selfSlot: -1,
		senders:  make([]senderState, n),
		slots:    make(map[types.ProcessID]int, n),
		rep:      make([][]uint64, n),
		ordRep:   make([]uint64, n),
		stats:    stats,
	}
	if t.stats == nil {
		t.stats = &Stats{}
	}
	others := n // the members whose reports stability waits for
	if types.ContainsProcess(members, self) {
		others--
	}
	for i, p := range members {
		t.slots[p] = i
		if p == self {
			t.selfSlot = i
		}
		s := &t.senders[i]
		s.pid, s.minCnt = p, others
		if others == 0 {
			s.minRep = math.MaxUint64
		}
	}
	return t
}

// lookup finds p's slot with at most one map access.
func (t *Tracker) lookup(p types.ProcessID) (int, bool) {
	if t.last < len(t.senders) && t.senders[t.last].pid == p {
		return t.last, true
	}
	i, ok := t.slots[p]
	if ok {
		t.last = i
	}
	return i, ok
}

// memberSlot finds p's slot if p is a view member.
func (t *Tracker) memberSlot(p types.ProcessID) (int, bool) {
	i, ok := t.lookup(p)
	return i, ok && i < len(t.members)
}

// sender returns p's state, appending a slot for a sender never seen before.
// The pointer is good until the next call.
func (t *Tracker) sender(p types.ProcessID) *senderState {
	i, ok := t.lookup(p)
	if !ok {
		i = len(t.senders)
		t.senders = append(t.senders, senderState{pid: p})
		t.slots[p] = i
		t.last = i
	}
	return &t.senders[i]
}

// peek returns a read-only copy of p's state, blank for a sender never seen:
// queries allocate nothing.
func (t *Tracker) peek(p types.ProcessID) senderState {
	if i, ok := t.lookup(p); ok {
		return t.senders[i]
	}
	return senderState{pid: p}
}

// Note registers the receipt of one cast. It reports false for duplicates —
// casts already held (buffered or stable) — which is the receive-side
// duplicate filter the ordering engines' bounded memory relies on: a cast
// that passes Note is being seen for the first time in this view.
func (t *Tracker) Note(m *types.Message) bool {
	s := t.sender(m.ID.Sender)
	seq := m.ID.Seq
	if seq == 0 || seq <= s.stable || (seq <= s.maxSeen && s.buf[seq] != nil) {
		t.stats.Duplicates++
		return false
	}
	if s.buf == nil {
		s.buf = make(map[uint64]*types.Message)
	}
	s.buf[seq] = m
	if seq > s.maxSeen {
		s.maxSeen = seq
	}
	if seq == s.ctg+1 {
		s.ctg++
		for s.ctg < s.maxSeen && s.buf[s.ctg+1] != nil {
			s.ctg++
		}
		t.moved(s)
		t.settle(s)
	}
	if s.ctg >= s.maxSeen {
		s.gapTicks = 0
	}
	return true
}

// Holds reports whether the tracker already holds the cast id — buffered or
// below the stability watermark — so Note would report it as a duplicate.
func (t *Tracker) Holds(id types.MsgID) bool {
	s := t.peek(id.Sender)
	return id.Seq != 0 && (id.Seq <= s.stable || s.buf[id.Seq] != nil)
}

// Ctg returns the contiguous receive watermark for a sender.
func (t *Tracker) Ctg(p types.ProcessID) uint64 { return t.peek(p).ctg }

// CutVector returns the per-sender contiguous receive watermarks — the
// member's contribution to a flush's delivery cut. Unlike the max-seen
// watermark this layer replaced, every sequence in the vector is a cast this
// process actually holds, so a cut aggregated from these vectors is always
// satisfiable by forwarding.
func (t *Tracker) CutVector() map[types.ProcessID]uint64 {
	out := make(map[types.ProcessID]uint64, len(t.senders))
	for i := range t.senders {
		if s := &t.senders[i]; s.ctg > 0 {
			out[s.pid] = s.ctg
		}
	}
	return out
}

// moved records that s's contiguous watermark rose. Only another sender's
// entry is in the StabVector snapshot (a report carries the reporter's own in
// its ID), so only then is the snapshot stale: the test is StabVector's.
func (t *Tracker) moved(s *senderState) {
	if s.pid != t.self {
		t.vecOK = false
	}
}

// StabVector encodes the member's current receive watermarks for the other
// senders, in slot order, for piggybacking on outgoing casts and stability
// reports. The member's own entry is left out: the message that carries the
// vector names it (a cast's ID.Seq, a report's ID), and receivers fold it
// with ReportOwn. The vector is a snapshot shared until another sender's
// watermark moves, so callers and every receiver must treat it as frozen.
func (t *Tracker) StabVector() []types.StabEntry {
	if t.vecOK {
		return t.vec
	}
	n := 0 // sized exactly: the snapshot rides every cast and report until it changes
	for i := range t.senders {
		if s := &t.senders[i]; s.ctg > 0 && s.pid != t.self {
			n++
		}
	}
	out := make([]types.StabEntry, 0, n)
	for i := range t.senders {
		if s := &t.senders[i]; s.ctg > 0 && s.pid != t.self {
			out = append(out, types.StabEntry{Sender: s.pid, Seq: s.ctg})
		}
	}
	t.vec, t.vecOK = out, true
	return out
}

// Report folds one view member's piggybacked stability report into the
// matrix and advances the stability watermarks it moves (pruning buffered
// casts that everyone now holds). ordDelivered is the member's delivered
// ABCAST prefix (StabOrd-1). Watermarks are monotone: a reordered (older)
// report can never regress them. Only what the view's members say about each
// other's casts counts: a report from outside the view, or an entry naming a
// sender outside it, is dropped without allocating anything. The reporter's
// watermark for its own casts rides outside the vector; fold it with
// ReportOwn.
func (t *Tracker) Report(from types.ProcessID, vec []types.StabEntry, ordDelivered uint64) {
	n := len(t.members)
	m, ok := t.memberSlot(from)
	if !ok {
		return
	}
	t.stats.Reports++
	if ordDelivered > t.ordRep[m] {
		t.ordRep[m] = ordDelivered
	}
	if len(vec) == 0 {
		return
	}
	row := t.row(m)
	next := 0 // a full vector names the members in slot order, skipping the reporter
	for _, e := range vec {
		k := next
		if k == m {
			k++
		}
		if k >= n || t.members[k] != e.Sender {
			if k, ok = t.slots[e.Sender]; !ok || k >= n {
				continue
			}
		}
		next = k + 1
		t.fold(m, row, k, e.Seq)
	}
}

// ReportOwn folds a view member's watermark for its own casts — the part of
// its report that rides in the message's ID rather than in the vector: a
// cast's own sequence number, a standalone report's ID.Seq. It is Report's
// fold for one entry, and counts no extra report.
func (t *Tracker) ReportOwn(from types.ProcessID, seq uint64) {
	m, ok := t.memberSlot(from)
	if !ok || seq == 0 {
		return
	}
	t.fold(m, t.row(m), m, seq)
}

// row returns member slot m's report row, allocating it at its first report.
func (t *Tracker) row(m int) []uint64 {
	if t.rep[m] == nil {
		t.rep[m] = make([]uint64, len(t.members))
	}
	return t.rep[m]
}

// fold raises member m's reported watermark for sender slot k to seq.
func (t *Tracker) fold(m int, row []uint64, k int, seq uint64) {
	old := row[k]
	if seq <= old {
		return
	}
	row[k] = seq
	s := &t.senders[k]
	// A peer holding more of a sender's traffic than we have ever seen
	// reveals casts we missed every copy of (the sender may be dead).
	// Raising maxSeen turns that knowledge into a NAKable gap, which is
	// what lets members converge on a crashed sender's tail even when no
	// view change (and hence no flush forwarding) occurs.
	if seq > s.maxSeen {
		s.maxSeen = seq
	}
	// The sender's minimum can only have moved if this member was the
	// last one holding it back.
	if m == t.selfSlot || old != s.minRep {
		return
	}
	if s.minCnt--; s.minCnt == 0 {
		t.rescanMin(k)
		t.settle(s)
	}
}

// rescanMin recomputes sender slot k's cached minimum over the other
// members' reports.
func (t *Tracker) rescanMin(k int) {
	s := &t.senders[k]
	s.minRep, s.minCnt = math.MaxUint64, 0
	for m, row := range t.rep {
		if m == t.selfSlot {
			continue
		}
		var v uint64
		if row != nil {
			v = row[k]
		}
		switch {
		case v < s.minRep:
			s.minRep, s.minCnt = v, 1
		case v == s.minRep:
			s.minCnt++
		}
	}
}

// Reported returns the highest receive watermark member has reported for
// sender's casts in this view — zero if member has never reported. The group
// layer resolves its cumulative acknowledgement waiters from it: a reported
// watermark of w means member holds every one of sender's casts 1..w, so one
// report acknowledges an entire prefix.
func (t *Tracker) Reported(member, sender types.ProcessID) uint64 {
	m, ok := t.memberSlot(member)
	if !ok || t.rep[m] == nil {
		return 0
	}
	k, ok := t.memberSlot(sender)
	if !ok {
		return 0
	}
	return t.rep[m][k]
}

// StableOrd returns the group-wide stable ABCAST prefix — every member has
// delivered agreed slots 1..StableOrd — given this member's own delivered
// prefix. It is the minimum across all members, zero until every other
// member has reported; a sole member is trivially stable at its own prefix.
func (t *Tracker) StableOrd(own uint64) uint64 {
	min := own
	for m, v := range t.ordRep {
		if m != t.selfSlot && v < min {
			min = v
		}
	}
	return min
}

// Stable returns the stability watermark for a sender.
func (t *Tracker) Stable(p types.ProcessID) uint64 { return t.peek(p).stable }

// SetFloor advances a sender's stability watermark to an externally computed
// floor, pruning the buffered casts at or below it. It is the pruning path
// for trackers that aggregate stability out of band — the treecast hop
// tracker learns its floor from the broadcast initiator's cumulative
// watermark rather than from per-member Reports. The floor is clamped to the
// sender's own contiguous watermark: pruning past casts this member has not
// yet received would make Note misclassify them as duplicates when they
// finally arrive.
func (t *Tracker) SetFloor(sender types.ProcessID, floor uint64) {
	s := t.sender(sender)
	if floor > s.ctg {
		floor = s.ctg
	}
	t.raiseStable(s, floor)
}

// Expect records that sender has issued casts up to seq without requiring a
// copy of any of them, turning knowledge learned out of band (a forwarded
// record's sequence number, a watermark in an acknowledgement) into a
// NAKable gap exactly as a peer's Report would.
func (t *Tracker) Expect(sender types.ProcessID, seq uint64) {
	s := t.sender(sender)
	if seq > s.maxSeen {
		s.maxSeen = seq
	}
}

// Bootstrap initialises a never-seen sender's watermarks at a baseline, so a
// member that joins mid-stream does not NAK for (or wait on) history that
// predates it. It applies only while the sender's state is completely fresh
// — after any Note, Report or Expect it is a no-op — and reports whether the
// baseline was applied.
func (t *Tracker) Bootstrap(sender types.ProcessID, seq uint64) bool {
	s := t.sender(sender)
	if s.ctg != 0 || s.stable != 0 || s.maxSeen != 0 || len(s.buf) != 0 {
		return false
	}
	s.ctg, s.stable, s.maxSeen = seq, seq, seq
	if seq > 0 {
		t.moved(s)
	}
	return true
}

// Missing returns the gaps in every sender's receive sequence — runs of
// sequence numbers between the contiguous watermark and the highest seen
// that are not buffered. These are the casts a NAK asks for.
func (t *Tracker) Missing() []SeqRange {
	var out []SeqRange
	for i := range t.senders {
		if s := &t.senders[i]; s.ctg < s.maxSeen {
			out = s.gaps(out, s.maxSeen)
		}
	}
	return out
}

// MissingAged is Missing restricted to the senders whose gap age, as of the
// last GapTick, satisfies due: a caller spacing its NAKs asks again for one
// sender's stalled gap without holding back another sender's younger one.
func (t *Tracker) MissingAged(due func(age int) bool) []SeqRange {
	var out []SeqRange
	for i := range t.senders {
		if s := &t.senders[i]; s.ctg < s.maxSeen && due(s.gapTicks) {
			out = s.gaps(out, s.maxSeen)
		}
	}
	return out
}

// MissingBelow returns the casts absent below a per-sender target cut — what
// still has to be recovered before a pending view install's delivery cut is
// satisfied. Senders beyond the cut map are ignored.
func (t *Tracker) MissingBelow(cut map[types.ProcessID]uint64) []SeqRange {
	var out []SeqRange
	for p, target := range cut {
		if p == t.self {
			continue
		}
		s := t.peek(p)
		out = s.gaps(out, target)
	}
	return out
}

// GapTick bumps and returns the per-tracker gap age for NAK pacing: the
// caller's recovery timer calls it once per tick and NAKs a gap once its age
// passes the caller's threshold (fresh arrivals reset the age in Note). A
// gap ages only while the sender's
// contiguous watermark stands still: one that moved since the previous tick
// is being filled — a report that overtook the casts it covers opens a gap
// the casts close behind it — and its age starts over. The age returned is
// the maximum across senders with gaps; zero means no gaps.
func (t *Tracker) GapTick() int {
	max := 0
	for i := range t.senders {
		s := &t.senders[i]
		switch {
		case s.ctg >= s.maxSeen, s.ctg != s.tickCtg:
			s.gapTicks = 0
		default:
			s.gapTicks++
		}
		s.tickCtg = s.ctg
		if s.gapTicks > max {
			max = s.gapTicks
		}
	}
	return max
}

// Retrieve returns the buffered casts for one missing range, capped at max.
// Any member may serve it: the buffer holds every unstable cast the member
// has received, not just its own.
func (t *Tracker) Retrieve(r SeqRange, max int) []*types.Message {
	s := t.peek(r.Sender)
	hi := r.Hi // off the wire: never walk past what exists
	if hi > s.maxSeen {
		hi = s.maxSeen
	}
	var out []*types.Message
	for seq := r.Lo; seq <= hi && len(out) < max; seq++ {
		if m := s.buf[seq]; m != nil {
			out = append(out, m)
		}
	}
	return out
}

// Unstable returns every buffered cast not yet known stable, the set a
// survivor re-multicasts during a view-change flush (flush forwarding). The
// result is ordered per sender by sequence number.
func (t *Tracker) Unstable() []*types.Message {
	out := make([]*types.Message, 0, t.Buffered())
	for i := range t.senders {
		s := &t.senders[i]
		if len(s.buf) == 0 {
			continue
		}
		for seq := s.stable + 1; seq <= s.maxSeen; seq++ {
			if m := s.buf[seq]; m != nil {
				out = append(out, m)
			}
		}
	}
	return out
}

// NakTarget picks the process to ask for a retransmission of sender's
// casts, rotating across the view on successive calls so a NAK eventually
// reaches a live holder: the original sender first (unless excluded), then
// every other member in view order. Excluded (suspected) processes are
// skipped; the zero process is returned when nobody qualifies.
func (t *Tracker) NakTarget(sender types.ProcessID, excluded func(types.ProcessID) bool) types.ProcessID {
	s := t.sender(sender)
	candidates := make([]types.ProcessID, 0, len(t.members)+1)
	if sender != t.self && (excluded == nil || !excluded(sender)) {
		candidates = append(candidates, sender)
	}
	for _, m := range t.members {
		if m == t.self || m == sender {
			continue
		}
		if excluded != nil && excluded(m) {
			continue
		}
		candidates = append(candidates, m)
	}
	if len(candidates) == 0 {
		return types.NilProcess
	}
	pick := candidates[s.nakRR%len(candidates)]
	s.nakRR++
	return pick
}

// Buffered returns how many casts the tracker currently holds — the
// O(unstable) quantity stability keeps bounded.
func (t *Tracker) Buffered() int {
	n := 0
	for i := range t.senders {
		n += len(t.senders[i].buf)
	}
	return n
}

// Stats returns the tracker's (shared, cumulative) counters.
func (t *Tracker) Stats() Stats { return *t.stats }

// --- wire encoding ------------------------------------------------------------

// EncodeNak serialises a retransmission request's ranges.
func EncodeNak(ranges []SeqRange) []byte {
	b := types.EncodeUint64(nil, uint64(len(ranges)))
	for _, r := range ranges {
		b = types.EncodeUint64(b, uint64(r.Sender.Site))
		b = types.EncodeUint64(b, uint64(r.Sender.Incarnation))
		b = types.EncodeUint64(b, uint64(r.Sender.Index))
		b = types.EncodeUint64(b, r.Lo)
		b = types.EncodeUint64(b, r.Hi)
	}
	return b
}

// DecodeNak parses ranges serialised by EncodeNak.
func DecodeNak(b []byte) ([]SeqRange, bool) {
	n, b, ok := types.DecodeUint64(b)
	if !ok {
		return nil, false
	}
	out := make([]SeqRange, 0, n)
	for i := uint64(0); i < n; i++ {
		var site, inc, idx, lo, hi uint64
		if site, b, ok = types.DecodeUint64(b); !ok {
			return nil, false
		}
		if inc, b, ok = types.DecodeUint64(b); !ok {
			return nil, false
		}
		if idx, b, ok = types.DecodeUint64(b); !ok {
			return nil, false
		}
		if lo, b, ok = types.DecodeUint64(b); !ok {
			return nil, false
		}
		if hi, b, ok = types.DecodeUint64(b); !ok {
			return nil, false
		}
		out = append(out, SeqRange{
			Sender: types.ProcessID{Site: types.SiteID(site), Incarnation: uint32(inc), Index: uint32(idx)},
			Lo:     lo, Hi: hi,
		})
	}
	return out, true
}
