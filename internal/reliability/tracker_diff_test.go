package reliability

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/types"
)

// The differential test drives a Tracker and the brute-force model below
// through the same seeded random history and compares everything a caller
// can observe after every step. The model keeps the tracker's state in the
// obvious maps — the reports exactly as they arrived, every accepted cast
// forever — and rescans every sender × member after every operation; it is
// the specification the slice-and-cache implementation has to agree with.
//
// Reports follow the wire contract: a member's vector leaves out its own
// casts, whose watermark rides in the message's ID and is folded with
// ReportOwn. The model's expected StabVector is rebuilt from scratch at every
// step, so a snapshot the tracker failed to invalidate shows as a mismatch.

type modelSender struct {
	got      map[uint64]*types.Message // every cast accepted, never pruned
	ctg      uint64
	stable   uint64
	maxSeen  uint64
	gapTicks int
	lastCtg  uint64 // ctg when gapTick last ran
}

type model struct {
	self    types.ProcessID
	members []types.ProcessID
	senders map[types.ProcessID]*modelSender
	order   []types.ProcessID                              // senders in slot order: members, then first contact
	reports map[types.ProcessID]map[types.ProcessID]uint64 // member -> member sender -> watermark
	ord     map[types.ProcessID]uint64
	stats   Stats
}

func newModel(self types.ProcessID, members []types.ProcessID) *model {
	m := &model{
		self:    self,
		members: members,
		senders: map[types.ProcessID]*modelSender{},
		reports: map[types.ProcessID]map[types.ProcessID]uint64{},
		ord:     map[types.ProcessID]uint64{},
	}
	for _, p := range members {
		m.sender(p)
	}
	return m
}

func (m *model) isMember(p types.ProcessID) bool { return types.ContainsProcess(m.members, p) }

func (m *model) sender(p types.ProcessID) *modelSender {
	s := m.senders[p]
	if s == nil {
		s = &modelSender{got: map[uint64]*types.Message{}}
		m.senders[p] = s
		m.order = append(m.order, p)
	}
	return s
}

// peek is sender without the side effect, for queries.
func (m *model) peek(p types.ProcessID) *modelSender {
	if s := m.senders[p]; s != nil {
		return s
	}
	return &modelSender{}
}

// raise moves a sender's stability watermark up to floor, counting the
// accepted casts that fall at or below it as pruned.
func (m *model) raise(s *modelSender, floor uint64) {
	for seq := s.stable + 1; seq <= floor; seq++ {
		if s.got[seq] != nil {
			m.stats.StablePruned++
		}
	}
	if floor > s.stable {
		s.stable = floor
	}
}

// settle is the whole-table rescan: a member's casts are stable up to the
// lowest of our own contiguous watermark and what every other member has
// reported. Senders outside the view have nobody reporting on them.
func (m *model) settle() {
	for p, s := range m.senders {
		if !m.isMember(p) {
			continue
		}
		floor := s.ctg
		for _, q := range m.members {
			if q == m.self {
				continue
			}
			if v := m.reports[q][p]; v < floor {
				floor = v
			}
		}
		m.raise(s, floor)
	}
}

func (m *model) note(msg *types.Message) bool {
	s := m.sender(msg.ID.Sender)
	seq := msg.ID.Seq
	if seq == 0 || seq <= s.stable || s.got[seq] != nil {
		m.stats.Duplicates++
		return false
	}
	s.got[seq] = msg
	if seq > s.maxSeen {
		s.maxSeen = seq
	}
	for s.got[s.ctg+1] != nil {
		s.ctg++
	}
	if s.ctg >= s.maxSeen {
		s.gapTicks = 0
	}
	m.settle()
	return true
}

func (m *model) report(from types.ProcessID, vec []types.StabEntry, ord uint64) {
	if !m.isMember(from) {
		return
	}
	m.stats.Reports++
	if ord > m.ord[from] {
		m.ord[from] = ord
	}
	for _, e := range vec {
		if !m.isMember(e.Sender) {
			continue
		}
		if m.reports[from] == nil {
			m.reports[from] = map[types.ProcessID]uint64{}
		}
		if e.Seq > m.reports[from][e.Sender] {
			m.reports[from][e.Sender] = e.Seq
		}
		if s := m.sender(e.Sender); e.Seq > s.maxSeen {
			s.maxSeen = e.Seq
		}
	}
	m.settle()
}

// reportOwn folds a member's watermark for its own casts: the one entry a
// report carries outside its vector, counted as part of that report.
func (m *model) reportOwn(from types.ProcessID, seq uint64) {
	if !m.isMember(from) || seq == 0 {
		return
	}
	if m.reports[from] == nil {
		m.reports[from] = map[types.ProcessID]uint64{}
	}
	if seq > m.reports[from][from] {
		m.reports[from][from] = seq
	}
	if s := m.sender(from); seq > s.maxSeen {
		s.maxSeen = seq
	}
	m.settle()
}

func (m *model) setFloor(p types.ProcessID, floor uint64) {
	s := m.sender(p)
	if floor > s.ctg {
		floor = s.ctg
	}
	m.raise(s, floor)
}

func (m *model) expect(p types.ProcessID, seq uint64) {
	if s := m.sender(p); seq > s.maxSeen {
		s.maxSeen = seq
	}
}

func (m *model) bootstrap(p types.ProcessID, seq uint64) bool {
	s := m.sender(p)
	if s.ctg != 0 || s.stable != 0 || s.maxSeen != 0 || len(s.got) != 0 {
		return false
	}
	s.ctg, s.stable, s.maxSeen = seq, seq, seq
	return true
}

// gapTick ages a sender's gap by one tick only while its contiguous
// watermark has not moved since the previous tick; a watermark that moved, or
// no gap at all, starts the age over.
func (m *model) gapTick() int {
	max := 0
	for _, s := range m.senders {
		if s.ctg < s.maxSeen && s.ctg == s.lastCtg {
			s.gapTicks++
			if s.gapTicks > max {
				max = s.gapTicks
			}
		} else {
			s.gapTicks = 0
		}
		s.lastCtg = s.ctg
	}
	return max
}

func (m *model) stableOrd(own uint64) uint64 {
	min := own
	for _, q := range m.members {
		if q != m.self && m.ord[q] < min {
			min = m.ord[q]
		}
	}
	return min
}

// held appends a sender's buffered casts — accepted and not yet stable — with
// lo <= seq <= hi, in sequence order.
func (s *modelSender) held(out []*types.Message, lo, hi uint64) []*types.Message {
	if lo <= s.stable {
		lo = s.stable + 1
	}
	if hi > s.maxSeen {
		hi = s.maxSeen
	}
	for seq := lo; seq <= hi; seq++ {
		if m := s.got[seq]; m != nil {
			out = append(out, m)
		}
	}
	return out
}

// gaps appends the runs of sequence numbers in (ctg, hi] never accepted.
func (s *modelSender) gaps(out []SeqRange, p types.ProcessID, hi uint64) []SeqRange {
	for seq := s.ctg + 1; seq <= hi; seq++ {
		if s.got[seq] != nil {
			continue
		}
		if n := len(out); n > 0 && out[n-1].Sender == p && out[n-1].Hi == seq-1 {
			out[n-1].Hi = seq
		} else {
			out = append(out, SeqRange{Sender: p, Lo: seq, Hi: seq})
		}
	}
	return out
}

// sameRanges compares two gap lists as sets: no order is promised.
func sameRanges(a, b []SeqRange) bool {
	if len(a) != len(b) {
		return false
	}
	if slices.Equal(a, b) {
		return true
	}
	sortRanges(a)
	sortRanges(b)
	return slices.Equal(a, b)
}

func sortRanges(rs []SeqRange) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Sender != rs[j].Sender {
			return rs[i].Sender.Less(rs[j].Sender)
		}
		return rs[i].Lo < rs[j].Lo
	})
}

// simProc is one process of the simulated world feeding the pair: what it has
// issued so far, the casts themselves (by sequence number) and its previous
// report, kept for duplicated and reordered (stale) redelivery.
type simProc struct {
	pid  types.ProcessID
	sent uint64
	msgs []*types.Message
	last []types.StabEntry
}

// diffHarness owns one tracker/model pair and the world feeding them.
type diffHarness struct {
	t      *testing.T
	rng    *rand.Rand
	tr     *Tracker
	mo     *model
	pool   []simProc     // members first, then outsiders; self is somewhere in it
	lost   []types.MsgID // issued but not yet handed to the tracker
	ownOrd uint64
	step   int
	// scratch for compare
	wantMsgs   []*types.Message
	wantRanges []SeqRange
	wantVec    []types.StabEntry
	cut        map[types.ProcessID]uint64
}

func (h *diffHarness) failf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("step %d: %s", h.step, fmt.Sprintf(format, args...))
}

func (h *diffHarness) pick() *simProc { return &h.pool[h.rng.Intn(len(h.pool))] }

func (h *diffHarness) proc(p types.ProcessID) *simProc {
	for i := range h.pool {
		if h.pool[i].pid == p {
			return &h.pool[i]
		}
	}
	return nil
}

// skipTo marks p's casts up to seq as issued without delivering them: they
// are in flight until a retransmission step hands them over.
func (h *diffHarness) skipTo(p *simProc, seq uint64) {
	for p.sent < seq {
		p.sent++
		h.lost = append(h.lost, types.MsgID{Sender: p.pid, Seq: p.sent})
	}
}

// note hands both sides the same message for (p, seq), every time.
func (h *diffHarness) note(p *simProc, seq uint64) {
	for uint64(len(p.msgs)) <= seq {
		p.msgs = append(p.msgs, nil)
	}
	if p.msgs[seq] == nil {
		p.msgs[seq] = castFrom(p.pid, seq)
	}
	m := p.msgs[seq]
	if got, want := h.tr.Note(m), h.mo.note(m); got != want {
		h.failf("Note(%v/%d) = %t, model says %t", p.pid, seq, got, want)
	}
}

// randomVector builds a report as some process might send it: mostly the
// pool in view order with watermarks at what each process has issued,
// sometimes stale, inflated past anything issued, thinned, shuffled, or
// naming a sender twice. Outsiders are named like anyone else; the reporter
// itself usually is not.
func (h *diffHarness) randomVector(from types.ProcessID) []types.StabEntry {
	var vec []types.StabEntry
	for i := range h.pool {
		if h.rng.Intn(16) == 0 {
			continue
		}
		// A vector leaves the reporter's own casts out (they ride in the
		// message's ID); an odd one still names them, and Report must fold
		// that too.
		if h.pool[i].pid == from && h.rng.Intn(8) != 0 {
			continue
		}
		seq := h.pool[i].sent
		switch h.rng.Intn(12) {
		case 0:
			seq = uint64(h.rng.Int63n(int64(seq) + 1))
		case 1:
			seq += uint64(h.rng.Intn(3))
		case 2:
			if seq > 0 {
				seq--
			}
		}
		if seq > 0 || h.rng.Intn(4) == 0 {
			vec = append(vec, types.StabEntry{Sender: h.pool[i].pid, Seq: seq})
		}
	}
	if h.rng.Intn(4) == 0 {
		h.rng.Shuffle(len(vec), func(i, j int) { vec[i], vec[j] = vec[j], vec[i] })
	}
	if len(vec) > 0 && h.rng.Intn(8) == 0 {
		vec = append(vec, vec[h.rng.Intn(len(vec))])
	}
	return vec
}

func (h *diffHarness) doStep() {
	r := h.rng.Intn(100)
	switch {
	case r < 27: // the next cast of some sender, occasionally overtaking a lost one
		p := h.pick()
		if h.rng.Intn(16) == 0 {
			h.skipTo(p, p.sent+1)
		}
		p.sent++
		h.note(p, p.sent)
	case r < 37: // a retransmission fills a gap, the oldest one as often as not
		if len(h.lost) > 0 {
			i := h.rng.Intn(2 * len(h.lost))
			if i >= len(h.lost) {
				i = 0
			}
			id := h.lost[i]
			h.lost = append(h.lost[:i], h.lost[i+1:]...)
			h.note(h.proc(id.Sender), id.Seq)
		}
	case r < 43: // a duplicate, a stale copy, sequence zero, or a cast from the future
		p := h.pick()
		seq := uint64(h.rng.Int63n(int64(p.sent) + 4))
		if seq > p.sent {
			h.skipTo(p, seq-1)
			p.sent = seq
		}
		h.note(p, seq)
	case r < 86: // a report: fresh, or the previous one again (duplicated / reordered)
		from := h.pick()
		vec := h.randomVector(from.pid)
		if from.last != nil && h.rng.Intn(5) == 0 {
			vec = from.last
		}
		from.last = vec
		ord := uint64(h.rng.Intn(h.step/8 + 1))
		h.tr.Report(from.pid, vec, ord)
		h.mo.report(from.pid, vec, ord)
		// The reporter's own watermark from the message's ID: what it has
		// issued (a cast's own seq), sometimes stale, sometimes absent.
		if own := from.sent; own > 0 && h.rng.Intn(4) != 0 {
			if h.rng.Intn(6) == 0 {
				own = uint64(h.rng.Int63n(int64(own) + 1))
			}
			h.tr.ReportOwn(from.pid, own)
			h.mo.reportOwn(from.pid, own)
		}
	case r < 90: // an out-of-band floor, usually near what the sender has issued
		p := h.pick()
		floor := p.sent + 2 - uint64(h.rng.Intn(6))
		if h.rng.Intn(4) == 0 {
			floor = uint64(h.rng.Int63n(int64(p.sent) + 3))
		}
		h.tr.SetFloor(p.pid, floor)
		h.mo.setFloor(p.pid, floor)
	case r < 93:
		p := h.pick()
		seq := p.sent + uint64(h.rng.Intn(3))
		h.skipTo(p, seq)
		h.tr.Expect(p.pid, seq)
		h.mo.expect(p.pid, seq)
	case r < 96:
		p, seq := h.pick(), uint64(h.rng.Intn(6))
		got, want := h.tr.Bootstrap(p.pid, seq), h.mo.bootstrap(p.pid, seq)
		if got != want {
			h.failf("Bootstrap(%v, %d) = %t, model says %t", p.pid, seq, got, want)
		}
		if got && seq > p.sent {
			p.sent = seq // history below the baseline is never asked for
		}
	case r < 99:
		if got, want := h.tr.GapTick(), h.mo.gapTick(); got != want {
			h.failf("GapTick = %d, model says %d", got, want)
		}
	default:
		h.ownOrd += uint64(h.rng.Intn(3))
	}
}

// compare checks every observable of the tracker against the model: all of
// them after every step, except that the n×n report matrix is read in full
// every 64th step and one random row and column of it otherwise.
func (h *diffHarness) compare() {
	tr, mo := h.tr, h.mo
	if got, want := tr.Stats(), mo.stats; got != want {
		h.failf("Stats = %+v, model says %+v", got, want)
	}
	if got, want := tr.StableOrd(h.ownOrd), mo.stableOrd(h.ownOrd); got != want {
		h.failf("StableOrd(%d) = %d, model says %d", h.ownOrd, got, want)
	}
	// Tracker-wide lists. Unstable promises sequence order per sender; the
	// tracker also keeps senders in slot order (members, then first contact),
	// which mo.order mirrors.
	gotCut, cutLen := tr.CutVector(), 0
	h.wantMsgs, h.wantRanges, h.wantVec = h.wantMsgs[:0], h.wantRanges[:0], h.wantVec[:0]
	for _, p := range mo.order {
		s := mo.senders[p]
		h.wantMsgs = s.held(h.wantMsgs, 0, ^uint64(0))
		h.wantRanges = s.gaps(h.wantRanges, p, s.maxSeen)
		if s.ctg > 0 {
			cutLen++
			if gotCut[p] != s.ctg {
				h.failf("CutVector[%v] = %d, model says %d", p, gotCut[p], s.ctg)
			}
			if p != mo.self {
				h.wantVec = append(h.wantVec, types.StabEntry{Sender: p, Seq: s.ctg})
			}
		}
	}
	if len(gotCut) != cutLen {
		h.failf("CutVector = %v, model has %d senders", gotCut, cutLen)
	}
	if got := tr.Buffered(); got != len(h.wantMsgs) {
		h.failf("Buffered = %d, model says %d", got, len(h.wantMsgs))
	}
	if got := tr.StabVector(); !slices.Equal(got, h.wantVec) {
		h.failf("StabVector = %v, model says %v", got, h.wantVec)
	}
	if got := tr.Missing(); !sameRanges(got, h.wantRanges) {
		h.failf("Missing = %v, model says %v", got, h.wantRanges)
	}
	if got := tr.Unstable(); !slices.Equal(got, h.wantMsgs) {
		h.failf("Unstable has %d casts, model %d (or they differ in order)", len(got), len(h.wantMsgs))
	}
	// Per-process scalars, and the gaps below a random cut.
	clear(h.cut)
	h.wantRanges = h.wantRanges[:0]
	for i := range h.pool {
		p := h.pool[i].pid
		s := mo.peek(p)
		if got := tr.Ctg(p); got != s.ctg {
			h.failf("Ctg(%v) = %d, model says %d", p, got, s.ctg)
		}
		if got := tr.Stable(p); got != s.stable {
			h.failf("Stable(%v) = %d, model says %d", p, got, s.stable)
		}
		if h.rng.Intn(3) == 0 {
			target := uint64(h.rng.Int63n(int64(h.pool[i].sent) + 3))
			h.cut[p] = target
			if p != mo.self {
				h.wantRanges = s.gaps(h.wantRanges, p, target)
			}
		}
	}
	if got := tr.MissingBelow(h.cut); !sameRanges(got, h.wantRanges) {
		h.failf("MissingBelow(%v) = %v, model says %v", h.cut, got, h.wantRanges)
	}
	a := h.pick()
	for i := range h.pool {
		h.compareReported(a.pid, h.pool[i].pid)
		h.compareReported(h.pool[i].pid, a.pid)
	}
	if h.step%64 == 0 {
		for i := range h.pool {
			for j := range h.pool {
				h.compareReported(h.pool[i].pid, h.pool[j].pid)
			}
		}
	}
	// One random range of one sender's buffer.
	lo := uint64(h.rng.Int63n(int64(a.sent) + 2))
	r := SeqRange{Sender: a.pid, Lo: lo, Hi: lo + uint64(h.rng.Intn(12))}
	max := 1 + h.rng.Intn(8)
	h.wantMsgs = mo.peek(a.pid).held(h.wantMsgs[:0], r.Lo, r.Hi)
	if len(h.wantMsgs) > max {
		h.wantMsgs = h.wantMsgs[:max]
	}
	if got := tr.Retrieve(r, max); !slices.Equal(got, h.wantMsgs) {
		h.failf("Retrieve(%v, %d) returned %d casts, model %d (or they differ)", r, max, len(got), len(h.wantMsgs))
	}
}

func (h *diffHarness) compareReported(member, sender types.ProcessID) {
	if got, want := h.tr.Reported(member, sender), h.mo.reports[member][sender]; got != want {
		h.failf("Reported(%v, %v) = %d, model says %d", member, sender, got, want)
	}
}

func TestTrackerMatchesBruteForceModel(t *testing.T) {
	const seeds, steps = 20, 10000
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			// 1–16 members plus three outsiders; every fourth seed runs with
			// no member list at all (the treecast hop tracker), and every
			// fifth with a self that is not in the view. The StabVector
			// snapshot must leave self out and stay fresh either way.
			n := 1 + rng.Intn(16)
			if seed%4 == 0 {
				n = 0
			}
			pids := make([]types.ProcessID, n+3)
			for i := range pids {
				pids[i] = pid(uint32(i + 1))
			}
			rng.Shuffle(len(pids), func(i, j int) { pids[i], pids[j] = pids[j], pids[i] })
			members := pids[:n:n]
			self := pids[n+rng.Intn(len(pids)-n)] // an outsider
			if n > 0 && seed%5 != 0 {
				self = members[rng.Intn(n)]
			}
			h := &diffHarness{
				t: t, rng: rng,
				tr:   NewTracker(self, members, nil),
				mo:   newModel(self, members),
				pool: make([]simProc, len(pids)),
				cut:  map[types.ProcessID]uint64{},
			}
			for i, p := range pids {
				h.pool[i].pid = p
			}
			for h.step = 1; h.step <= steps; h.step++ {
				h.doStep()
				h.compare()
			}
			if st := h.tr.Stats(); n > 1 && (st.StablePruned < steps/10 || st.Duplicates == 0 || st.Reports == 0) {
				t.Errorf("%d members, %d steps: the history exercises too little: %+v", n, steps, st)
			}
		})
	}
}
