package reliability

import (
	"strconv"
	"testing"

	"repro/internal/types"
)

func pid(site uint32) types.ProcessID {
	return types.ProcessID{Site: types.SiteID(site), Incarnation: 1}
}

func castFrom(sender types.ProcessID, seq uint64) *types.Message {
	return &types.Message{
		Kind:    types.KindCast,
		ID:      types.MsgID{Sender: sender, Seq: seq},
		Payload: []byte{byte(seq)},
	}
}

func newTestTracker() *Tracker {
	return NewTracker(pid(1), []types.ProcessID{pid(1), pid(2), pid(3)}, nil)
}

func TestTrackerNoteAdvancesWatermarkAndFiltersDuplicates(t *testing.T) {
	tr := newTestTracker()
	for seq := uint64(1); seq <= 3; seq++ {
		if !tr.Note(castFrom(pid(2), seq)) {
			t.Fatalf("first copy of seq %d reported duplicate", seq)
		}
	}
	if got := tr.Ctg(pid(2)); got != 3 {
		t.Fatalf("ctg = %d, want 3", got)
	}
	if tr.Note(castFrom(pid(2), 2)) {
		t.Error("duplicate copy reported fresh")
	}
	if tr.Stats().Duplicates == 0 {
		t.Error("duplicate not counted")
	}
}

func TestTrackerGapsAreNakableAndRetrievable(t *testing.T) {
	tr := newTestTracker()
	tr.Note(castFrom(pid(2), 1))
	tr.Note(castFrom(pid(2), 4)) // gap: 2,3 missing
	if got := tr.Ctg(pid(2)); got != 1 {
		t.Fatalf("ctg = %d, want 1 (gap)", got)
	}
	missing := tr.Missing()
	if len(missing) != 1 || missing[0] != (SeqRange{Sender: pid(2), Lo: 2, Hi: 3}) {
		t.Fatalf("Missing = %v, want [{p2 2 3}]", missing)
	}
	// A holder serves the buffered copies for a NAKed range.
	held := tr.Retrieve(SeqRange{Sender: pid(2), Lo: 1, Hi: 4}, 10)
	if len(held) != 2 {
		t.Fatalf("Retrieve returned %d casts, want the 2 buffered ones", len(held))
	}
	// Round-trip the wire form.
	dec, ok := DecodeNak(EncodeNak(missing))
	if !ok || len(dec) != 1 || dec[0] != missing[0] {
		t.Fatalf("EncodeNak/DecodeNak round trip: %v ok=%v", dec, ok)
	}
}

func TestTrackerStabilityPrunesOnlyWhenAllReported(t *testing.T) {
	tr := newTestTracker()
	for seq := uint64(1); seq <= 4; seq++ {
		tr.Note(castFrom(pid(2), seq))
	}
	if tr.Buffered() != 4 {
		t.Fatalf("buffered %d, want 4", tr.Buffered())
	}
	// Only one of the two other members has reported: nothing is stable.
	tr.Report(pid(2), []types.StabEntry{{Sender: pid(2), Seq: 4}}, 0)
	if tr.Stable(pid(2)) != 0 || tr.Buffered() != 4 {
		t.Fatalf("stability advanced with a member unheard from: stable=%d buffered=%d",
			tr.Stable(pid(2)), tr.Buffered())
	}
	tr.Report(pid(3), []types.StabEntry{{Sender: pid(2), Seq: 2}}, 0)
	if tr.Stable(pid(2)) != 2 {
		t.Fatalf("stable = %d, want 2 (the minimum across members)", tr.Stable(pid(2)))
	}
	if tr.Buffered() != 2 {
		t.Fatalf("buffered = %d, want 2 after pruning", tr.Buffered())
	}
	// A stale (reordered) report can never regress the watermark.
	tr.Report(pid(3), []types.StabEntry{{Sender: pid(2), Seq: 1}}, 0)
	if tr.Stable(pid(2)) != 2 {
		t.Errorf("stale report regressed stability to %d", tr.Stable(pid(2)))
	}
	// A pruned (stable) cast is still recognised as a duplicate.
	if tr.Note(castFrom(pid(2), 1)) {
		t.Error("stable cast re-accepted as fresh")
	}
}

func TestTrackerPeerReportsRevealUnseenTail(t *testing.T) {
	// A peer reporting a higher watermark than anything we received turns a
	// silent loss (every copy dropped) into a NAKable gap — the mechanism
	// that converges terminal views on a crashed sender's tail.
	tr := newTestTracker()
	tr.Note(castFrom(pid(3), 1))
	tr.Report(pid(2), []types.StabEntry{{Sender: pid(3), Seq: 3}}, 0)
	missing := tr.Missing()
	if len(missing) != 1 || missing[0] != (SeqRange{Sender: pid(3), Lo: 2, Hi: 3}) {
		t.Fatalf("Missing = %v, want [{p3 2 3}]", missing)
	}
}

func TestTrackerStableOrd(t *testing.T) {
	tr := newTestTracker()
	if got := tr.StableOrd(7); got != 0 {
		t.Fatalf("StableOrd before any report = %d, want 0", got)
	}
	tr.Report(pid(2), nil, 5)
	tr.Report(pid(3), nil, 9)
	if got := tr.StableOrd(7); got != 5 {
		t.Fatalf("StableOrd = %d, want 5 (minimum incl. own prefix)", got)
	}
	if got := tr.StableOrd(3); got != 3 {
		t.Fatalf("StableOrd = %d, want own prefix 3", got)
	}
	solo := NewTracker(pid(1), []types.ProcessID{pid(1)}, nil)
	if got := solo.StableOrd(4); got != 4 {
		t.Fatalf("sole member StableOrd = %d, want own prefix", got)
	}
}

func TestTrackerCutVectorHoldsOnlyContiguousPrefixes(t *testing.T) {
	tr := newTestTracker()
	tr.Note(castFrom(pid(2), 1))
	tr.Note(castFrom(pid(2), 3)) // gap at 2
	cut := tr.CutVector()
	if cut[pid(2)] != 1 {
		t.Fatalf("cut[p2] = %d, want the contiguous prefix 1, not max-seen 3", cut[pid(2)])
	}
}

func TestTrackerUnstableIsTheForwardSet(t *testing.T) {
	tr := newTestTracker()
	for seq := uint64(1); seq <= 3; seq++ {
		tr.Note(castFrom(pid(2), seq))
	}
	tr.Report(pid(2), []types.StabEntry{{Sender: pid(2), Seq: 1}}, 0)
	tr.Report(pid(3), []types.StabEntry{{Sender: pid(2), Seq: 1}}, 0)
	un := tr.Unstable()
	if len(un) != 2 {
		t.Fatalf("Unstable returned %d casts, want 2 (seq 2,3)", len(un))
	}
}

func TestTrackerSetFloorPrunesButClampsToOwnWatermark(t *testing.T) {
	// The hop tracker (treecast) has no member list: its floor arrives out of
	// band from the broadcast initiator. SetFloor must prune up to the floor
	// but never past what this member has contiguously received — otherwise a
	// straggling cast would be misfiled as a duplicate on arrival.
	tr := NewTracker(pid(1), nil, nil)
	for seq := uint64(1); seq <= 3; seq++ {
		tr.Note(castFrom(pid(2), seq))
	}
	tr.Note(castFrom(pid(2), 5)) // gap at 4: ctg stays 3
	tr.SetFloor(pid(2), 5)
	if got := tr.Stable(pid(2)); got != 3 {
		t.Fatalf("stable = %d, want 3 (clamped to ctg)", got)
	}
	if tr.Buffered() != 1 {
		t.Fatalf("buffered = %d, want 1 (only seq 5 kept)", tr.Buffered())
	}
	// The straggler is still fresh, then prunable once contiguous.
	if !tr.Note(castFrom(pid(2), 4)) {
		t.Fatal("cast above the clamped floor misfiled as duplicate")
	}
	tr.SetFloor(pid(2), 5)
	if got := tr.Stable(pid(2)); got != 5 || tr.Buffered() != 0 {
		t.Fatalf("stable = %d buffered = %d, want 5 and 0", got, tr.Buffered())
	}
	// Floors are monotone: a stale lower floor never regresses the watermark.
	tr.SetFloor(pid(2), 2)
	if got := tr.Stable(pid(2)); got != 5 {
		t.Errorf("stale floor regressed stability to %d", got)
	}
}

func TestTrackerExpectCreatesNakableGap(t *testing.T) {
	tr := NewTracker(pid(1), nil, nil)
	tr.Note(castFrom(pid(2), 1))
	tr.Expect(pid(2), 3)
	missing := tr.Missing()
	if len(missing) != 1 || missing[0] != (SeqRange{Sender: pid(2), Lo: 2, Hi: 3}) {
		t.Fatalf("Missing = %v, want [{p2 2 3}]", missing)
	}
	tr.Expect(pid(2), 2) // lower expectation never regresses max-seen
	if missing = tr.Missing(); len(missing) != 1 || missing[0].Hi != 3 {
		t.Fatalf("Missing after stale Expect = %v, want Hi 3", missing)
	}
}

func TestTrackerBootstrapOnlyAppliesToFreshSenders(t *testing.T) {
	tr := NewTracker(pid(1), nil, nil)
	if !tr.Bootstrap(pid(2), 4) {
		t.Fatal("bootstrap of a fresh sender refused")
	}
	if got := tr.Ctg(pid(2)); got != 4 {
		t.Fatalf("ctg = %d, want the baseline 4", got)
	}
	// History at or below the baseline is a duplicate, the next seq is fresh,
	// and no gap is reported for the skipped prefix.
	if tr.Note(castFrom(pid(2), 3)) {
		t.Error("pre-baseline cast accepted as fresh")
	}
	if !tr.Note(castFrom(pid(2), 5)) {
		t.Error("first post-baseline cast misfiled as duplicate")
	}
	if missing := tr.Missing(); len(missing) != 0 {
		t.Errorf("Missing = %v, want none", missing)
	}
	// Once any state exists, Bootstrap is a no-op.
	if tr.Bootstrap(pid(2), 9) {
		t.Error("bootstrap applied over existing state")
	}
	if got := tr.Ctg(pid(2)); got != 5 {
		t.Errorf("ctg = %d after refused bootstrap, want 5", got)
	}
}

func TestTrackerNakTargetRotatesAndSkipsExcluded(t *testing.T) {
	tr := newTestTracker()
	excl := map[types.ProcessID]bool{pid(2): true}
	first := tr.NakTarget(pid(2), func(p types.ProcessID) bool { return excl[p] })
	if first != pid(3) {
		t.Fatalf("target = %v, want p3 (sender excluded)", first)
	}
	excl[pid(2)] = false
	seen := map[types.ProcessID]bool{}
	for i := 0; i < 4; i++ {
		seen[tr.NakTarget(pid(2), nil)] = true
	}
	if !seen[pid(2)] || !seen[pid(3)] {
		t.Errorf("rotation did not cover sender and peers: %v", seen)
	}
}

// viewOf returns n member ids in view order.
func viewOf(n int) []types.ProcessID {
	members := make([]types.ProcessID, n)
	for i := range members {
		members[i] = pid(uint32(i + 1))
	}
	return members
}

func TestTrackerEagerStabilityNeedsNoAdvance(t *testing.T) {
	// Stability is settled where it moves — in Note when our own watermark
	// was the one holding it back, in Report when the reporter's was — so a
	// sole member prunes as it goes and nothing waits for a timer.
	solo := NewTracker(pid(1), viewOf(1), nil)
	solo.Note(castFrom(pid(1), 1))
	if solo.Stable(pid(1)) != 1 || solo.Buffered() != 0 {
		t.Fatalf("sole member: stable=%d buffered=%d, want 1 and 0", solo.Stable(pid(1)), solo.Buffered())
	}
	tr := newTestTracker()
	tr.Report(pid(2), []types.StabEntry{{Sender: pid(3), Seq: 2}}, 0)
	tr.Report(pid(3), []types.StabEntry{{Sender: pid(3), Seq: 2}}, 0)
	tr.Note(castFrom(pid(3), 1)) // everyone else already holds it: we were last
	if tr.Stable(pid(3)) != 1 || tr.Buffered() != 0 {
		t.Fatalf("last holder: stable=%d buffered=%d, want 1 and 0", tr.Stable(pid(3)), tr.Buffered())
	}
}

func TestTrackerIgnoresReportsFromAndAboutOutsiders(t *testing.T) {
	tr := newTestTracker()
	tr.Note(castFrom(pid(2), 1))
	slots := len(tr.senders)
	// About an outsider: no state, no NAKable gap, no allocation.
	vec := []types.StabEntry{{Sender: pid(9), Seq: 5}}
	if n := testing.AllocsPerRun(100, func() { tr.Report(pid(2), vec, 0) }); n != 0 {
		t.Errorf("a report entry naming an outsider allocates %v times, want 0", n)
	}
	if len(tr.senders) != slots || len(tr.Missing()) != 0 || tr.Reported(pid(2), pid(9)) != 0 {
		t.Errorf("outsider entry left state behind: %d slots (was %d), Missing=%v", len(tr.senders), slots, tr.Missing())
	}
	// From an outsider: not folded, cannot acknowledge or reveal anything.
	before := tr.Stats().Reports
	tr.Report(pid(9), []types.StabEntry{{Sender: pid(2), Seq: 7}}, 3)
	if tr.Stats().Reports != before || tr.Reported(pid(9), pid(2)) != 0 || len(tr.Missing()) != 0 {
		t.Errorf("a report from outside the view was folded: reports %d→%d, Missing=%v", before, tr.Stats().Reports, tr.Missing())
	}
	// The hop tracker has no member list: every report is from outside.
	hop := NewTracker(pid(1), nil, nil)
	hop.Note(castFrom(pid(2), 1))
	hop.Report(pid(2), []types.StabEntry{{Sender: pid(2), Seq: 1}}, 0)
	if hop.Stable(pid(2)) != 0 || hop.Buffered() != 1 {
		t.Errorf("memberless tracker derived stability from a report: stable=%d buffered=%d", hop.Stable(pid(2)), hop.Buffered())
	}
}

func TestTrackerSteadyStateAllocatesNothing(t *testing.T) {
	// One round: every member casts once and every member's report of the
	// round arrives. Note buffers the cast, the last report prunes it, and
	// neither allocates once the per-sender buffers exist.
	const n, runs = 8, 200
	members := viewOf(n)
	tr := NewTracker(members[0], members, nil)
	casts := make([][]*types.Message, runs+2)
	for r := range casts {
		casts[r] = make([]*types.Message, n)
		for i, p := range members {
			casts[r][i] = castFrom(p, uint64(r+1))
		}
	}
	vec := make([]types.StabEntry, n)
	round := 0
	step := func() {
		for i, p := range members {
			tr.Note(casts[round][i])
			vec[i] = types.StabEntry{Sender: p, Seq: uint64(round + 1)}
		}
		for _, p := range members[1:] {
			tr.Report(p, vec, uint64(round))
		}
		round++
	}
	step() // warm-up: rows and buffers come into being
	if n := testing.AllocsPerRun(runs, step); n != 0 {
		t.Errorf("steady-state Note+Report round allocates %v times, want 0", n)
	}
	if tr.Buffered() != 0 || tr.Stable(members[3]) != uint64(round) {
		t.Errorf("after %d rounds: buffered=%d stable=%d, want 0 and %d", round, tr.Buffered(), tr.Stable(members[3]), round)
	}
}

// BenchmarkTrackerFold measures what receiving one cast costs the tracker
// when every member is casting: one Note plus the fold of the sender's
// piggybacked n-entry watermark vector, every entry of which has advanced
// since that member's previous report.
func BenchmarkTrackerFold(b *testing.B) {
	for _, n := range []int{8, 16, 64} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			members := viewOf(n)
			tr := NewTracker(members[0], members, nil)
			// Casts are recycled: the tracker only stores the pointers, and
			// everything is stable (and dropped) within two rounds.
			ring := make([]types.Message, 4*n)
			vec := make([]types.StabEntry, n)
			for i, p := range members {
				vec[i].Sender = p
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				from, seq := i%n, uint64(i/n+1)
				m := &ring[i%len(ring)]
				m.ID = types.MsgID{Sender: members[from], Seq: seq}
				tr.Note(m)
				// The sender holds this round's casts from the members
				// before it and the previous round's from the rest.
				for k := range vec {
					vec[k].Seq = seq
					if k > from {
						vec[k].Seq = seq - 1
					}
				}
				tr.Report(members[from], vec, 0)
			}
			b.StopTimer()
			if tr.Buffered() > 2*n {
				b.Fatalf("%d casts still buffered: stability is not keeping up", tr.Buffered())
			}
		})
	}
}
