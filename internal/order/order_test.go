package order

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/types"
	"repro/internal/vclock"
)

func p(site uint32) types.ProcessID { return types.ProcessID{Site: types.SiteID(site)} }

func cast(sender types.ProcessID, seq uint64) *types.Message {
	return &types.Message{
		Kind:     types.KindCast,
		ID:       types.MsgID{Sender: sender, Seq: seq},
		Ordering: types.FIFO,
		Payload:  []byte{byte(seq)},
	}
}

// --- FIFO --------------------------------------------------------------------

func TestFIFOInOrderDelivery(t *testing.T) {
	f := NewFIFO()
	for i := uint64(1); i <= 5; i++ {
		out := f.Add(cast(p(1), i))
		if len(out) != 1 || out[0].ID.Seq != i {
			t.Fatalf("seq %d: out = %v", i, out)
		}
	}
	if f.Pending() != 0 {
		t.Errorf("Pending = %d", f.Pending())
	}
}

func TestFIFOHoldsBackGaps(t *testing.T) {
	f := NewFIFO()
	if out := f.Add(cast(p(1), 2)); len(out) != 0 {
		t.Fatalf("delivered out of order: %v", out)
	}
	if f.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", f.Pending())
	}
	out := f.Add(cast(p(1), 1))
	if len(out) != 2 || out[0].ID.Seq != 1 || out[1].ID.Seq != 2 {
		t.Fatalf("out = %v", out)
	}
}

func TestFIFODuplicatesIgnored(t *testing.T) {
	f := NewFIFO()
	f.Add(cast(p(1), 1))
	if out := f.Add(cast(p(1), 1)); len(out) != 0 {
		t.Errorf("duplicate delivered: %v", out)
	}
	if f.NextFrom(p(1)) != 2 {
		t.Errorf("NextFrom = %d", f.NextFrom(p(1)))
	}
	if f.NextFrom(p(9)) != 1 {
		t.Errorf("NextFrom(unknown) = %d", f.NextFrom(p(9)))
	}
}

func TestFIFOIndependentSenders(t *testing.T) {
	f := NewFIFO()
	// A gap from p1 must not delay traffic from p2.
	f.Add(cast(p(1), 2))
	out := f.Add(cast(p(2), 1))
	if len(out) != 1 || out[0].ID.Sender != p(2) {
		t.Fatalf("p2 delayed by p1's gap: %v", out)
	}
}

func TestFIFORandomPermutationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		f := NewFIFO()
		const n = 20
		perm := rng.Perm(n)
		var delivered []uint64
		for _, idx := range perm {
			for _, m := range f.Add(cast(p(1), uint64(idx+1))) {
				delivered = append(delivered, m.ID.Seq)
			}
		}
		if len(delivered) != n {
			t.Fatalf("trial %d: delivered %d of %d", trial, len(delivered), n)
		}
		for i, seq := range delivered {
			if seq != uint64(i+1) {
				t.Fatalf("trial %d: position %d has seq %d", trial, i, seq)
			}
		}
	}
}

// --- Causal ------------------------------------------------------------------

func causalCast(sender types.ProcessID, seq uint64, vt vclock.VC) *types.Message {
	m := cast(sender, seq)
	m.Ordering = types.Causal
	m.VT = append([]uint64(nil), vt...)
	return m
}

func TestCausalRespectsDependencies(t *testing.T) {
	members := []types.ProcessID{p(1), p(2), p(3)}
	// Receiver is p3.
	recv := NewCausal(members)

	// p1 sends m1 with VT [1 0 0]; p2 receives it and then sends m2 with
	// VT [1 1 0] (causally after m1). m2 arrives at p3 first.
	m1 := causalCast(p(1), 1, vclock.VC{1, 0, 0})
	m2 := causalCast(p(2), 1, vclock.VC{1, 1, 0})

	if out := recv.Add(m2); len(out) != 0 {
		t.Fatalf("m2 delivered before its dependency: %v", out)
	}
	out := recv.Add(m1)
	if len(out) != 2 || out[0].ID.Sender != p(1) || out[1].ID.Sender != p(2) {
		t.Fatalf("causal delivery order wrong: %v", out)
	}
	if recv.Pending() != 0 {
		t.Errorf("Pending = %d", recv.Pending())
	}
}

// TestCausalDuplicatesDroppedNotHeld: a network duplicate of a delivered
// CBCAST must be rejected at insert, not parked in the holdback queue for
// the rest of the view (the chaos harness's duplication injection surfaced
// the leak: an undeliverable duplicate grew the fixpoint's rescan cost with
// every duplicated cast).
func TestCausalDuplicatesDroppedNotHeld(t *testing.T) {
	members := []types.ProcessID{p(1), p(2)}
	recv := NewCausal(members)

	m1 := causalCast(p(1), 1, vclock.VC{1, 0})
	if out := recv.Add(m1); len(out) != 1 {
		t.Fatalf("original not delivered: %v", out)
	}
	// The duplicate (same VT) must neither deliver again nor stay pending.
	dup := causalCast(p(1), 1, vclock.VC{1, 0})
	if out := recv.Add(dup); len(out) != 0 {
		t.Fatalf("duplicate delivered again: %v", out)
	}
	if recv.Pending() != 0 {
		t.Errorf("duplicate parked in holdback: Pending = %d", recv.Pending())
	}
	// Same through the batch path, interleaved with a fresh message: the
	// duplicate is dropped, the new message delivers.
	m2 := causalCast(p(1), 2, vclock.VC{2, 0})
	out := recv.AddBatch([]*types.Message{causalCast(p(1), 1, vclock.VC{1, 0}), m2})
	if len(out) != 1 || out[0].ID.Seq != 2 {
		t.Fatalf("batch with duplicate delivered %v, want only seq 2", out)
	}
	if recv.Pending() != 0 {
		t.Errorf("Pending = %d after batch duplicate", recv.Pending())
	}
}

func TestCausalConcurrentMessagesDeliverInArrivalOrder(t *testing.T) {
	members := []types.ProcessID{p(1), p(2), p(3)}
	recv := NewCausal(members)
	a := causalCast(p(1), 1, vclock.VC{1, 0, 0})
	b := causalCast(p(2), 1, vclock.VC{0, 1, 0})
	out1 := recv.Add(b)
	out2 := recv.Add(a)
	if len(out1) != 1 || len(out2) != 1 {
		t.Fatalf("concurrent messages held back: %v %v", out1, out2)
	}
}

func TestCausalUnknownSenderDropped(t *testing.T) {
	recv := NewCausal([]types.ProcessID{p(1)})
	out := recv.Add(causalCast(p(9), 1, vclock.VC{1}))
	if len(out) != 0 || recv.Pending() != 0 {
		t.Errorf("unknown sender not dropped: out=%v pending=%d", out, recv.Pending())
	}
}

func TestCausalClockAndRank(t *testing.T) {
	members := []types.ProcessID{p(1), p(2)}
	c := NewCausal(members)
	if c.Rank(p(2)) != 1 || c.Rank(p(9)) != -1 {
		t.Error("Rank wrong")
	}
	c.Add(causalCast(p(1), 1, vclock.VC{1, 0}))
	if c.Delivered(0) != 1 || c.Delivered(1) != 0 || c.Delivered(5) != 0 {
		t.Errorf("Delivered = %d,%d", c.Delivered(0), c.Delivered(1))
	}
	clk := c.Clock()
	clk[0] = 99
	if c.Delivered(0) == 99 {
		t.Error("Clock() aliases internal state")
	}
}

// TestCausalPropertyNoCausalViolation generates a random causally-consistent
// history at three senders and checks that an arbitrary interleaving at a
// receiver never delivers a message before one it causally depends on.
func TestCausalPropertyNoCausalViolation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	members := []types.ProcessID{p(1), p(2), p(3)}
	for trial := 0; trial < 30; trial++ {
		// Build sender-side histories: each sender's clock observes
		// everything delivered so far at that sender (simulated by a global
		// sequential history, which is trivially causally consistent).
		var msgs []*types.Message
		clocks := map[int]vclock.VC{0: vclock.New(3), 1: vclock.New(3), 2: vclock.New(3)}
		seqs := map[int]uint64{}
		global := vclock.New(3)
		for i := 0; i < 15; i++ {
			s := rng.Intn(3)
			// The sender has observed some prefix of the global history.
			clocks[s].Merge(global)
			clocks[s][s]++
			global[s] = clocks[s][s]
			seqs[s]++
			msgs = append(msgs, causalCast(members[s], seqs[s], clocks[s]))
		}
		// Deliver in a random order at the receiver.
		recv := NewCausal(members)
		perm := rng.Perm(len(msgs))
		var delivered []*types.Message
		for _, idx := range perm {
			delivered = append(delivered, recv.Add(msgs[idx])...)
		}
		if len(delivered) != len(msgs) {
			t.Fatalf("trial %d: delivered %d of %d", trial, len(delivered), len(msgs))
		}
		// Check: for every pair delivered[i] before delivered[j], it is not
		// the case that delivered[j] happened-before delivered[i].
		for i := 0; i < len(delivered); i++ {
			for j := i + 1; j < len(delivered); j++ {
				vi := vclock.VC(delivered[i].VT)
				vj := vclock.VC(delivered[j].VT)
				if vj.HappensBefore(vi) {
					t.Fatalf("trial %d: causal violation: %v delivered before %v", trial, delivered[i].ID, delivered[j].ID)
				}
			}
		}
	}
}

// --- Total -------------------------------------------------------------------

func totalCast(sender types.ProcessID, seq uint64) *types.Message {
	m := cast(sender, seq)
	m.Ordering = types.Total
	return m
}

// TestTotalDataThenOrder delivers a cast whose announcement follows its
// data. The agreed slot is the engine's to tell: the delivered envelope,
// which receivers share, is left exactly as it arrived.
func TestTotalDataThenOrder(t *testing.T) {
	e := NewTotal()
	m := totalCast(p(1), 1)
	sent := *m
	if out := e.AddData(m); len(out) != 0 {
		t.Fatalf("delivered without order: %v", out)
	}
	out := e.AddOrder(1, m.ID)
	if len(out) != 1 || out[0] != m {
		t.Fatalf("out = %v", out)
	}
	if got := e.Slot(m.ID); got != 1 {
		t.Errorf("Slot = %d, want 1", got)
	}
	if !reflect.DeepEqual(*m, sent) {
		t.Errorf("delivery wrote the envelope: %+v, sent %+v", *m, sent)
	}
	if got := e.Slot(totalCast(p(2), 1).ID); got != 0 {
		t.Errorf("Slot of an undelivered id = %d, want 0", got)
	}
}

func TestTotalOrderThenData(t *testing.T) {
	e := NewTotal()
	m := totalCast(p(1), 1)
	if out := e.AddOrder(1, m.ID); len(out) != 0 {
		t.Fatalf("delivered without data: %v", out)
	}
	out := e.AddData(m)
	if len(out) != 1 {
		t.Fatalf("out = %v", out)
	}
	if e.NextSeq() != 2 {
		t.Errorf("NextSeq = %d", e.NextSeq())
	}
}

// TestTotalDuplicatesNeverResequencedOrRedelivered pins the duplicate
// hygiene the chaos harness's duplication injection demands of ABCAST: a
// duplicated data message (sequenced or not) and a duplicated order
// announcement must neither deliver twice nor claim a second agreed slot.
func TestTotalDuplicatesNeverResequencedOrRedelivered(t *testing.T) {
	e := NewTotal()
	m := totalCast(p(1), 1)
	e.AddData(m)
	if out := e.AddOrder(1, m.ID); len(out) != 1 {
		t.Fatalf("original not delivered: %v", out)
	}
	if !e.Ordered(m.ID) {
		t.Error("delivered id not reported Ordered (the sequencer would re-sequence its duplicate)")
	}
	// Unsequenced duplicate after delivery: dropped, not re-filed.
	if out := e.AddData(totalCast(p(1), 1)); len(out) != 0 {
		t.Fatalf("duplicate data delivered: %v", out)
	}
	if e.Pending() != 0 {
		t.Errorf("duplicate data parked: Pending = %d", e.Pending())
	}
	// Duplicate order announcement (stale seq): ignored.
	if out := e.AddOrder(1, m.ID); len(out) != 0 {
		t.Fatalf("stale order announcement delivered: %v", out)
	}
	// A duplicate carrying its agreed seq (the sequencer's own cast form).
	dup := totalCast(p(1), 1)
	dup.Seq = 1
	if out := e.Add(dup); len(out) != 0 {
		t.Fatalf("pre-sequenced duplicate delivered: %v", out)
	}
	if e.NextSeq() != 2 || e.Pending() != 0 {
		t.Errorf("engine state disturbed by duplicates: next=%d pending=%d", e.NextSeq(), e.Pending())
	}
}

func TestTotalDeliversInSequenceOrder(t *testing.T) {
	e := NewTotal()
	m1 := totalCast(p(1), 1)
	m2 := totalCast(p(2), 1)
	m3 := totalCast(p(1), 2)
	// Orders: m2 first, then m1, then m3 — data arrives in a different order.
	e.AddData(m1)
	e.AddData(m3)
	if out := e.AddOrder(2, m1.ID); len(out) != 0 {
		t.Fatalf("seq 2 delivered before seq 1: %v", out)
	}
	if out := e.AddOrder(3, m3.ID); len(out) != 0 {
		t.Fatalf("seq 3 delivered before seq 1: %v", out)
	}
	out := e.AddData(m2)
	if len(out) != 0 {
		t.Fatalf("m2 delivered without order: %v", out)
	}
	out = e.AddOrder(1, m2.ID)
	if len(out) != 3 {
		t.Fatalf("out = %v", out)
	}
	if out[0].ID != m2.ID || out[1].ID != m1.ID || out[2].ID != m3.ID {
		t.Errorf("delivery order %v %v %v", out[0].ID, out[1].ID, out[2].ID)
	}
}

func TestTotalSequencerInlineSeq(t *testing.T) {
	e := NewTotal()
	m := totalCast(p(1), 1)
	m.Seq = 1 // sequencer multicast its own message with the seq inline
	out := e.Add(m)
	if len(out) != 1 || out[0].Seq != 1 {
		t.Fatalf("out = %v", out)
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d", e.Pending())
	}
}

func TestTotalStaleOrderIgnored(t *testing.T) {
	e := NewTotal()
	m := totalCast(p(1), 1)
	e.AddData(m)
	e.AddOrder(1, m.ID)
	if out := e.AddOrder(1, types.MsgID{Sender: p(2), Seq: 1}); len(out) != 0 {
		t.Errorf("stale order accepted: %v", out)
	}
}

func TestTotalAllReceiversAgreeProperty(t *testing.T) {
	// One sequencer assigns an order; every receiver, fed data and order
	// messages in different random interleavings, must deliver the same
	// sequence.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		seq := NewSequencer()
		const n = 12
		type pair struct {
			data  *types.Message
			order uint64
		}
		var pairs []pair
		for i := 0; i < n; i++ {
			m := totalCast(p(uint32(1+rng.Intn(3))), uint64(1+i))
			pairs = append(pairs, pair{data: m, order: seq.Assign()})
		}
		if seq.Assigned() != n {
			t.Fatalf("Assigned = %d", seq.Assigned())
		}
		deliverAt := func() []types.MsgID {
			e := NewTotal()
			// Build an event list: one data event and one order event per message.
			type ev struct {
				isOrder bool
				idx     int
			}
			var evs []ev
			for i := range pairs {
				evs = append(evs, ev{false, i}, ev{true, i})
			}
			rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
			var got []types.MsgID
			for _, e2 := range evs {
				var out []*types.Message
				if e2.isOrder {
					out = e.AddOrder(pairs[e2.idx].order, pairs[e2.idx].data.ID)
				} else {
					out = e.AddData(pairs[e2.idx].data.Clone())
				}
				for _, m := range out {
					got = append(got, m.ID)
				}
			}
			return got
		}
		a := deliverAt()
		b := deliverAt()
		if len(a) != n || len(b) != n {
			t.Fatalf("trial %d: incomplete delivery %d %d", trial, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: receivers disagree at %d: %v vs %v", trial, i, a[i], b[i])
			}
		}
	}
}

func TestSortedHelper(t *testing.T) {
	ids := []types.MsgID{
		{Sender: p(2), Seq: 1},
		{Sender: p(1), Seq: 2},
		{Sender: p(1), Seq: 1},
	}
	s := Sorted(ids)
	if s[0] != (types.MsgID{Sender: p(1), Seq: 1}) || s[2] != (types.MsgID{Sender: p(2), Seq: 1}) {
		t.Errorf("Sorted = %v", s)
	}
	if ids[0].Sender != p(2) {
		t.Error("Sorted mutated its input")
	}
}

// --- AddBatch ----------------------------------------------------------------

// batchEquivalence checks AddBatch against per-message Add on two fresh
// engines fed the same stream, in the same chunks.
func batchEquivalence(t *testing.T, mk func() Engine, stream []*types.Message, chunk int) {
	t.Helper()
	single, batched := mk(), mk()
	var wantIDs, gotIDs []types.MsgID
	for i := 0; i < len(stream); i += chunk {
		end := i + chunk
		if end > len(stream) {
			end = len(stream)
		}
		for _, m := range stream[i:end] {
			for _, d := range single.Add(m) {
				wantIDs = append(wantIDs, d.ID)
			}
		}
		for _, d := range batched.AddBatch(stream[i:end]) {
			gotIDs = append(gotIDs, d.ID)
		}
	}
	if len(wantIDs) != len(gotIDs) {
		t.Fatalf("batched released %d messages, per-message Add released %d", len(gotIDs), len(wantIDs))
	}
	for i := range wantIDs {
		if wantIDs[i] != gotIDs[i] {
			t.Fatalf("delivery %d: batched %v, per-message %v", i, gotIDs[i], wantIDs[i])
		}
	}
	if single.Pending() != batched.Pending() {
		t.Fatalf("pending: batched %d, per-message %d", batched.Pending(), single.Pending())
	}
}

func TestFIFOAddBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var stream []*types.Message
	for _, sender := range []types.ProcessID{p(1), p(2), p(3)} {
		for i := uint64(1); i <= 20; i++ {
			stream = append(stream, cast(sender, i))
		}
	}
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	for _, chunk := range []int{1, 3, 7, len(stream)} {
		batchEquivalence(t, func() Engine { return NewFIFO() }, stream, chunk)
	}
}

func TestFIFOAddBatchReleasesGapFillInOnePass(t *testing.T) {
	f := NewFIFO()
	// Batch [3 1 2] must release 1,2,3 from a single AddBatch call.
	out := f.AddBatch([]*types.Message{cast(p(1), 3), cast(p(1), 1), cast(p(1), 2)})
	if len(out) != 3 {
		t.Fatalf("released %d, want 3", len(out))
	}
	for i, m := range out {
		if m.ID.Seq != uint64(i+1) {
			t.Fatalf("out[%d].Seq = %d", i, m.ID.Seq)
		}
	}
	if f.Pending() != 0 {
		t.Errorf("pending = %d", f.Pending())
	}
}

func TestCausalAddBatchEquivalence(t *testing.T) {
	members := []types.ProcessID{p(1), p(2), p(3)}
	// Build a causally consistent stream: each sender's k'th message depends
	// on everything the sender had delivered at send time. Simulate three
	// sender replicas feeding one receiver out of order.
	senders := map[types.ProcessID]*Causal{}
	for _, m := range members {
		senders[m] = NewCausal(members)
	}
	var stream []*types.Message
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		who := members[rng.Intn(len(members))]
		eng := senders[who]
		rank := eng.Rank(who)
		vt := eng.Clock().Tick(rank)
		msg := &types.Message{
			Kind:     types.KindCast,
			ID:       types.MsgID{Sender: who, Seq: uint64(vt[rank])},
			Ordering: types.Causal,
			VT:       vt,
		}
		// The sender delivers its own message immediately; other replicas
		// receive a copy in a deterministic gossip order.
		for _, m := range members {
			senders[m].Add(msg)
		}
		stream = append(stream, msg)
	}
	// Mild reordering that respects nothing: the engine must hold back.
	rng.Shuffle(len(stream), func(i, j int) {
		if rng.Intn(3) == 0 {
			stream[i], stream[j] = stream[j], stream[i]
		}
	})
	for _, chunk := range []int{1, 5, len(stream)} {
		batchEquivalence(t, func() Engine { return NewCausal(members) }, stream, chunk)
	}
}

func TestTotalAddBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var stream []*types.Message
	seq := NewSequencer()
	for i := uint64(1); i <= 40; i++ {
		stream = append(stream, &types.Message{
			Kind:     types.KindCast,
			ID:       types.MsgID{Sender: p(1 + uint32(i%4)), Seq: i},
			Ordering: types.Total,
			Seq:      seq.Assign(),
		})
	}
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	for _, chunk := range []int{1, 4, len(stream)} {
		batchEquivalence(t, func() Engine { return NewTotal() }, stream, chunk)
	}
}

// --- stability-bounded memory -------------------------------------------------

// TestTotalStableWatermarkBoundsMemory pins the O(unstable) memory claim:
// with SetStable tracking the delivered prefix, the engine's duplicate-
// suppression state (done map and binding log) never grows past the
// unstable window, no matter how many messages a view delivers.
func TestTotalStableWatermarkBoundsMemory(t *testing.T) {
	tot := NewTotal()
	const total = 5000
	const window = 64 // stability lag: watermark trails delivery by this much
	maxDone, maxLog := 0, 0
	for i := uint64(1); i <= total; i++ {
		m := cast(p(1), i)
		m.Ordering = types.Total
		m.Seq = i // sequencer-stamped
		out := tot.Add(m)
		if len(out) != 1 || out[0].Seq != i {
			t.Fatalf("slot %d: delivered %d messages", i, len(out))
		}
		if i > window {
			tot.SetStable(i - window)
		}
		done, log := tot.Retained()
		if done > maxDone {
			maxDone = done
		}
		if log > maxLog {
			maxLog = log
		}
	}
	if maxDone > window+1 || maxLog > window+1 {
		t.Errorf("retained state grew past the stability window: done=%d log=%d window=%d", maxDone, maxLog, window)
	}
	// Without SetStable the same run retains everything (the quantity the
	// watermark exists to bound).
	un := NewTotal()
	for i := uint64(1); i <= total; i++ {
		m := cast(p(1), i)
		m.Ordering = types.Total
		m.Seq = i
		un.Add(m)
	}
	if done, log := un.Retained(); done != total || log != total {
		t.Errorf("unpruned engine retained done=%d log=%d, want %d", done, log, total)
	}
}

// TestTotalBindingsServeRetainedHistory pins the order-NAK answer source:
// Bindings(from) must cover delivered history above the stability watermark
// plus every undelivered announcement, in slot order.
func TestTotalBindingsServeRetainedHistory(t *testing.T) {
	tot := NewTotal()
	for i := uint64(1); i <= 10; i++ {
		m := cast(p(1), i)
		m.Ordering = types.Total
		m.Seq = i
		tot.Add(m)
	}
	tot.SetStable(4)
	tot.AddOrder(12, types.MsgID{Sender: p(2), Seq: 1}) // undelivered binding
	bs := tot.Bindings(6)
	want := []uint64{7, 8, 9, 10, 12}
	if len(bs) != len(want) {
		t.Fatalf("Bindings(6) = %v, want slots %v", bs, want)
	}
	for i, b := range bs {
		if b.Seq != want[i] {
			t.Fatalf("Bindings(6)[%d].Seq = %d, want %d", i, b.Seq, want[i])
		}
	}
	if got := len(tot.Bindings(0)); got != 6+1 {
		t.Errorf("Bindings(0) returned %d entries, want 7 (log 5..10 plus slot 12)", got)
	}
}

// TestTotalSequencedDataFillsWaitingBinding is the regression test for the
// failover interaction found by the chaos harness: a binding can reach a
// member before the (sequencer-stamped, Seq != 0) data does — via a
// failover re-announcement or an order-NAK answer — and the data copy must
// then fill the waiting slot rather than be discarded as a duplicate.
func TestTotalSequencedDataFillsWaitingBinding(t *testing.T) {
	tot := NewTotal()
	id := types.MsgID{Sender: p(1), Seq: 1}
	if out := tot.AddOrder(1, id); len(out) != 0 {
		t.Fatalf("binding alone delivered %d messages", len(out))
	}
	m := cast(p(1), 1)
	m.Ordering = types.Total
	m.Seq = 1 // the sequencer's own cast carries its slot
	out := tot.Add(m)
	if len(out) != 1 || out[0].ID != id {
		t.Fatalf("sequencer-stamped data after its binding did not deliver: %v", out)
	}
	// And a further copy is still a duplicate.
	if out := tot.Add(m.Clone()); len(out) != 0 {
		t.Fatalf("duplicate copy delivered %d messages", len(out))
	}
}

// TestTotalUnorderedIDs pins the failover input: ids with data but no slot.
func TestTotalUnorderedIDs(t *testing.T) {
	tot := NewTotal()
	a := cast(p(2), 1)
	a.Ordering = types.Total
	tot.Add(a)
	b := cast(p(1), 1)
	b.Ordering = types.Total
	b.Seq = 1
	tot.Add(b) // bound and delivered
	ids := tot.UnorderedIDs()
	if len(ids) != 1 || ids[0] != a.ID {
		t.Fatalf("UnorderedIDs = %v, want [%v]", ids, a.ID)
	}
}

// TestReleaseBufferReusedAndCleared pins the Engine result contract: every
// engine releases into one buffer of its own, reused by its next call — so a
// caller must not call back into an engine while iterating its result —
// and that next call drops the previous result's pointers before releasing
// anything, so a quiet engine pins no delivered message.
func TestReleaseBufferReusedAndCleared(t *testing.T) {
	members := []types.ProcessID{p(1), p(2)}
	fifo, causal, total := NewFIFO(), NewCausal(members), NewTotal()
	for _, c := range []struct {
		name  string
		buf   *[]*types.Message
		first func() []*types.Message // releases one message
		quiet func() []*types.Message // releases nothing
		next  func() []*types.Message // releases one message
	}{
		{"fifo", &fifo.out,
			func() []*types.Message { return fifo.Add(cast(p(1), 1)) },
			func() []*types.Message { return fifo.AddBatch([]*types.Message{cast(p(1), 3)}) },
			func() []*types.Message { return fifo.Add(cast(p(2), 1)) }},
		{"causal", &causal.out,
			func() []*types.Message { return causal.Add(causalCast(p(1), 1, vclock.VC{1, 0})) },
			func() []*types.Message { return causal.Add(causalCast(p(1), 3, vclock.VC{3, 0})) },
			func() []*types.Message {
				return causal.AddBatch([]*types.Message{causalCast(p(2), 1, vclock.VC{1, 1})})
			}},
		{"total", &total.out,
			func() []*types.Message { return total.Add(withSeq(totalCast(p(1), 1), 1)) },
			func() []*types.Message { return total.AddData(totalCast(p(1), 2)) },
			func() []*types.Message { return total.AddOrder(2, types.MsgID{Sender: p(1), Seq: 2}) }},
	} {
		first := c.first()
		if len(first) != 1 {
			t.Fatalf("%s: first call released %d, want 1", c.name, len(first))
		}
		if out := c.quiet(); len(out) != 0 {
			t.Fatalf("%s: quiet call released %d, want 0", c.name, len(out))
		}
		if first[0] != nil {
			t.Errorf("%s: a call that released nothing left the previous result's message pinned", c.name)
		}
		for _, m := range (*c.buf)[:cap(*c.buf)] {
			if m != nil {
				t.Errorf("%s: the release buffer pins %v after a quiet call", c.name, m.ID)
			}
		}
		next := c.next()
		if len(next) != 1 || &next[0] != &first[0] {
			t.Errorf("%s: the next release got a new buffer, want the engine's own one reused", c.name)
		}
	}
}

func withSeq(m *types.Message, seq uint64) *types.Message {
	m.Seq = seq
	return m
}

// TestTotalSetStableCompactsInPlace drives 10 000 deliver/prune cycles with a
// stability watermark that trails delivery by a random lag of at most
// window slots: the binding log's capacity must settle near the widest
// window instead of following the slots delivered, Bindings must answer as
// a plain model of the retained history does, and pruning must allocate
// nothing.
func TestTotalSetStableCompactsInPlace(t *testing.T) {
	const cycles, window = 10000, 48
	rng := rand.New(rand.NewSource(7))
	tot := NewTotal()
	var model []types.SeqBinding // delivered bindings above the watermark
	stable := uint64(0)
	maxCap := 0
	for i := uint64(1); i <= cycles; i++ {
		m := withSeq(totalCast(p(1+uint32(i%3)), i), i)
		if out := tot.Add(m); len(out) != 1 || out[0] != m {
			t.Fatalf("slot %d: released %d messages", i, len(out))
		}
		model = append(model, types.SeqBinding{Seq: i, ID: m.ID})
		if lag := uint64(rng.Intn(window + 1)); i > lag && i-lag > stable {
			stable = i - lag
			tot.SetStable(stable)
			model = model[stable-model[0].Seq+1:]
		}
		maxCap = max(maxCap, cap(tot.log))
		if i%97 == 0 {
			from := stable + uint64(rng.Intn(window+2))
			var want []types.SeqBinding
			for _, b := range model {
				if b.Seq > from {
					want = append(want, b)
				}
			}
			if got := tot.Bindings(from); !reflect.DeepEqual(got, want) {
				t.Fatalf("cycle %d: Bindings(%d) = %v, want %v", i, from, got, want)
			}
		}
	}
	if maxCap > 4*(window+1) {
		t.Errorf("binding log capacity reached %d over a window of %d slots", maxCap, window)
	}

	// Pruning one slot at a time out of a long retained history allocates
	// nothing.
	tot = NewTotal()
	for i := uint64(1); i <= 2000; i++ {
		tot.Add(withSeq(totalCast(p(1), i), i))
	}
	stable = 0
	if a := testing.AllocsPerRun(1000, func() {
		stable++
		tot.SetStable(stable)
	}); a != 0 {
		t.Errorf("SetStable allocates %.1f objects per prune, want 0", a)
	}
}

// BenchmarkTotalDeliverPrune is one sequenced ABCAST delivered and the
// stability watermark advanced behind it by a 64-slot lag: the steady state
// of a member's total-order engine.
func BenchmarkTotalDeliverPrune(b *testing.B) {
	const window = 64
	tot := NewTotal()
	b.ReportAllocs()
	for i := uint64(1); i <= uint64(b.N); i++ {
		tot.Add(withSeq(totalCast(p(1), i), i))
		if i > window {
			tot.SetStable(i - window)
		}
	}
}
