package group

import (
	"slices"
	"testing"
	"time"

	"repro/internal/member"
	"repro/internal/reliability"
	"repro/internal/types"
)

// These tests drive the recovery tick by hand on a rig member (its timer is
// parked) and check which repairs it asks for: a NAK fires on a stalled
// prefix, never on traffic that is merely still in flight.

// sentKind returns the recorded messages of one kind, in send order.
func (r *recorder) sentKind(kind types.Kind) []*types.Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*types.Message
	for _, m := range r.sent {
		if m.Kind == kind {
			out = append(out, m)
		}
	}
	return out
}

// TestLoadedAbcastSendsNoOrderNak: a member with ABCASTs in flight at every
// tick — each tick finds its latest cast waiting for its announcement — sends
// no order NAK while its delivered prefix keeps moving. Once an announcement
// goes missing and the prefix stalls, the NAK still goes out, and its answer
// delivers the cast.
func TestLoadedAbcastSendsNoOrderNak(t *testing.T) {
	p1, p2, p3 := tpid(1), tpid(2), tpid(3)
	r := newRigView(t, Config{}, p2, p1, p3) // p2 sequences
	const rounds = 20
	announce := func(seq uint64) {
		r.g.onOrder(&types.Message{
			Kind: types.KindOrder, From: p2, Group: r.g.id, View: 2,
			ID: types.MsgID{Sender: p1, Seq: seq}, Seq: seq,
		})
	}
	for i := uint64(1); i <= rounds; i++ {
		r.do(func() {
			r.g.castOnActor(types.Total, []byte{byte(i)}, 0, nil)
			if i > 1 {
				announce(i - 1)
			}
			r.g.onRecoveryTick()
		})
	}
	if naks := r.net.sentKind(types.KindNakOrder); len(naks) != 0 {
		t.Fatalf("%d order NAKs with the delivered prefix moving every tick, want 0", len(naks))
	}
	// The last cast's announcement is lost: the prefix stalls.
	var delivered uint64
	r.do(func() {
		for k := 0; k <= r.g.cfg.Reliability.NakTicks; k++ {
			r.g.onRecoveryTick()
		}
	})
	naks := r.net.sentKind(types.KindNakOrder)
	if len(naks) != 1 {
		t.Fatalf("%d order NAKs after the prefix stalled for %d ticks, want 1", len(naks), r.g.cfg.Reliability.NakTicks+1)
	}
	if from, _, _ := types.DecodeUint64(naks[0].Payload); from != rounds-1 {
		t.Errorf("order NAK asks for bindings above slot %d, want above %d", from, rounds-1)
	}
	r.do(func() {
		announce(rounds) // the answer
		delivered = r.g.total.NextSeq() - 1
	})
	if delivered != rounds {
		t.Errorf("delivered %d casts after the answer, want %d", delivered, rounds)
	}
}

// TestStalledOrderNakBacksOff: the sequencer's announcement of the member's
// own ABCAST is held back for 20 ticks, stalling the delivered prefix. The
// order NAK goes out once the stall has outlived NakTicks ticks and then at
// stall ages +2, +4, +8, +16 — 5 NAKs, where one per stalled tick sent 18 —
// and the announcement, once it lands, still delivers the cast.
func TestStalledOrderNakBacksOff(t *testing.T) {
	const ticks = 20
	p1, p2, p3 := tpid(1), tpid(2), tpid(3)
	r := newRigView(t, Config{}, p2, p1, p3) // p2 sequences
	r.do(func() {
		r.g.castOnActor(types.Total, []byte("x"), 0, nil)
		for k := 0; k < ticks; k++ {
			r.g.onRecoveryTick()
		}
	})
	if naks := len(r.net.sentKind(types.KindNakOrder)); naks == 0 || naks > 5 {
		t.Fatalf("%d order NAKs in %d ticks of a stalled prefix, want 1 to 5", naks, ticks)
	}
	var delivered uint64
	r.do(func() {
		r.g.onOrder(&types.Message{
			Kind: types.KindOrder, From: p2, Group: r.g.id, View: 2,
			ID: types.MsgID{Sender: p1, Seq: 1}, Seq: 1,
		})
		delivered = r.g.total.NextSeq() - 1
	})
	if delivered != 1 {
		t.Errorf("delivered %d casts after the announcement, want 1", delivered)
	}
}

// TestReportAheadOfCastsCausesNoNak: a sender's report can overtake the
// casts it covers — a relayed cast travels through the sequencer while the
// report comes straight — so every tick finds a gap behind it. While the
// casts keep filling it, the gap does not age and no NAK goes out; a cast
// that is really lost stalls the watermark and is NAKed once the stall has
// outlived NakTicks ticks.
func TestReportAheadOfCastsCausesNoNak(t *testing.T) {
	const nakTicks = 2
	r := newRig(t, Config{Reliability: reliability.Config{NakTicks: nakTicks}})
	p2 := tpid(2)
	report := func(own uint64) *types.Message {
		return &types.Message{
			Kind: types.KindStability, From: p2, Group: r.g.id, View: 2,
			ID: types.MsgID{Sender: p2, Seq: own}, StabOrd: 1,
		}
	}
	cast := func(seq uint64) *types.Message {
		return &types.Message{
			Kind: types.KindCast, From: p2, Group: r.g.id, View: 2,
			ID: types.MsgID{Sender: p2, Seq: seq}, Ordering: types.FIFO, Payload: []byte{byte(seq)},
		}
	}
	const rounds, ahead = 20, 3
	var gaps int
	for i := uint64(1); i <= rounds; i++ {
		r.do(func() {
			r.g.onStability(report(i + ahead))
			r.g.onCastBatch([]*types.Message{cast(i)}, false)
			if len(r.g.rel.Missing()) > 0 {
				gaps++
			}
			r.g.onRecoveryTick()
		})
	}
	if gaps != rounds {
		t.Fatalf("%d of %d ticks found a gap; the reports did not run ahead", gaps, rounds)
	}
	if naks := r.net.sentKind(types.KindNak); len(naks) != 0 {
		t.Fatalf("%d NAKs while the casts kept filling the gap, want 0", len(naks))
	}

	// Cast rounds+1 is lost; the two after it arrive.
	r.do(func() {
		r.g.onCastBatch([]*types.Message{cast(rounds + 2)}, false)
		r.g.onCastBatch([]*types.Message{cast(rounds + 3)}, false)
	})
	for k := 1; k <= nakTicks+1; k++ {
		r.do(func() { r.g.onRecoveryTick() })
		naks := r.net.sentKind(types.KindNak)
		if k <= nakTicks && len(naks) != 0 {
			t.Fatalf("NAK after %d stalled ticks, want none before %d", k, nakTicks+1)
		}
		if k == nakTicks+1 {
			if len(naks) != 1 {
				t.Fatalf("%d NAKs after %d stalled ticks, want 1", len(naks), k)
			}
			ranges, _ := reliability.DecodeNak(naks[0].Payload)
			if want := []reliability.SeqRange{{Sender: p2, Lo: rounds + 1, Hi: rounds + 1}}; !slices.Equal(ranges, want) {
				t.Errorf("NAK asks for %v, want %v", ranges, want)
			}
		}
	}
}

// TestSlowRetransmissionsBackOff: p2 loses one cast in four for 25 ticks and
// its retransmissions take 3 ticks to come back. Each stalled gap is NAKed
// once its age passes NakTicks and then at ages +2, +4, +8, …, not on every
// tick until the answer lands. With a NAK on every stalled tick the same run
// sent 26 NAKs; with the backoff it sends 17. Every cast is still delivered.
func TestSlowRetransmissionsBackOff(t *testing.T) {
	const (
		ticks   = 25
		perTick = 2
		delay   = 3
	)
	r := newRig(t, Config{})
	p2 := tpid(2)
	cast := func(seq uint64) *types.Message {
		return &types.Message{
			Kind: types.KindCast, From: p2, Group: r.g.id, View: 2,
			ID: types.MsgID{Sender: p2, Seq: seq}, Ordering: types.FIFO, Payload: []byte{byte(seq)},
		}
	}
	answers := map[int][]reliability.SeqRange{} // tick -> ranges retransmitted then
	seen := 0
	var seq uint64
	for k := 1; k <= ticks+8; k++ {
		r.do(func() {
			for _, rg := range answers[k] {
				for s := rg.Lo; s <= rg.Hi; s++ {
					r.g.onCastBatch([]*types.Message{cast(s)}, false)
				}
			}
			for i := 0; k <= ticks && i < perTick; i++ {
				seq++
				if seq%4 != 0 {
					r.g.onCastBatch([]*types.Message{cast(seq)}, false)
				}
			}
			r.g.onRecoveryTick()
		})
		naks := r.net.sentKind(types.KindNak)
		for _, m := range naks[seen:] {
			ranges, ok := reliability.DecodeNak(m.Payload)
			if !ok {
				t.Fatal("undecodable NAK")
			}
			answers[k+delay] = append(answers[k+delay], ranges...)
		}
		seen = len(naks)
	}
	var ctg uint64
	r.do(func() { ctg = r.g.rel.Ctg(p2) })
	if ctg != seq {
		t.Fatalf("delivered p2's casts up to %d of %d", ctg, seq)
	}
	if seen > 17 {
		t.Fatalf("%d NAKs for %d lost casts answered %d ticks late, want at most 17 (26 without backoff)", seen, seq/4, delay)
	}
}

// TestPendingInstallNaksBackOff: a pending install whose cut names casts
// that never arrive NAKs them on its ticks 1, 2, 4 and 8 — 4 NAKs in 10
// ticks, where one per tick sent 10.
func TestPendingInstallNaksBackOff(t *testing.T) {
	r := newRig(t, Config{InstallGrace: time.Hour})
	p2 := tpid(2)
	var naksAt []int
	for k := 1; k <= 10; k++ {
		r.do(func() {
			if k == 1 {
				v := member.NewView(r.g.id, 3, []types.ProcessID{tpid(1), p2, tpid(3)})
				r.g.holdOrInstall(v, map[types.ProcessID]uint64{p2: 3}, 0)
			}
			r.g.onRecoveryTick()
		})
		if n := len(r.net.sentKind(types.KindNak)); n > len(naksAt) {
			naksAt = append(naksAt, k)
		}
	}
	if !slices.Equal(naksAt, []int{1, 2, 4, 8}) {
		t.Fatalf("pending-install NAKs at ticks %v, want [1 2 4 8]", naksAt)
	}
}
