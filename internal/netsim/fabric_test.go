package netsim

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/types"
)

func pid(site uint32) types.ProcessID { return types.ProcessID{Site: types.SiteID(site)} }

func msg(from, to types.ProcessID, kind types.Kind) *types.Message {
	return &types.Message{Kind: kind, From: from, To: to, Payload: []byte("payload")}
}

func recvOne(t *testing.T, ch <-chan []*types.Message) *types.Message {
	t.Helper()
	select {
	case frame := <-ch:
		if len(frame) != 1 {
			t.Fatalf("expected a frame of one message, got %d", len(frame))
		}
		return frame[0]
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for a message")
		return nil
	}
}

func recvFrame(t *testing.T, ch <-chan []*types.Message) []*types.Message {
	t.Helper()
	select {
	case frame := <-ch:
		return frame
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for a frame")
		return nil
	}
}

func TestAttachSendDeliver(t *testing.T) {
	f := New(DefaultConfig())
	a, b := pid(1), pid(2)
	if _, err := f.Attach(a); err != nil {
		t.Fatal(err)
	}
	chB, err := f.Attach(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Send(msg(a, b, types.KindCast)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got := recvOne(t, chB)
	if got.From != a || got.Kind != types.KindCast {
		t.Errorf("delivered %v", got)
	}
	st := f.Stats()
	if st.MessagesSent != 1 || st.MessagesDelivered != 1 || st.MessagesDropped != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.PerKind[types.KindCast] != 1 {
		t.Errorf("per-kind = %v", st.PerKind)
	}
	if st.BytesSent == 0 {
		t.Error("BytesSent not accounted")
	}
}

func TestDoubleAttachRejected(t *testing.T) {
	f := New(DefaultConfig())
	a := pid(1)
	if _, err := f.Attach(a); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Attach(a); !errors.Is(err, types.ErrRejected) {
		t.Errorf("second Attach err = %v, want ErrRejected", err)
	}
}

func TestSendToUnknownAndCrashed(t *testing.T) {
	f := New(DefaultConfig())
	a, b := pid(1), pid(2)
	if _, err := f.Attach(a); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(msg(a, b, types.KindCast)); !errors.Is(err, types.ErrNoSuchProcess) {
		t.Errorf("unknown dest err = %v", err)
	}
	if _, err := f.Attach(b); err != nil {
		t.Fatal(err)
	}
	f.Crash(b)
	if !f.Crashed(b) {
		t.Error("Crashed(b) = false after Crash")
	}
	if err := f.Send(msg(a, b, types.KindCast)); !errors.Is(err, types.ErrCrashed) {
		t.Errorf("crashed dest err = %v", err)
	}
	st := f.Stats()
	if st.MessagesDropped != 2 {
		t.Errorf("MessagesDropped = %d, want 2", st.MessagesDropped)
	}
}

func TestPartitionBlocksTrafficAndHeals(t *testing.T) {
	f := New(DefaultConfig())
	a, b := pid(1), pid(2)
	_, _ = f.Attach(a)
	chB, _ := f.Attach(b)
	f.SetPartition(b, 1)
	if err := f.Send(msg(a, b, types.KindCast)); !errors.Is(err, types.ErrPartitioned) {
		t.Errorf("partitioned err = %v", err)
	}
	f.HealPartitions()
	if err := f.Send(msg(a, b, types.KindCast)); err != nil {
		t.Errorf("after heal: %v", err)
	}
	recvOne(t, chB)
}

func TestLossRateDropsSilently(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LossRate = 1.0
	f := New(cfg)
	a, b := pid(1), pid(2)
	_, _ = f.Attach(a)
	chB, _ := f.Attach(b)
	if err := f.Send(msg(a, b, types.KindCast)); err != nil {
		t.Errorf("lossy send returned error %v (should be silent like UDP)", err)
	}
	select {
	case fr := <-chB:
		t.Errorf("frame delivered despite 100%% loss: %v", fr)
	case <-time.After(20 * time.Millisecond):
	}
	if st := f.Stats(); st.MessagesDropped != 1 {
		t.Errorf("MessagesDropped = %d", st.MessagesDropped)
	}
}

func TestDropRuleAndRemoval(t *testing.T) {
	f := New(DefaultConfig())
	a, b := pid(1), pid(2)
	_, _ = f.Attach(a)
	chB, _ := f.Attach(b)
	remove := f.AddDropRule(func(p Packet) bool { return p.Msg.Kind == types.KindViewInstall })

	_ = f.Send(msg(a, b, types.KindViewInstall))
	select {
	case <-chB:
		t.Fatal("drop rule did not drop the message")
	case <-time.After(20 * time.Millisecond):
	}

	remove()
	_ = f.Send(msg(a, b, types.KindViewInstall))
	recvOne(t, chB)
}

func TestLatencyDelaysDelivery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BaseLatency = 30 * time.Millisecond
	f := New(cfg)
	a, b := pid(1), pid(2)
	_, _ = f.Attach(a)
	chB, _ := f.Attach(b)
	start := time.Now()
	_ = f.Send(msg(a, b, types.KindCast))
	recvOne(t, chB)
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Errorf("delivery took %v, expected ~30ms latency", elapsed)
	}
}

// TestCloneOnDeliver pins what the fabric copies per receiver: the envelope
// always, the arrays only for kinds off the multicast data path. A data-path
// message's arrays are frozen by its sender and shared with the receiver.
func TestCloneOnDeliver(t *testing.T) {
	f := New(DefaultConfig())
	a, b := pid(1), pid(2)
	_, _ = f.Attach(a)
	chB, _ := f.Attach(b)
	for _, kind := range []types.Kind{types.KindCast, types.KindOrder, types.KindStability, types.KindRequest, types.KindViewInstall} {
		m := arrayMsg(a, b, kind)
		_ = f.Send(m)
		m.Seq = 99 // the sender's envelope is its own again once Send returns
		got := recvOne(t, chB)
		if got == m || got.Seq != 7 {
			t.Fatalf("%s: envelope not copied (seq %d)", kind, got.Seq)
		}
		got.To = a
		if m.To != b {
			t.Fatalf("%s: receiver envelope write visible to sender", kind)
		}
		if shared := sharesArrays(t, m, got); shared != dataPathKind(kind) {
			t.Errorf("%s: arrays shared = %v, want %v", kind, shared, dataPathKind(kind))
		}
		if !dataPathKind(kind) {
			got.Payload[0] = 'X'
			if m.Payload[0] == 'X' {
				t.Errorf("%s: receiver payload write visible to sender", kind)
			}
		}
	}
}

// TestFrozenEnvelopeShared pins the whole-envelope contract of the data
// path. A data-path envelope stamped from a frozen message — every one the
// node outbox sends — reaches every receiver as that frozen message itself,
// duplicated and late (reordered) deliveries included, with To unset. A
// data-path message sent without the link, and a message of any other
// kind, still gets an envelope of its own; Clone drops the link.
func TestFrozenEnvelopeShared(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 33
	cfg.DupRate, cfg.ReorderRate, cfg.ReorderDelay = 0.3, 0.3, time.Millisecond
	f := New(cfg)
	a := pid(1)
	_, _ = f.Attach(a)
	dests := []types.ProcessID{pid(2), pid(3), pid(4)}
	inbox := map[types.ProcessID]<-chan []*types.Message{}
	for _, d := range dests {
		inbox[d], _ = f.Attach(d)
	}

	var frozen []*types.Message
	for _, kind := range []types.Kind{types.KindCast, types.KindOrder, types.KindStability} {
		for i := 0; i < 8; i++ {
			m := arrayMsg(a, types.NilProcess, kind)
			m.ID = types.MsgID{Sender: a, Seq: uint64(len(frozen) + 1)}
			frozen = append(frozen, m)
		}
	}
	sent := make([]types.Message, len(frozen))
	for i, m := range frozen {
		sent[i] = *m
	}
	// Every destination's frame is stamped into the same scratch, as the
	// outbox's pooled frame buffer is, and scribbled once SendBatch returns.
	envs := make([]types.Message, len(frozen))
	frame := make([]*types.Message, len(frozen))
	for _, d := range dests {
		for i, m := range frozen {
			m.Stamp(&envs[i], d)
			if envs[i].To != d || envs[i].Frozen() != m {
				t.Fatalf("stamp to %v: To %v, linked to %p, want %p", d, envs[i].To, envs[i].Frozen(), m)
			}
			frame[i] = &envs[i]
		}
		if err := f.SendBatch(frame); err != nil {
			t.Fatal(err)
		}
		for i := range envs {
			envs[i] = types.Message{Kind: types.KindHeartbeat, Seq: 66}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := f.Stats()
		if st.MessagesDelivered == st.MessagesSent+st.MessagesDuplicated {
			if st.MessagesDuplicated == 0 || st.MessagesReordered == 0 {
				t.Fatalf("seed injected %d duplicates and %d reorders; want both", st.MessagesDuplicated, st.MessagesReordered)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d", st.MessagesDelivered, st.MessagesSent+st.MessagesDuplicated)
		}
		time.Sleep(time.Millisecond)
	}
	index := map[*types.Message]int{}
	for i, m := range frozen {
		index[m] = i
	}
	twice := 0
	for _, d := range dests {
		got := make([]int, len(frozen))
		for drained := false; !drained; {
			select {
			case fr := <-inbox[d]:
				for _, m := range fr {
					i, ok := index[m]
					if !ok {
						t.Fatalf("%v got a private %s envelope %p, want a frozen one", d, m.Kind, m)
					}
					got[i]++
				}
			default:
				drained = true
			}
		}
		for i, n := range got {
			if n == 0 {
				t.Errorf("%v never got frozen message %d", d, i)
			}
			if n > 1 {
				twice++
			}
		}
	}
	if twice == 0 {
		t.Error("no duplicate delivery reached a receiver")
	}
	for i, m := range frozen {
		if !reflect.DeepEqual(*m, sent[i]) {
			t.Fatalf("frozen message %d changed in flight: %+v, sent %+v", i, *m, sent[i])
		}
	}

	// Without the link, or off the data path, the receiver's envelope is
	// its own — and its arrays too, off the data path.
	f.SetDuplication(0)
	f.SetReordering(0, 0)
	shared, unlinked := frozen[0], arrayMsg(a, pid(2), types.KindCast)
	request := arrayMsg(a, types.NilProcess, types.KindRequest)
	var sharedEnv, requestEnv types.Message
	shared.Stamp(&sharedEnv, pid(2))
	request.Stamp(&requestEnv, pid(2))
	cloned := sharedEnv.Clone()
	if cloned.Frozen() != nil {
		t.Fatal("Clone kept the link to the frozen message")
	}
	if err := f.SendBatch([]*types.Message{&sharedEnv, unlinked, &requestEnv, cloned}); err != nil {
		t.Fatal(err)
	}
	got := recvFrame(t, inbox[pid(2)])
	if len(got) != 4 {
		t.Fatalf("frame of %d, want 4", len(got))
	}
	if got[0] != shared {
		t.Error("a stamped cast between private envelopes lost its sharing")
	}
	for i, src := range []*types.Message{unlinked, request, cloned} {
		m := got[i+1]
		if m == src || m == shared || m == request {
			t.Errorf("%s #%d: envelope not private", m.Kind, i+1)
		}
		if sharesArrays(t, src, m) != dataPathKind(m.Kind) {
			t.Errorf("%s #%d: arrays shared = %v", m.Kind, i+1, !dataPathKind(m.Kind))
		}
	}
}

// arrayMsg is a message carrying every array the fabric could copy.
func arrayMsg(from, to types.ProcessID, kind types.Kind) *types.Message {
	return &types.Message{
		Kind: kind, From: from, To: to, Seq: 7,
		Group:   types.GroupID{Name: "g", Kind: types.KindLeaf, Path: []uint32{1, 2}},
		VT:      []uint64{1, 2, 3},
		Path:    []uint32{4},
		Payload: []byte("payload"),
		Stab:    []types.StabEntry{{Sender: from, Seq: 3}},
	}
}

// sharesArrays reports whether every array of got is the one m carries,
// failing the test on a mix (some shared, some copied).
func sharesArrays(t *testing.T, m, got *types.Message) bool {
	t.Helper()
	same := []bool{
		&m.VT[0] == &got.VT[0],
		&m.Path[0] == &got.Path[0],
		&m.Payload[0] == &got.Payload[0],
		&m.Stab[0] == &got.Stab[0],
		&m.Group.Path[0] == &got.Group.Path[0],
	}
	for _, s := range same[1:] {
		if s != same[0] {
			t.Fatalf("%s: arrays partly shared: %v", m.Kind, same)
		}
	}
	return same[0]
}

func TestFanoutAndDistinctCounters(t *testing.T) {
	f := New(DefaultConfig())
	a, b, c := pid(1), pid(2), pid(3)
	_, _ = f.Attach(a)
	chB, _ := f.Attach(b)
	chC, _ := f.Attach(c)
	_ = f.Send(msg(a, b, types.KindCast))
	_ = f.Send(msg(a, c, types.KindCast))
	_ = f.Send(msg(a, c, types.KindCast))
	recvOne(t, chB)
	recvOne(t, chC)
	recvOne(t, chC)

	if got := f.MaxFanout(); got != 2 {
		t.Errorf("MaxFanout = %d, want 2", got)
	}
	if got := f.FanoutOf(a); got != 2 {
		t.Errorf("FanoutOf(a) = %d, want 2", got)
	}
	if got := f.FanoutOf(b); got != 0 {
		t.Errorf("FanoutOf(b) = %d, want 0", got)
	}
	if got := f.DistinctReceivers(); got != 2 {
		t.Errorf("DistinctReceivers = %d, want 2", got)
	}
	if got := f.DistinctSenders(); got != 1 {
		t.Errorf("DistinctSenders = %d, want 1", got)
	}
	f.ResetStats()
	if f.MaxFanout() != 0 || f.DistinctReceivers() != 0 {
		t.Error("ResetStats did not clear fanout/receiver tracking")
	}
}

func TestWatchTapSeesEveryAttempt(t *testing.T) {
	f := New(DefaultConfig())
	a, b := pid(1), pid(2)
	_, _ = f.Attach(a)
	_, _ = f.Attach(b)
	var seen []Packet
	f.Watch(func(p Packet) { seen = append(seen, p) })
	_ = f.Send(msg(a, b, types.KindCast))
	f.Crash(b)
	_ = f.Send(msg(a, b, types.KindCast)) // dropped, but still observed
	if len(seen) != 2 {
		t.Errorf("watcher saw %d packets, want 2", len(seen))
	}
	f.Watch(nil)
	_, _ = f.Attach(b)
	_ = f.Send(msg(a, b, types.KindCast))
	if len(seen) != 2 {
		t.Error("watcher still invoked after removal")
	}
}

func TestProcessesSorted(t *testing.T) {
	f := New(DefaultConfig())
	_, _ = f.Attach(pid(3))
	_, _ = f.Attach(pid(1))
	_, _ = f.Attach(pid(2))
	ps := f.Processes()
	if len(ps) != 3 || ps[0] != pid(1) || ps[2] != pid(3) {
		t.Errorf("Processes = %v", ps)
	}
	f.Detach(pid(2))
	if len(f.Processes()) != 2 {
		t.Error("Detach did not remove the process")
	}
}

func TestSendBatchDeliversOneFrame(t *testing.T) {
	f := New(DefaultConfig())
	a, b := pid(1), pid(2)
	_, _ = f.Attach(a)
	chB, _ := f.Attach(b)

	batch := []*types.Message{msg(a, b, types.KindCast), msg(a, b, types.KindCast), msg(a, b, types.KindOrder)}
	if err := f.SendBatch(batch); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	frame := recvFrame(t, chB)
	if len(frame) != 3 {
		t.Fatalf("frame carries %d messages, want 3", len(frame))
	}
	st := f.Stats()
	if st.MessagesSent != 3 || st.MessagesDelivered != 3 {
		t.Errorf("message accounting = %+v, want 3 sent / 3 delivered", st)
	}
	if st.FramesSent != 1 {
		t.Errorf("FramesSent = %d, want 1 (single batch frame)", st.FramesSent)
	}
	if st.PerKind[types.KindCast] != 2 || st.PerKind[types.KindOrder] != 1 {
		t.Errorf("per-kind accounting = %v", st.PerKind)
	}
	// The frame is the receiver's own: a new batch slice and new envelopes,
	// which share the data-path arrays the sender froze.
	if &frame[0] == &batch[0] {
		t.Error("receiver got the sender's batch slice")
	}
	for i, m := range frame {
		if m == batch[i] {
			t.Errorf("message %d: receiver got the sender's envelope", i)
		}
		if &m.Payload[0] != &batch[i].Payload[0] {
			t.Errorf("message %d: data-path payload copied, want shared", i)
		}
	}
}

// TestAckAndStabilityCounters pins the dedicated acknowledgement counter:
// KindStability — the cumulative acknowledgement — gets its own Stats field
// (matching its PerKind entry), counted per message whether sent alone or
// mid-frame.
func TestAckAndStabilityCounters(t *testing.T) {
	f := New(DefaultConfig())
	a, b := pid(1), pid(2)
	_, _ = f.Attach(a)
	chB, _ := f.Attach(b)

	batch := []*types.Message{
		msg(a, b, types.KindCast),
		msg(a, b, types.KindStability),
		msg(a, b, types.KindStability),
		msg(a, b, types.KindOrder),
		msg(a, b, types.KindCast),
	}
	if err := f.SendBatch(batch); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	recvFrame(t, chB)
	if err := f.Send(msg(a, b, types.KindStability)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	recvFrame(t, chB)

	st := f.Stats()
	if st.StabilitySent != 3 {
		t.Errorf("StabilitySent = %d, want 3", st.StabilitySent)
	}
	if st.StabilitySent != st.PerKind[types.KindStability] {
		t.Errorf("dedicated counter disagrees with PerKind: stability %d/%d",
			st.StabilitySent, st.PerKind[types.KindStability])
	}

	f.ResetStats()
	if st := f.Stats(); st.StabilitySent != 0 {
		t.Errorf("ResetStats left the stability counter at %d", st.StabilitySent)
	}
}

func TestSendBatchWholeFrameDropsOnCrashedDest(t *testing.T) {
	f := New(DefaultConfig())
	a, b := pid(1), pid(2)
	_, _ = f.Attach(a)
	_, _ = f.Attach(b)
	f.Crash(b)
	err := f.SendBatch([]*types.Message{msg(a, b, types.KindCast), msg(a, b, types.KindCast)})
	if !errors.Is(err, types.ErrCrashed) {
		t.Errorf("err = %v, want ErrCrashed", err)
	}
	if st := f.Stats(); st.MessagesDropped != 2 {
		t.Errorf("MessagesDropped = %d, want 2 (whole frame)", st.MessagesDropped)
	}
}

func TestSendBatchDropRuleFiltersWithinFrame(t *testing.T) {
	f := New(DefaultConfig())
	a, b := pid(1), pid(2)
	_, _ = f.Attach(a)
	chB, _ := f.Attach(b)
	f.AddDropRule(func(p Packet) bool { return p.Msg.Kind == types.KindStability })

	batch := []*types.Message{msg(a, b, types.KindCast), msg(a, b, types.KindStability), msg(a, b, types.KindCast)}
	if err := f.SendBatch(batch); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	frame := recvFrame(t, chB)
	if len(frame) != 2 {
		t.Fatalf("frame carries %d messages, want 2 (report filtered out)", len(frame))
	}
	for _, m := range frame {
		if m.Kind != types.KindCast {
			t.Errorf("unexpected kind %v survived the drop rule", m.Kind)
		}
	}
}

// TestDropRuleOutOfOrderRemoval is the regression test for the remove-func
// index-invalidation bug: removing rules in a different order than they were
// added must remove exactly the right rules, removing twice must be a no-op,
// and rules added after removals must still work.
func TestDropRuleOutOfOrderRemoval(t *testing.T) {
	f := New(DefaultConfig())
	a, b := pid(1), pid(2)
	_, _ = f.Attach(a)
	chB, _ := f.Attach(b)

	removeCast := f.AddDropRule(func(p Packet) bool { return p.Msg.Kind == types.KindCast })
	removeStab := f.AddDropRule(func(p Packet) bool { return p.Msg.Kind == types.KindStability })
	removeOrder := f.AddDropRule(func(p Packet) bool { return p.Msg.Kind == types.KindOrder })

	// Remove the middle rule first, then the first: the last rule's identity
	// must survive both compactions.
	removeStab()
	removeCast()
	removeStab() // double-remove is a no-op

	_ = f.Send(msg(a, b, types.KindCast))      // rule removed: delivered
	_ = f.Send(msg(a, b, types.KindStability)) // rule removed: delivered
	_ = f.Send(msg(a, b, types.KindOrder))     // rule still active: dropped
	if got := recvOne(t, chB); got.Kind != types.KindCast {
		t.Errorf("first delivery kind = %v, want cast", got.Kind)
	}
	if got := recvOne(t, chB); got.Kind != types.KindStability {
		t.Errorf("second delivery kind = %v, want stability", got.Kind)
	}
	if st := f.Stats(); st.MessagesDropped != 1 {
		t.Errorf("MessagesDropped = %d, want 1 (only the order message)", st.MessagesDropped)
	}

	// A rule added after out-of-order removals must drop, and its own remove
	// must target it precisely even though earlier slots were compacted away.
	removeHB := f.AddDropRule(func(p Packet) bool { return p.Msg.Kind == types.KindHeartbeat })
	_ = f.Send(msg(a, b, types.KindHeartbeat))
	select {
	case fr := <-chB:
		t.Fatalf("heartbeat delivered despite active rule: %v", fr[0])
	case <-time.After(20 * time.Millisecond):
	}
	removeHB()
	removeOrder()
	_ = f.Send(msg(a, b, types.KindHeartbeat))
	_ = f.Send(msg(a, b, types.KindOrder))
	recvOne(t, chB)
	recvOne(t, chB)
}

// TestDropRuleRemovalWhilePacketsInFlight hammers AddDropRule/remove from
// one goroutine while another sends; under -race this pins the locking, and
// the assertions pin that removed rules stop matching immediately.
func TestDropRuleRemovalWhilePacketsInFlight(t *testing.T) {
	f := New(DefaultConfig())
	a, b := pid(1), pid(2)
	_, _ = f.Attach(a)
	chB, _ := f.Attach(b)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			r1 := f.AddDropRule(func(p Packet) bool { return p.Msg.Kind == types.KindHeartbeat })
			r2 := f.AddDropRule(func(p Packet) bool { return p.Msg.Kind == types.KindHeartbeatAck })
			r2()
			r1()
		}
	}()
	sent := 0
	for i := 0; i < 200; i++ {
		_ = f.Send(msg(a, b, types.KindCast)) // never matches any rule
		sent++
	}
	<-done
	for i := 0; i < sent; i++ {
		recvOne(t, chB)
	}
	if st := f.Stats(); st.MessagesDropped != 0 {
		t.Errorf("MessagesDropped = %d, want 0 (cast traffic matches no rule)", st.MessagesDropped)
	}
}

func TestDuplicationInjection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DupRate = 1.0
	f := New(cfg)
	a, b := pid(1), pid(2)
	_, _ = f.Attach(a)
	chB, _ := f.Attach(b)

	if err := f.Send(msg(a, b, types.KindCast)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	first, second := recvOne(t, chB), recvOne(t, chB)
	if first.Kind != types.KindCast || second.Kind != types.KindCast {
		t.Errorf("duplicate delivery kinds = %v, %v", first.Kind, second.Kind)
	}
	st := f.Stats()
	if st.MessagesSent != 1 || st.MessagesDuplicated != 1 || st.MessagesDelivered != 2 {
		t.Errorf("stats = sent %d dup %d delivered %d, want 1/1/2",
			st.MessagesSent, st.MessagesDuplicated, st.MessagesDelivered)
	}

	// Non-data-path kinds are never duplicated.
	_ = f.Send(msg(a, b, types.KindViewInstall))
	recvOne(t, chB)
	select {
	case fr := <-chB:
		t.Errorf("protocol message duplicated: %v", fr[0])
	case <-time.After(20 * time.Millisecond):
	}
}

func TestReorderInjectionDeliversLate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReorderRate = 1.0
	cfg.ReorderDelay = 5 * time.Millisecond
	f := New(cfg)
	a, b := pid(1), pid(2)
	_, _ = f.Attach(a)
	chB, _ := f.Attach(b)

	// Every data message is reordered, so a two-message frame arrives as two
	// late frames of one, and the non-data message arrives first.
	first := msg(a, b, types.KindCast)
	second := msg(a, b, types.KindCast)
	if err := f.SendBatch([]*types.Message{first, second}); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	_ = f.Send(msg(a, b, types.KindViewInstall))
	if got := recvOne(t, chB); got.Kind != types.KindViewInstall {
		t.Errorf("first arrival = %v, want the view-install to overtake reordered casts", got.Kind)
	}
	recvOne(t, chB)
	recvOne(t, chB)
	if st := f.Stats(); st.MessagesReordered != 2 || st.MessagesDelivered != 3 {
		t.Errorf("reordered = %d delivered = %d, want 2/3", st.MessagesReordered, st.MessagesDelivered)
	}
}

func TestFaultLogRecordsInjections(t *testing.T) {
	f := New(DefaultConfig())
	a, b := pid(1), pid(2)
	_, _ = f.Attach(a)
	_, _ = f.Attach(b)

	f.SetLossRate(0.25)
	f.SetPartition(b, 1)
	f.HealPartitions()
	f.SetLatency(time.Millisecond, 2*time.Millisecond)
	f.SetDuplication(0.5)
	f.SetReordering(0.1, 3*time.Millisecond)
	f.Crash(b)

	st := f.Stats()
	wantKinds := []FaultKind{FaultLoss, FaultPartition, FaultHeal, FaultDelay, FaultDuplicate, FaultReorder, FaultCrash}
	if len(st.Faults) != len(wantKinds) {
		t.Fatalf("fault log has %d events, want %d: %v", len(st.Faults), len(wantKinds), st.Faults)
	}
	for i, k := range wantKinds {
		if st.Faults[i].Kind != k {
			t.Errorf("fault %d kind = %v, want %v", i, st.Faults[i].Kind, k)
		}
	}
	if st.Faults[0].Rate != 0.25 || st.Faults[1].Proc != b || st.Faults[1].Partition != 1 {
		t.Errorf("fault parameters not recorded: %v", st.Faults[:2])
	}
	if cfg := f.Config(); cfg.LossRate != 0.25 || cfg.DupRate != 0.5 || cfg.ReorderRate != 0.1 {
		t.Errorf("runtime mutators did not update config: %+v", cfg)
	}
	f.ResetStats()
	if st := f.Stats(); len(st.Faults) != 0 {
		t.Errorf("fault log survived ResetStats: %v", st.Faults)
	}
}

func TestQueueOverflowCountsAsDrop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueLen = 1
	f := New(cfg)
	a, b := pid(1), pid(2)
	_, _ = f.Attach(a)
	chB, _ := f.Attach(b)
	_ = f.Send(msg(a, b, types.KindCast))
	_ = f.Send(msg(a, b, types.KindCast)) // overflows queue of length 1
	st := f.Stats()
	if st.MessagesDropped != 1 {
		t.Errorf("MessagesDropped = %d, want 1 (queue overflow)", st.MessagesDropped)
	}
	recvOne(t, chB)
}
