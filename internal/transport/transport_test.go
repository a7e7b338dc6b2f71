package transport

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/types"
	"repro/internal/wire"
)

func pid(site uint32) types.ProcessID { return types.ProcessID{Site: types.SiteID(site)} }

func waitFrame(t *testing.T, ep Endpoint) []*types.Message {
	t.Helper()
	select {
	case frame := <-ep.Inbox():
		if len(frame) == 0 {
			t.Fatal("transport delivered an empty frame")
		}
		return frame
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for frame")
		return nil
	}
}

// waitMsg receives single messages regardless of how the transport framed
// them, buffering the rest of each frame for the next call.
var pendingFrames = map[Endpoint][]*types.Message{}

func waitMsg(t *testing.T, ep Endpoint) *types.Message {
	t.Helper()
	if q := pendingFrames[ep]; len(q) > 0 {
		pendingFrames[ep] = q[1:]
		return q[0]
	}
	frame := waitFrame(t, ep)
	pendingFrames[ep] = frame[1:]
	return frame[0]
}

func TestMemoryRoundTrip(t *testing.T) {
	mem := NewMemory(netsim.New(netsim.DefaultConfig()))
	a, err := mem.Attach(pid(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := mem.Attach(pid(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.PID() != pid(1) {
		t.Errorf("PID = %v", a.PID())
	}
	msg := &types.Message{Kind: types.KindRequest, From: pid(1), To: pid(2), Payload: []byte("hi")}
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	got := waitMsg(t, b)
	if string(got.Payload) != "hi" || got.Kind != types.KindRequest {
		t.Errorf("got %v", got)
	}
	if mem.Fabric().Stats().MessagesSent != 1 {
		t.Error("fabric accounting missing for memory transport")
	}
}

func TestMemoryClosedEndpointRejectsSend(t *testing.T) {
	mem := NewMemory(netsim.New(netsim.DefaultConfig()))
	a, _ := mem.Attach(pid(1))
	_, _ = mem.Attach(pid(2))
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	err := a.Send(&types.Message{From: pid(1), To: pid(2)})
	if !errors.Is(err, types.ErrStopped) {
		t.Errorf("send after close err = %v", err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	tn := NewTCP()
	a, err := tn.Attach(pid(1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := tn.Attach(pid(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	msg := &types.Message{
		Kind:    types.KindCast,
		From:    pid(1),
		To:      pid(2),
		Group:   types.LeafGroup("svc", 1),
		VT:      []uint64{1, 2},
		Payload: []byte("over tcp"),
	}
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	got := waitMsg(t, b)
	if string(got.Payload) != "over tcp" || !got.Group.Equal(types.LeafGroup("svc", 1)) || len(got.VT) != 2 {
		t.Errorf("got %+v", got)
	}

	// And the reverse direction (exercises dialing back).
	if err := b.Send(&types.Message{Kind: types.KindReply, From: pid(2), To: pid(1), Payload: []byte("ack")}); err != nil {
		t.Fatal(err)
	}
	back := waitMsg(t, a)
	if back.Kind != types.KindReply {
		t.Errorf("reverse message %v", back)
	}
}

// backends are the two transports every conformance test runs on: a pair
// of endpoints, a sending to b.
var backends = []struct {
	name   string
	attach func(t *testing.T) (a, b Endpoint)
}{
	{"memory", func(t *testing.T) (Endpoint, Endpoint) {
		mem := NewMemory(netsim.New(netsim.DefaultConfig()))
		a, err := mem.Attach(pid(1))
		if err != nil {
			t.Fatal(err)
		}
		b, err := mem.Attach(pid(2))
		if err != nil {
			t.Fatal(err)
		}
		return a, b
	}},
	{"tcp", func(t *testing.T) (Endpoint, Endpoint) {
		tn := NewTCP()
		a, err := tn.Attach(pid(1))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		b, err := tn.Attach(pid(2))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		return a, b
	}},
}

// fullMsg returns a message with every envelope field populated.
func fullMsg() *types.Message {
	return &types.Message{
		Kind:     types.KindCast,
		From:     pid(1),
		To:       pid(2),
		Group:    types.GroupID{Name: "conf", Kind: types.KindLeaf, Path: []uint32{2, 0, 7}},
		View:     12,
		ID:       types.MsgID{Sender: pid(1), Seq: 99},
		Ordering: types.Causal,
		Seq:      1 << 40,
		VT:       []uint64{3, 1 << 50, 0, 7},
		Corr:     987654321,
		ReplyTo:  pid(3),
		Hop:      4,
		TTL:      9,
		Path:     []uint32{1, 1 << 30},
		Payload:  []byte("every field populated"),
		Stab:     []types.StabEntry{{Sender: pid(1), Seq: 98}, {Sender: pid(2), Seq: 55}},
		StabOrd:  54,
		Err:      "negative reply text",
	}
}

// checkEqual fails the test unless got matches want field for field.
func checkEqual(t *testing.T, want, got *types.Message) {
	t.Helper()
	if got.Kind != want.Kind || got.From != want.From || got.To != want.To ||
		!got.Group.Equal(want.Group) || got.View != want.View || got.ID != want.ID ||
		got.Ordering != want.Ordering || got.Seq != want.Seq || got.Corr != want.Corr ||
		got.ReplyTo != want.ReplyTo || got.Hop != want.Hop || got.TTL != want.TTL ||
		got.StabOrd != want.StabOrd || got.Err != want.Err ||
		string(got.Payload) != string(want.Payload) ||
		len(got.VT) != len(want.VT) || len(got.Path) != len(want.Path) ||
		len(got.Stab) != len(want.Stab) {
		t.Fatalf("message mangled in transit:\n want %+v\n  got %+v", want, got)
	}
	for i := range want.VT {
		if got.VT[i] != want.VT[i] {
			t.Fatalf("VT[%d] = %d, want %d", i, got.VT[i], want.VT[i])
		}
	}
	for i := range want.Path {
		if got.Path[i] != want.Path[i] {
			t.Fatalf("Path[%d] = %d, want %d", i, got.Path[i], want.Path[i])
		}
	}
	for i := range want.Stab {
		if got.Stab[i] != want.Stab[i] {
			t.Fatalf("Stab[%d] = %v, want %v", i, got.Stab[i], want.Stab[i])
		}
	}
}

// TestBatchFramingConformance pins the batch frame contract on both
// transports: a SendBatch arrives as ONE frame carrying the messages in
// batch order, and per-pair FIFO holds across mixed Send/SendBatch traffic.
func TestBatchFramingConformance(t *testing.T) {
	for _, backend := range backends {
		t.Run(backend.name, func(t *testing.T) {
			a, b := backend.attach(t)

			batch := make([]*types.Message, 5)
			for i := range batch {
				batch[i] = &types.Message{Kind: types.KindCast, From: pid(1), To: pid(2), Seq: uint64(i)}
			}
			if err := a.SendBatch(batch); err != nil {
				t.Fatalf("SendBatch: %v", err)
			}
			frame := waitFrame(t, b)
			if len(frame) != 5 {
				t.Fatalf("batch of 5 arrived as frame of %d", len(frame))
			}
			for i, m := range frame {
				if m.Seq != uint64(i) {
					t.Fatalf("frame[%d].Seq = %d: batch order not preserved", i, m.Seq)
				}
			}

			// Mixed singles and batches on one pair must stay FIFO.
			_ = a.Send(&types.Message{Kind: types.KindCast, From: pid(1), To: pid(2), Seq: 100})
			_ = a.SendBatch([]*types.Message{
				{Kind: types.KindCast, From: pid(1), To: pid(2), Seq: 101},
				{Kind: types.KindCast, From: pid(1), To: pid(2), Seq: 102},
			})
			_ = a.Send(&types.Message{Kind: types.KindCast, From: pid(1), To: pid(2), Seq: 103})
			for want := uint64(100); want <= 103; want++ {
				if got := waitMsg(t, b); got.Seq != want {
					t.Fatalf("got seq %d, want %d: mixed batch traffic reordered", got.Seq, want)
				}
			}

			// Empty batches are a no-op, not a wire frame.
			if err := a.SendBatch(nil); err != nil {
				t.Fatalf("empty SendBatch: %v", err)
			}
		})
	}
}

// TestFrameCodecConformance pins the wire-codec contract on both transports:
// a message with every envelope field populated must arrive field-for-field
// intact, alone and inside a batch, and a message at realistic maximum size
// (1MB payload) must survive unharmed. Memory passes trivially (it clones);
// TCP exercises the binary codec end to end.
func TestFrameCodecConformance(t *testing.T) {
	for _, backend := range backends {
		t.Run(backend.name, func(t *testing.T) {
			a, b := backend.attach(t)

			// Singleton frame, every field populated.
			if err := a.Send(fullMsg()); err != nil {
				t.Fatal(err)
			}
			checkEqual(t, fullMsg(), waitMsg(t, b))

			// The same message inside a mixed batch.
			sparse := &types.Message{Kind: types.KindHeartbeat, From: pid(1), To: pid(2)}
			if err := a.SendBatch([]*types.Message{sparse, fullMsg(), sparse.Clone()}); err != nil {
				t.Fatal(err)
			}
			got := waitFrame(t, b)
			if len(got) != 3 {
				t.Fatalf("batch of 3 arrived as frame of %d", len(got))
			}
			checkEqual(t, fullMsg(), got[1])
			if got[0].Kind != types.KindHeartbeat || got[0].Payload != nil || got[0].Stab != nil {
				t.Fatalf("sparse message mangled: %+v", got[0])
			}

			// A message at realistic maximum size round-trips intact.
			big := fullMsg()
			big.Payload = make([]byte, 1<<20)
			for i := range big.Payload {
				big.Payload[i] = byte(i)
			}
			if err := a.Send(big); err != nil {
				t.Fatal(err)
			}
			gotBig := waitMsg(t, b)
			if len(gotBig.Payload) != len(big.Payload) {
				t.Fatalf("1MB payload arrived as %d bytes", len(gotBig.Payload))
			}
			for i := range big.Payload {
				if gotBig.Payload[i] != big.Payload[i] {
					t.Fatalf("payload corrupted at byte %d", i)
				}
			}
		})
	}
}

// TestEndpointBorrowConformance pins Endpoint's borrow contract on both
// transports: once Send or SendBatch returns, the sender may overwrite every
// field and every array of what it sent — the node's outbox reuses its frame
// scratch on the next flush — and the receiver still gets the originals.
func TestEndpointBorrowConformance(t *testing.T) {
	scribble := func(msgs ...*types.Message) {
		for _, m := range msgs {
			for i := range m.VT {
				m.VT[i] = ^uint64(0)
			}
			for i := range m.Path {
				m.Path[i] = ^uint32(0)
			}
			for i := range m.Group.Path {
				m.Group.Path[i] = ^uint32(0)
			}
			for i := range m.Payload {
				m.Payload[i] = 0xEE
			}
			for i := range m.Stab {
				m.Stab[i] = types.StabEntry{Sender: pid(66), Seq: 66}
			}
			*m = types.Message{Kind: types.KindHeartbeat, From: pid(66), To: pid(2), Err: "scribbled"}
		}
	}
	for _, backend := range backends {
		t.Run(backend.name, func(t *testing.T) {
			a, b := backend.attach(t)

			one := fullMsg()
			if err := a.Send(one); err != nil {
				t.Fatal(err)
			}
			scribble(one)
			checkEqual(t, fullMsg(), waitMsg(t, b))

			batch := []*types.Message{fullMsg(), fullMsg(), fullMsg()}
			if err := a.SendBatch(batch); err != nil {
				t.Fatal(err)
			}
			scribble(batch...)
			batch[0], batch[1] = batch[2], nil // and the batch slice itself
			frame := waitFrame(t, b)
			if len(frame) != 3 {
				t.Fatalf("batch of 3 arrived as frame of %d", len(frame))
			}
			for _, got := range frame {
				checkEqual(t, fullMsg(), got)
			}
		})
	}
}

// TestTCPOversizedMessageRejectedAtSender pins the max-frame-size contract:
// a single message whose encoding exceeds the frame limit must fail the Send
// with an error at the sender instead of being written and killing the
// receiver's connection (or worse, being silently truncated).
func TestTCPOversizedMessageRejectedAtSender(t *testing.T) {
	tn := NewTCP()
	a, err := tn.Attach(pid(1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := tn.Attach(pid(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	huge := &types.Message{Kind: types.KindCast, From: pid(1), To: pid(2), Payload: make([]byte, wire.MaxFrameBytes+1)}
	if err := a.Send(huge); !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("oversized send err = %v, want ErrFrameTooLarge", err)
	}

	// The connection (re-established as needed) still works for sane frames.
	if err := a.Send(&types.Message{Kind: types.KindCast, From: pid(1), To: pid(2), Payload: []byte("ok")}); err != nil {
		t.Fatalf("send after oversized rejection: %v", err)
	}
	if got := waitMsg(t, b); string(got.Payload) != "ok" {
		t.Fatalf("got %v", got)
	}
}

// TestTCPPartialReads dribbles an encoded frame into a raw connection a few
// bytes at a time: the receiver must reassemble it across arbitrarily
// fragmented reads (the length prefix and payload both arriving split).
func TestTCPPartialReads(t *testing.T) {
	tn := NewTCP()
	b, err := tn.Attach(pid(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	addr, _ := tn.PeerAddr(pid(2))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	msg := &types.Message{Kind: types.KindCast, From: pid(1), To: pid(2), Payload: []byte("dribbled")}
	payload := wire.AppendFrame(nil, []*types.Message{msg}, types.ProcessID{}, "")
	frame := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(payload)))
	copy(frame[4:], payload)

	// Write in 3-byte dribbles with tiny pauses so the reader observes
	// genuinely partial reads, including a split length prefix.
	for i := 0; i < len(frame); i += 3 {
		end := i + 3
		if end > len(frame) {
			end = len(frame)
		}
		if _, err := conn.Write(frame[i:end]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if got := waitMsg(t, b); string(got.Payload) != "dribbled" {
		t.Fatalf("got %v", got)
	}

	// A second frame on the same dribbled connection still decodes (stream
	// state survives frame boundaries).
	if _, err := conn.Write(frame[:7]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	if _, err := conn.Write(frame[7:]); err != nil {
		t.Fatal(err)
	}
	if got := waitMsg(t, b); string(got.Payload) != "dribbled" {
		t.Fatalf("second frame: got %v", got)
	}
}

// TestTCPCorruptStreamDropsConnection feeds a hostile length prefix and
// checks the receiver survives (drops the connection, keeps serving others).
func TestTCPCorruptStreamDropsConnection(t *testing.T) {
	tn := NewTCP()
	b, err := tn.Attach(pid(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	addr, _ := tn.PeerAddr(pid(2))

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Length prefix far beyond the frame limit.
	if _, err := conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	// The endpoint must remain usable: a well-formed sender still gets through.
	a, err := tn.Attach(pid(1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(&types.Message{Kind: types.KindCast, From: pid(1), To: pid(2), Payload: []byte("alive")}); err != nil {
		t.Fatal(err)
	}
	if got := waitMsg(t, b); string(got.Payload) != "alive" {
		t.Fatalf("got %v", got)
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	tn := NewTCP()
	a, err := tn.Attach(pid(1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	err = a.Send(&types.Message{From: pid(1), To: pid(99)})
	if !errors.Is(err, types.ErrNoSuchProcess) {
		t.Errorf("err = %v, want ErrNoSuchProcess", err)
	}
}

func TestTCPManyMessagesSingleConnection(t *testing.T) {
	tn := NewTCP()
	a, _ := tn.Attach(pid(1))
	defer a.Close()
	b, _ := tn.Attach(pid(2))
	defer b.Close()

	const n = 200
	for i := 0; i < n; i++ {
		m := &types.Message{Kind: types.KindCast, From: pid(1), To: pid(2), Seq: uint64(i)}
		if err := a.Send(m); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		got := waitMsg(t, b)
		if got.Seq != uint64(i) {
			t.Fatalf("message %d arrived out of order (seq %d): TCP stream must be FIFO", i, got.Seq)
		}
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	tn := NewTCP()
	a, _ := tn.Attach(pid(1))
	b, _ := tn.Attach(pid(2))
	defer b.Close()
	_ = a.Close()
	err := a.Send(&types.Message{From: pid(1), To: pid(2)})
	if !errors.Is(err, types.ErrStopped) {
		t.Errorf("err = %v, want ErrStopped", err)
	}
}

// TestTCPHelloLearnsReturnRoute models two separate daemons: each has its
// own TCP network, and only the joiner knows the founder's address. The
// founder must still be able to reply, because the joiner's first frame
// announces its identity and listen address.
func TestTCPHelloLearnsReturnRoute(t *testing.T) {
	founderNet := NewTCP()
	joinerNet := NewTCP()

	founder, err := founderNet.AttachAt(pid(1), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer founder.Close()
	joiner, err := joinerNet.AttachAt(pid(2), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()

	founderAddr, _ := founderNet.PeerAddr(pid(1))
	joinerNet.AddPeer(pid(1), founderAddr)

	if err := joiner.Send(&types.Message{Kind: types.KindRequest, From: pid(2), To: pid(1), Payload: []byte("join")}); err != nil {
		t.Fatal(err)
	}
	got := waitMsg(t, founder)
	if string(got.Payload) != "join" {
		t.Fatalf("founder got %v", got)
	}
	// The founder never called AddPeer for the joiner; the hello frame must
	// have registered the return route.
	if addr, ok := founderNet.PeerAddr(pid(2)); !ok || addr == "" {
		t.Fatalf("founder did not learn joiner address (addr=%q ok=%v)", addr, ok)
	}
	if err := founder.Send(&types.Message{Kind: types.KindReply, From: pid(1), To: pid(2), Payload: []byte("placed")}); err != nil {
		t.Fatal(err)
	}
	back := waitMsg(t, joiner)
	if string(back.Payload) != "placed" {
		t.Fatalf("joiner got %v", back)
	}
}

// TestTCPHelloWildcardListenerAdvertisesDialableAddr pins the hello address
// rewrite: a joiner listening on the wildcard host must not advertise
// "[::]:port" (undialable from the peer) but the interface the peer can
// reach back — on loopback, 127.0.0.1 with the listener's port.
func TestTCPHelloWildcardListenerAdvertisesDialableAddr(t *testing.T) {
	founderNet := NewTCP()
	joinerNet := NewTCP()

	founder, err := founderNet.AttachAt(pid(1), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer founder.Close()
	joiner, err := joinerNet.AttachAt(pid(2), ":0") // wildcard host
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()

	founderAddr, _ := founderNet.PeerAddr(pid(1))
	joinerNet.AddPeer(pid(1), founderAddr)

	if err := joiner.Send(&types.Message{Kind: types.KindRequest, From: pid(2), To: pid(1)}); err != nil {
		t.Fatal(err)
	}
	waitMsg(t, founder)
	addr, ok := founderNet.PeerAddr(pid(2))
	if !ok {
		t.Fatal("founder did not learn joiner address")
	}
	// The learned address must be dialable: replying must succeed and arrive.
	if err := founder.Send(&types.Message{Kind: types.KindReply, From: pid(1), To: pid(2), Payload: []byte("ok")}); err != nil {
		t.Fatalf("reply to learned addr %q: %v", addr, err)
	}
	if got := waitMsg(t, joiner); string(got.Payload) != "ok" {
		t.Fatalf("joiner got %v via %q", got, addr)
	}
}

func TestTCPAttachAtFixedAddress(t *testing.T) {
	tn := NewTCP()
	ep, err := tn.AttachAt(pid(7), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	addr, ok := tn.PeerAddr(pid(7))
	if !ok || addr == "" {
		t.Errorf("PeerAddr = %q, %v", addr, ok)
	}
}

// TestTCPSendBatchSplitsOversizedFrames pins the sender-side frame bound: a
// batch whose wire size exceeds one frame's budget must arrive split across
// several frames — in order, nothing lost — rather than as one giant frame
// the receiving decoder would reject (which would tear down the connection
// and silently lose the whole batch).
func TestTCPSendBatchSplitsOversizedFrames(t *testing.T) {
	tn := NewTCP()
	a, err := tn.Attach(pid(1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := tn.Attach(pid(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	payload := make([]byte, 5<<20) // 5MB each; 5 of them exceed maxFrameWire
	batch := make([]*types.Message, 5)
	for i := range batch {
		batch[i] = &types.Message{Kind: types.KindCast, From: pid(1), To: pid(2), Seq: uint64(i), Payload: payload}
	}
	if err := a.SendBatch(batch); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	frames, got := 0, 0
	for got < len(batch) {
		frame := waitFrame(t, b)
		frames++
		for _, m := range frame {
			if m.Seq != uint64(got) {
				t.Fatalf("message %d arrived with seq %d: split reordered the batch", got, m.Seq)
			}
			got++
		}
	}
	if frames < 2 {
		t.Errorf("oversized batch arrived in %d frame(s), want a split into several", frames)
	}
}
