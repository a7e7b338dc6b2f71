//go:build unix

package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"repro/internal/types"
	"repro/internal/wire"
)

// smallBufListener listens with a 4 KiB SO_RCVBUF, inherited by every
// accepted socket, so the receive window stays small and a sender's socket
// buffer fills after a few frames.
func smallBufListener(t testing.TB) net.Listener {
	t.Helper()
	lc := net.ListenConfig{Control: func(_, _ string, rc syscall.RawConn) error {
		var serr error
		if err := rc.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 4<<10)
		}); err != nil {
			return err
		}
		return serr
	}}
	ln, err := lc.Listen(context.Background(), "tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// indexedMsg is a message of size payload bytes that names its send index:
// 8 bytes of index, then a fill byte derived from it whose every repetition
// reads as an impossible frame length, so a stream resumed mid-frame fails
// to parse at once.
func indexedMsg(i, size int) *types.Message {
	p := make([]byte, max(size, 8))
	binary.BigEndian.PutUint64(p, uint64(i))
	for j := 8; j < len(p); j++ {
		p[j] = 0xa0 | byte(i&0x0f)
	}
	return &types.Message{Kind: types.KindCast, From: pid(1), To: pid(9), Payload: p}
}

// indexOf returns the send index a received message names, or an error if
// its payload is not exactly what indexedMsg built for a frame of size.
func indexOf(m *types.Message, size int) (int, error) {
	if len(m.Payload) < 8 {
		return 0, fmt.Errorf("a %d-byte payload names no index", len(m.Payload))
	}
	i := int(binary.BigEndian.Uint64(m.Payload))
	if want := indexedMsg(i, size).Payload; string(m.Payload) != string(want) {
		return i, fmt.Errorf("frame %d arrived damaged (%d bytes, want %d)", i, len(m.Payload), len(want))
	}
	return i, nil
}

// readFrame reads one length-prefixed frame off a raw connection.
func readFrame(r io.Reader) (wire.Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return wire.Frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > wire.MaxFrameBytes {
		return wire.Frame{}, wire.ErrMalformed
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return wire.Frame{}, err
	}
	return wire.DecodeFrame(b)
}

// slowReader hands out at most 2 KiB per read and pauses after every
// 64 KiB, so the sender keeps meeting a full socket.
type slowReader struct {
	r     io.Reader
	count int
}

func (s *slowReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p[:min(len(p), 2<<10)])
	if s.count += n; s.count >= 64<<10 {
		s.count = 0
		time.Sleep(time.Millisecond)
	}
	return n, err
}

// frameSize mixes tiny frames with frames far larger than any socket
// buffer on the path.
func frameSize(i int) int {
	if i%10 == 9 {
		return 3 << 20
	}
	return []int{40, 700, 9000, 70000, 300}[i%5]
}

// TestTCPPartialWriteKeepsFrameOrder sends mixed-size frames back to back
// to a slow reader with a small receive buffer: the sender's socket fills,
// so frames leave partly inline and partly from the writer, and the tail
// of a partly written frame must reach the socket before any later frame.
// Every frame must arrive whole, once, and in send order on one connection.
func TestTCPPartialWriteKeepsFrameOrder(t *testing.T) {
	ln := smallBufListener(t)
	defer ln.Close()
	tn := NewTCPWithConfig(TCPConfig{QueueFrames: 1 << 12, WriteTimeout: 20 * time.Second})
	a, err := tn.Attach(pid(1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	tn.AddPeer(pid(9), ln.Addr().String())

	const frames = 60
	type result struct {
		got int
		err error
	}
	done := make(chan result, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- result{err: err}
			return
		}
		defer conn.Close()
		_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		r := bufio.NewReaderSize(&slowReader{r: conn}, 4<<10)
		if f, err := readFrame(r); err != nil || f.HelloFrom != pid(1) {
			done <- result{err: err}
			return
		}
		for got := 0; got < frames; got++ {
			f, err := readFrame(r)
			if err != nil {
				done <- result{got: got, err: err}
				return
			}
			if len(f.Msgs) != 1 {
				done <- result{got: got, err: wire.ErrMalformed}
				return
			}
			i, err := indexOf(f.Msgs[0], frameSize(got))
			if err == nil && i != got {
				err = fmt.Errorf("frame %d arrived where frame %d was due", i, got)
			}
			if err != nil {
				done <- result{got: got, err: err}
				return
			}
		}
		done <- result{got: frames}
	}()

	// The first frame dials; the rest follow back to back.
	for i := 0; i < frames; i++ {
		if err := a.Send(indexedMsg(i, frameSize(i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	r := <-done
	if r.err != nil || r.got != frames {
		t.Fatalf("received %d of %d frames in order: %v; stats %+v", r.got, frames, r.err, a.(TCPStatser).TCPStats())
	}
	if st := a.(TCPStatser).TCPStats(); st.Dials != 1 || st.FramesShed != 0 || st.FramesDropped != 0 {
		t.Errorf("stats = %+v; want one dial and nothing shed or dropped", st)
	}
}

// TestTCPCutMidFrameResendsWhole cuts the connection while the tail of a
// frame written partly inline still waits for the writer: the next
// connection must carry only whole frames — the cut frame re-sent from its
// first byte, then the frame queued behind it — never the tail alone.
func TestTCPCutMidFrameResendsWhole(t *testing.T) {
	ln := smallBufListener(t)
	defer ln.Close()
	tn := NewTCPWithConfig(TCPConfig{
		WriteTimeout: 20 * time.Second, // the cut, not a deadline, must end the write
		BackoffMin:   time.Millisecond,
		BackoffMax:   10 * time.Millisecond,
	})
	a, err := tn.Attach(pid(1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	tn.AddPeer(pid(9), ln.Addr().String())

	accept := func() net.Conn {
		t.Helper()
		ln.(*net.TCPListener).SetDeadline(time.Now().Add(10 * time.Second))
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(20 * time.Second))
		return conn
	}
	expect := func(r io.Reader, hello bool, index, size int) {
		t.Helper()
		f, err := readFrame(r)
		if err != nil {
			t.Fatalf("waiting for frame %d: %v", index, err)
		}
		if hello {
			if f.HelloFrom != pid(1) || len(f.Msgs) != 0 {
				t.Fatalf("connection opened with %+v, want the hello frame", f)
			}
			return
		}
		if len(f.Msgs) != 1 {
			t.Fatalf("frame %d holds %d messages", index, len(f.Msgs))
		}
		if i, err := indexOf(f.Msgs[0], size); err != nil || i != index {
			t.Fatalf("frame %d arrived where frame %d was due: %v", i, index, err)
		}
	}

	const big = 8 << 20 // far beyond both socket buffers: the inline write is partial
	if err := a.Send(indexedMsg(0, 64)); err != nil {
		t.Fatal(err)
	}
	c1 := accept()
	defer c1.Close()
	expect(c1, true, 0, 0)
	expect(c1, false, 0, 64)
	pc := a.(*tcpEndpoint).conns[pid(9)]
	// The writer goes idle, so the next frame leaves inline.
	waitPeer(t, pc, func() bool { return pc.raw != nil && !pc.busy && len(pc.q) == 0 })

	if err := a.Send(indexedMsg(1, big)); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(indexedMsg(2, 64)); err != nil {
		t.Fatal(err)
	}
	// The writer holds frame 1's tail, frame 2 queued behind it.
	waitPeer(t, pc, func() bool { return pc.busy && len(pc.q) == 1 && pc.headSent == 0 })
	if a.(ConnCutter).CutConnections() != 1 {
		t.Fatal("no live connection to cut")
	}
	// What the first connection carried of frame 1 is only what the
	// sender's kernel held at the cut: less than the whole frame.
	rest, _ := io.Copy(io.Discard, c1)
	if rest >= big {
		t.Fatalf("the first connection carried %d bytes after frame 0; the cut missed the frame's tail", rest)
	}

	c2 := accept()
	defer c2.Close()
	r := bufio.NewReader(c2)
	expect(r, true, 0, 0)
	expect(r, false, 1, big)
	expect(r, false, 2, 64)
	if st := a.(TCPStatser).TCPStats(); st.Reconnects != 1 {
		t.Errorf("stats = %+v; want one reconnect", st)
	}
}

// waitPeer polls a peer connection's state under its lock until cond holds.
func waitPeer(t *testing.T, c *peerConn, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		ok := cond()
		c.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the peer connection never reached the awaited state")
		}
	}
}

// BenchmarkTCPSendIdlePeer sends one 64 B message per frame to a peer that
// reads as fast as it can, so the socket is idle and the frame leaves
// inline; allocations are the sender's alone (the peer is a raw socket
// that discards what it reads).
func BenchmarkTCPSendIdlePeer(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 64<<10)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	tn := NewTCP()
	a, err := tn.Attach(pid(1))
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	tn.AddPeer(pid(9), ln.Addr().String())
	batch := []*types.Message{{Kind: types.KindCast, From: pid(1), To: pid(9), Payload: make([]byte, 64)}}
	if err := a.SendBatch(batch); err != nil {
		b.Fatal(err)
	}
	for a.(TCPStatser).TCPStats().FramesSent == 0 {
		time.Sleep(time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.SendBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}
