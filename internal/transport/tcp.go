package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/types"
	"repro/internal/wire"
)

// TCP is a Network implementation over real TCP sockets, used by the
// isis-node daemon for multi-machine deployments and by the loopback
// integration tests. Each attached process runs one listener; outbound
// connections are established lazily per destination and reused.
//
// Peer discovery is bootstrapped statically and extended dynamically: the
// caller registers the listen address of at least one contact with AddPeer
// (mirroring the static site tables early ISIS used), and every outbound
// connection's first frame carries the dialer's identity and listen address
// so the accepting side learns the return route. A joiner therefore only
// needs its contact's address; everyone it talks to learns it back.
// Messages to peers known by neither mechanism fail with ErrNoSuchProcess.
//
// On the wire every frame is a 4-byte big-endian payload length followed by
// the internal/wire binary encoding of the batch (plus optional hello
// metadata): a fixed layout with no per-frame type metadata, appended into a
// pooled scratch buffer without reflection, so steady-state sending performs
// near-zero allocations per frame and decoding is a bounds-checked linear
// scan.
//
// # Connection management
//
// Each destination gets one peerConn: a socket, a bounded queue of encoded
// frames, and a writer goroutine. A frame that finds the socket idle (a
// live connection, nothing queued, no write in progress) is written by the
// sender itself, on its own goroutine, with one non-blocking write through
// syscall.RawConn; what the socket does not take goes to the head of the
// queue, and the writer finishes it on the same connection before any other
// frame. Everything else — and every frame on builds other than unix — is
// queued for the writer. The writer dials lazily, enables TCP keepalives,
// reconnects with exponential backoff and jitter, and puts a deadline on
// every write so a hung peer (stopped process, full socket buffers on a
// dead path) errors out instead of blocking forever; a failed write closes
// the connection and the frame is retried once, whole, on a fresh dial,
// after which it is dropped — the reliability layer's NAK/retransmit
// machinery repairs the gap end-to-end. A full queue sheds its oldest frame
// not yet started, so a slow peer loses its own traffic instead of wedging
// the outbox flush toward everyone else. When
// FailThreshold consecutive dial-or-write failures accumulate, the peer is
// declared down: sends fail fast, the peer-down handler (wired to the
// failure detector by the boot package) is told, and the peer is re-probed
// at the backoff ceiling or immediately when traffic from it arrives.
type TCP struct {
	cfg TCPConfig

	mu    sync.RWMutex
	peers map[types.ProcessID]string // pid -> host:port
	local map[types.ProcessID]bool   // pids attached to this network
}

// TCPConfig tunes the hardened connection management. The zero value
// selects production defaults; tests shrink the timeouts.
type TCPConfig struct {
	// DialTimeout bounds one connection attempt. Zero selects 1s.
	DialTimeout time.Duration
	// WriteTimeout bounds one frame write; expiry closes the connection and
	// the next send redials. Zero selects 3s.
	WriteTimeout time.Duration
	// KeepAlive is the TCP keepalive period set on every connection (both
	// dialed and accepted), so a peer that vanished without a FIN is torn
	// down by the kernel. Zero selects 15s; negative disables.
	KeepAlive time.Duration
	// QueueFrames bounds each peer's send queue. A full queue sheds its
	// oldest frame. Zero selects 256.
	QueueFrames int
	// BackoffMin and BackoffMax bound the reconnect backoff (exponential,
	// ±50% jitter). Zero selects 20ms and 2s.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// FailThreshold is how many consecutive dial-or-write failures mark a
	// peer down (failing sends fast, notifying the peer-down handler). Zero
	// selects 3.
	FailThreshold int
}

func (c TCPConfig) withDefaults() TCPConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 3 * time.Second
	}
	if c.KeepAlive == 0 {
		c.KeepAlive = 15 * time.Second
	}
	if c.QueueFrames <= 0 {
		c.QueueFrames = 256
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 20 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	return c
}

// TCPStats count one endpoint's connection-management activity. All fields
// are cumulative.
type TCPStats struct {
	Dials         uint64 // successful outbound connections
	DialErrors    uint64 // failed connection attempts
	Reconnects    uint64 // successful dials replacing a broken connection
	FramesSent    uint64
	BytesSent     uint64
	WriteTimeouts uint64 // writes that hit the write deadline
	WriteErrors   uint64 // writes that failed for any reason (timeouts included)
	FramesShed    uint64 // frames dropped by queue backpressure
	FramesDropped uint64 // frames dropped because the peer is down or unreachable
	PeerDowns     uint64 // down declarations handed to the peer-down handler
}

// ErrPeerDown reports a send to a peer currently declared down (consecutive
// connection failures reached the threshold). The peer is re-probed at the
// backoff ceiling, or immediately once traffic from it arrives.
var ErrPeerDown = fmt.Errorf("transport: peer down")

// ErrBackpressure reports a frame shed because the peer's bounded send
// queue stayed full (slow or stalled receiver).
var ErrBackpressure = fmt.Errorf("transport: send queue full")

// PeerDownNotifier is implemented by endpoints that can report peers whose
// connections are irrecoverably failing; the boot package wires the handler
// to the failure detector so dead daemons are suspected from the socket,
// not only from missed heartbeats.
type PeerDownNotifier interface {
	SetPeerDownHandler(func(types.ProcessID))
}

// ConnCutter is implemented by endpoints whose live connections can be
// severed (chaos injection, reconnect tests). The next send redials.
type ConnCutter interface {
	CutConnections() int
}

// TCPStatser exposes an endpoint's connection-management counters.
type TCPStatser interface {
	TCPStats() TCPStats
}

// NewTCP creates an empty TCP network with default connection management.
func NewTCP() *TCP { return NewTCPWithConfig(TCPConfig{}) }

// NewTCPWithConfig creates an empty TCP network with explicit
// connection-management knobs.
func NewTCPWithConfig(cfg TCPConfig) *TCP {
	return &TCP{
		cfg:   cfg.withDefaults(),
		peers: make(map[types.ProcessID]string),
		local: make(map[types.ProcessID]bool),
	}
}

// AddPeer registers the listen address of a process.
func (t *TCP) AddPeer(pid types.ProcessID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers[pid] = addr
}

// PeerAddr returns the registered address of a peer.
func (t *TCP) PeerAddr(pid types.ProcessID) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	a, ok := t.peers[pid]
	return a, ok
}

// markLocal records that pid is served by an endpoint attached to this
// network, protecting its route from being overwritten by hello frames.
func (t *TCP) markLocal(pid types.ProcessID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.local[pid] = true
}

// isLocal reports whether pid is attached to this network.
func (t *TCP) isLocal(pid types.ProcessID) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.local[pid]
}

// Attach starts a listener on an ephemeral local port for pid and registers
// it as a peer. Use AttachAt to control the listen address.
func (t *TCP) Attach(pid types.ProcessID) (Endpoint, error) {
	return t.AttachAt(pid, "127.0.0.1:0")
}

// AttachAt starts a listener on the given address for pid.
func (t *TCP) AttachAt(pid types.ProcessID, addr string) (Endpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcp transport listen %s: %w", addr, err)
	}
	ep := &tcpEndpoint{
		pid:   pid,
		net:   t,
		cfg:   t.cfg,
		ln:    ln,
		inbox: make(chan []*types.Message, 1024),
		conns: make(map[types.ProcessID]*peerConn),
		done:  make(chan struct{}),
	}
	t.markLocal(pid)
	t.AddPeer(pid, ln.Addr().String())
	go ep.acceptLoop()
	return ep, nil
}

type tcpEndpoint struct {
	pid   types.ProcessID
	net   *TCP
	cfg   TCPConfig
	ln    net.Listener
	inbox chan []*types.Message

	bufPool sync.Pool // *[]byte frame buffers (length prefix + wire frame)
	stats   tcpCounters

	peerDownMu sync.RWMutex
	peerDown   func(types.ProcessID)

	mu     sync.Mutex
	conns  map[types.ProcessID]*peerConn
	closed bool
	done   chan struct{}
}

// tcpCounters is TCPStats with atomic fields.
type tcpCounters struct {
	dials, dialErrors, reconnects    atomic.Uint64
	framesSent, bytesSent            atomic.Uint64
	writeTimeouts, writeErrors       atomic.Uint64
	framesShed, framesDropped, downs atomic.Uint64
}

func (e *tcpEndpoint) PID() types.ProcessID           { return e.pid }
func (e *tcpEndpoint) Inbox() <-chan []*types.Message { return e.inbox }

// Addr returns the endpoint's listen address.
func (e *tcpEndpoint) Addr() string { return e.ln.Addr().String() }

// TCPStats returns a snapshot of the endpoint's connection counters.
func (e *tcpEndpoint) TCPStats() TCPStats {
	return TCPStats{
		Dials:         e.stats.dials.Load(),
		DialErrors:    e.stats.dialErrors.Load(),
		Reconnects:    e.stats.reconnects.Load(),
		FramesSent:    e.stats.framesSent.Load(),
		BytesSent:     e.stats.bytesSent.Load(),
		WriteTimeouts: e.stats.writeTimeouts.Load(),
		WriteErrors:   e.stats.writeErrors.Load(),
		FramesShed:    e.stats.framesShed.Load(),
		FramesDropped: e.stats.framesDropped.Load(),
		PeerDowns:     e.stats.downs.Load(),
	}
}

// SetPeerDownHandler installs the callback invoked (from a writer
// goroutine) when a peer's connections fail FailThreshold times in a row.
func (e *tcpEndpoint) SetPeerDownHandler(fn func(types.ProcessID)) {
	e.peerDownMu.Lock()
	e.peerDown = fn
	e.peerDownMu.Unlock()
}

func (e *tcpEndpoint) notifyPeerDown(pid types.ProcessID) {
	e.stats.downs.Add(1)
	e.peerDownMu.RLock()
	fn := e.peerDown
	e.peerDownMu.RUnlock()
	if fn != nil {
		fn(pid)
	}
}

// CutConnections severs every live outbound connection of this endpoint
// (the sockets are closed from under their writers, exactly like a network
// cut mid-frame) and returns how many were cut. Queued frames survive; the
// writers redial on the next frame.
func (e *tcpEndpoint) CutConnections() int {
	e.mu.Lock()
	conns := make([]*peerConn, 0, len(e.conns))
	for _, c := range e.conns {
		conns = append(conns, c)
	}
	e.mu.Unlock()
	cut := 0
	for _, c := range conns {
		if c.cutConn() {
			cut++
		}
	}
	return cut
}

// noteAlive clears a peer's down state: traffic from it proves the process
// is reachable, so the next send may redial immediately instead of waiting
// out the backoff ceiling.
func (e *tcpEndpoint) noteAlive(pid types.ProcessID) {
	e.mu.Lock()
	c := e.conns[pid]
	e.mu.Unlock()
	if c != nil {
		c.markAlive()
	}
}

// getBuf takes an empty frame buffer from the pool. Buffers travel as
// pointers so returning one to the pool allocates nothing.
func (e *tcpEndpoint) getBuf() *[]byte {
	if p, ok := e.bufPool.Get().(*[]byte); ok {
		*p = (*p)[:0]
		return p
	}
	b := make([]byte, 0, 4<<10)
	return &b
}

func (e *tcpEndpoint) putBuf(p *[]byte) {
	if cap(*p) > wire.MaxFrameBytes/4 {
		return // never pool pathological buffers
	}
	e.bufPool.Put(p)
}

func (e *tcpEndpoint) acceptLoop() {
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.configureConn(conn)
		go e.readLoop(conn)
	}
}

// configureConn applies keepalives to a connection (accepted or dialed).
func (e *tcpEndpoint) configureConn(conn net.Conn) {
	if e.cfg.KeepAlive <= 0 {
		return
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetKeepAlive(true)
		_ = tc.SetKeepAlivePeriod(e.cfg.KeepAlive)
	}
}

// readLoop turns one inbound connection's byte stream back into frames: read
// the 4-byte length prefix, read exactly that many payload bytes (both reads
// ride a buffered reader, so short TCP segments — partial reads — just loop
// inside io.ReadFull), decode, deliver. The payload buffer is reused across
// frames; DecodeOwned hands out freshly allocated messages because the
// frame's lifetime extends past the next read (it crosses the inbox channel
// into the receiver's actor loop), while the connection-scoped Decoder
// interns the group names repeated on every message. A corrupt stream (bad
// length, undecodable frame) tears the connection down; the peer redials
// and retransmission recovers anything lost.
func (e *tcpEndpoint) readLoop(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	var dec wire.Decoder
	var payload []byte
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return // connection torn down; the peer will reconnect if needed
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n == 0 || n > wire.MaxFrameBytes {
			return // corrupt or hostile header
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		f, err := dec.DecodeOwned(payload)
		if err != nil {
			return
		}
		// A hello claiming the identity of a locally attached process is a
		// misconfiguration (duplicate site id); never let it hijack the
		// local route.
		if !f.HelloFrom.IsNil() && f.HelloAddr != "" && !e.net.isLocal(f.HelloFrom) {
			e.net.AddPeer(f.HelloFrom, f.HelloAddr)
			e.noteAlive(f.HelloFrom)
		}
		if len(f.Msgs) == 0 {
			continue // hello-only frame
		}
		// Inbound traffic is proof of life: clear any down state so the
		// next outbound send probes immediately (a process recovering from
		// a stall announces itself by its own resumed traffic).
		e.noteAlive(f.Msgs[0].From)
		select {
		case e.inbox <- f.Msgs:
		case <-e.done:
			return
		}
	}
}

func (e *tcpEndpoint) Send(msg *types.Message) error {
	return e.SendBatch([]*types.Message{msg})
}

// maxFrameWire bounds the estimated payload bytes packed into one wire
// frame. It sits 4x below wire.MaxFrameBytes (and the WireSize estimate
// tracks the varint-compressed binary encoding from above for realistic
// messages), so an accepted batch can never produce a frame the receiver's
// decode limit would reject (tearing down the connection and silently
// losing the whole batch); batches of large messages are split across
// several frames instead.
const maxFrameWire = 16 << 20

func (e *tcpEndpoint) SendBatch(msgs []*types.Message) error {
	if len(msgs) == 0 {
		return nil
	}
	// Split oversized batches by estimated wire size. A single message
	// always gets a frame even if it exceeds the bound on its own.
	for start := 0; start < len(msgs); {
		end, size := start, 0
		for end < len(msgs) {
			s := msgs[end].WireSize()
			if end > start && size+s > maxFrameWire {
				break
			}
			size += s
			end++
		}
		if err := e.sendFrame(msgs[start:end]); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// sendFrame encodes one frame and hands it to the destination's peer
// connection. Encoding happens synchronously on the caller's goroutine —
// an oversized frame is rejected here, before any byte reaches a socket,
// so the connection's stream stays untouched and usable — and so does the
// socket write when the socket is idle (peerConn.enqueue).
func (e *tcpEndpoint) sendFrame(msgs []*types.Message) error {
	to := msgs[0].To
	p := e.getBuf()
	b := append(*p, 0, 0, 0, 0) // room for the length prefix
	b = wire.AppendFrame(b, msgs, types.ProcessID{}, "")
	*p = b
	payload := len(b) - 4
	if payload > wire.MaxFrameBytes {
		e.putBuf(p)
		return fmt.Errorf("tcp transport send to %v: frame of %d bytes exceeds limit: %w", to, payload, wire.ErrFrameTooLarge)
	}
	binary.BigEndian.PutUint32(b[:4], uint32(payload))

	c, err := e.peer(to)
	if err != nil {
		e.putBuf(p)
		return err
	}
	return c.enqueue(p)
}

// peer returns (creating if needed) the connection manager for a
// destination. Unknown destinations fail synchronously with
// ErrNoSuchProcess, preserving the failure hint callers act on.
func (e *tcpEndpoint) peer(to types.ProcessID) (*peerConn, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, fmt.Errorf("tcp transport send from %v: %w", e.pid, types.ErrStopped)
	}
	if c, ok := e.conns[to]; ok {
		return c, nil
	}
	if _, ok := e.net.PeerAddr(to); !ok {
		return nil, fmt.Errorf("tcp transport send to %v: %w", to, types.ErrNoSuchProcess)
	}
	c := newPeerConn(e, to)
	e.conns[to] = c
	return c, nil
}

// advertiseAddr is the listen address announced in hello frames. A listener
// bound to a specific host advertises it as-is; a wildcard listener
// ("0.0.0.0:p" / "[::]:p") is undialable from the peer, so the host is
// replaced by the local address of the connection toward that peer, which is
// the interface the peer can actually reach back.
func (e *tcpEndpoint) advertiseAddr(conn net.Conn) string {
	lnAddr, ok := e.ln.Addr().(*net.TCPAddr)
	if !ok || (lnAddr.IP != nil && !lnAddr.IP.IsUnspecified()) {
		return e.ln.Addr().String()
	}
	local, ok := conn.LocalAddr().(*net.TCPAddr)
	if !ok {
		return e.ln.Addr().String()
	}
	return net.JoinHostPort(local.IP.String(), strconv.Itoa(lnAddr.Port))
}

func (e *tcpEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.done)
	conns := e.conns
	e.conns = make(map[types.ProcessID]*peerConn)
	e.mu.Unlock()

	err := e.ln.Close()
	for _, c := range conns {
		c.cutConn()
	}
	return err
}

// --- per-peer connection management ------------------------------------------

// peerConn manages the outbound path to one destination: the socket, a
// bounded queue of encoded frames, and a writer goroutine that dials and
// drains the queue. A sender whose frame finds the socket idle writes it
// itself (enqueue); the busy flag gives the socket one writer at a time.
type peerConn struct {
	ep   *tcpEndpoint
	to   types.ProcessID
	wake chan struct{} // capacity 1: the queue grew or the socket came free

	mu          sync.Mutex
	q           []*[]byte       // frames for the writer, oldest first
	headSent    int             // bytes of q[0] already written, on headConn
	headConn    net.Conn        // the connection q[0]'s written bytes went out on
	busy        bool            // a write is in progress (writer or inline sender)
	conn        net.Conn        // current socket; nil while disconnected
	raw         syscall.RawConn // conn's raw handle for inline writes; nil where unsupported
	everDialed  bool            // a successful dial happened before (reconnect accounting)
	fails       int             // consecutive dial-or-write failures
	down        bool            // fails reached the threshold; sends fail fast
	writerLive  bool            // the writer goroutine is running
	lastFailure time.Time       // when the last failure happened (down re-probe pacing)

	inline inlineWrite // the inline sender's state; used only while holding busy
}

// inlineWrite is one non-blocking write attempt through syscall.RawConn.
// Its callback is bound once per peerConn, so an inline write allocates
// nothing.
type inlineWrite struct {
	b  []byte
	n  int // bytes of b the socket took
	fn func(fd uintptr) bool
}

func newPeerConn(e *tcpEndpoint, to types.ProcessID) *peerConn {
	c := &peerConn{ep: e, to: to, wake: make(chan struct{}, 1)}
	c.inline.fn = c.inline.write
	return c
}

// enqueue hands one encoded frame to the peer. When the peer has a live
// connection, nothing queued and no write in progress, the frame is written
// here, on the caller's goroutine, without blocking: what the socket does
// not take goes to the head of the queue, and the writer sends it on the
// same connection before any other frame. Otherwise the frame is queued for
// the writer. A full queue sheds its oldest frame that has not been started
// (the slow peer loses its own traffic; the reliability layer repairs the
// gap). A peer declared down fails fast until the backoff ceiling passes or
// inbound traffic clears the state.
func (c *peerConn) enqueue(p *[]byte) error {
	c.mu.Lock()
	if c.down {
		if time.Since(c.lastFailure) < c.ep.cfg.BackoffMax {
			c.mu.Unlock()
			c.ep.stats.framesDropped.Add(1)
			c.ep.putBuf(p)
			return fmt.Errorf("tcp transport send to %v: %w", c.to, ErrPeerDown)
		}
		// Probe: allow one frame through; a failure re-arms fast-fail.
		c.down = false
		c.fails = c.ep.cfg.FailThreshold - 1
	}
	if !c.writerLive {
		c.writerLive = true
		go c.writer()
	}
	if c.raw != nil && !c.busy && len(c.q) == 0 {
		return c.writeInline(p)
	}
	if len(c.q) >= c.ep.cfg.QueueFrames && !c.shedOldest() {
		c.mu.Unlock()
		c.ep.stats.framesShed.Add(1)
		c.ep.putBuf(p)
		return fmt.Errorf("tcp transport send to %v: %w", c.to, ErrBackpressure)
	}
	c.q = append(c.q, p)
	c.mu.Unlock()
	c.signal()
	return nil
}

// writeInline writes a frame on the caller's goroutine. Called with c.mu
// held, an idle socket and an empty queue; returns with c.mu released.
func (c *peerConn) writeInline(p *[]byte) error {
	c.busy = true
	conn, raw := c.conn, c.raw
	c.mu.Unlock()

	// Whatever stops the write short — a full socket, a socket error, a
	// closed socket or an expired write deadline — leaves the rest to the
	// writer, which reports and repairs any failure.
	w := &c.inline
	w.b, w.n = *p, 0
	_ = raw.Write(w.fn)
	n := w.n
	w.b = nil
	c.ep.stats.bytesSent.Add(uint64(n))

	c.mu.Lock()
	c.busy = false
	if n == len(*p) {
		c.fails, c.down = 0, false
		more := len(c.q) > 0 // queued behind the write
		c.mu.Unlock()
		c.ep.stats.framesSent.Add(1)
		c.ep.putBuf(p)
		if more {
			c.signal()
		}
		return nil
	}
	// The rest of the frame jumps every frame queued meanwhile.
	c.q = append(c.q, nil)
	copy(c.q[1:], c.q)
	c.q[0] = p
	c.headSent, c.headConn = n, conn
	c.mu.Unlock()
	c.signal()
	return nil
}

// shedOldest drops the oldest queued frame whose first byte has not been
// written, reporting whether one was found. Called with c.mu held.
func (c *peerConn) shedOldest() bool {
	i := 0
	if c.headSent > 0 {
		i = 1 // dropping a started frame would break the stream
	}
	if i >= len(c.q) {
		return false
	}
	c.ep.stats.framesShed.Add(1)
	c.ep.putBuf(c.q[i])
	c.q = append(c.q[:i], c.q[i+1:]...)
	c.q[:cap(c.q)][len(c.q)] = nil
	return true
}

// signal wakes the writer if it is waiting.
func (c *peerConn) signal() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// markAlive clears the down state (inbound traffic proves the peer lives).
func (c *peerConn) markAlive() {
	c.mu.Lock()
	c.down = false
	c.fails = 0
	c.mu.Unlock()
}

// cutConn closes the current socket from under its writer (endpoint close,
// chaos injection). Reports whether a live socket was cut.
func (c *peerConn) cutConn() bool {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
		return true
	}
	return false
}

func (c *peerConn) currentConn() net.Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn
}

// writer drains the queue: ensure a connection, write each frame under a
// deadline, account failures. It waits while an inline sender holds the
// socket. It exits when the endpoint closes or when the peer went down and
// the queue drained (a later send restarts it).
func (c *peerConn) writer() {
	for {
		c.mu.Lock()
		if c.busy || len(c.q) == 0 {
			c.mu.Unlock()
			select {
			case <-c.ep.done:
				c.writerExit()
				return
			case <-c.wake:
			}
			continue
		}
		p, sent, on := c.q[0], c.headSent, c.headConn
		copy(c.q, c.q[1:])
		c.q[len(c.q)-1] = nil
		c.q = c.q[:len(c.q)-1]
		c.headSent, c.headConn = 0, nil
		c.busy = true
		c.mu.Unlock()

		c.writeBuf(*p, sent, on)
		c.ep.putBuf(p)
		if c.drainIfDown() {
			return
		}
	}
}

// drainIfDown releases the socket and, once the peer is down, empties the
// queue and parks the writer, so per-dead-peer goroutines are reaped
// instead of accumulating. Returns true when the writer should exit.
func (c *peerConn) drainIfDown() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.busy = false
	if !c.down {
		return false
	}
	for _, p := range c.q {
		c.ep.stats.framesDropped.Add(1)
		c.ep.putBuf(p)
	}
	clear(c.q)
	c.q = c.q[:0]
	c.headSent, c.headConn = 0, nil
	c.closeLocked()
	return true
}

func (c *peerConn) writerExit() {
	c.mu.Lock()
	c.closeLocked()
	c.mu.Unlock()
}

// closeLocked marks the writer gone and closes its socket. Called with
// c.mu held.
func (c *peerConn) closeLocked() {
	c.writerLive = false
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.raw = nil, nil
	}
}

// writeBuf transmits one encoded frame whose first sent bytes already went
// out on connection on: connect if needed, write under a deadline, and on a
// broken write retry once on a fresh connection (the common case — a cut
// socket with a live peer — loses nothing). A started frame is finished on
// the connection that carries its head; if that connection is gone, the
// whole frame goes out on the next one, never its tail alone. A frame that
// cannot be transmitted is dropped; NAK/retransmit repairs it.
func (c *peerConn) writeBuf(b []byte, sent int, on net.Conn) {
	conn := c.currentConn()
	rest := b
	if sent > 0 && conn == on {
		rest = b[sent:]
	}
	if conn == nil {
		if conn = c.redial(); conn == nil {
			c.ep.stats.framesDropped.Add(1)
			return
		}
	}
	if c.writeTo(conn, rest) == nil {
		return
	}
	c.dropConn(conn)
	c.noteFailure()
	if conn = c.redial(); conn == nil {
		c.ep.stats.framesDropped.Add(1)
		return
	}
	if err := c.writeTo(conn, b); err != nil {
		c.dropConn(conn)
		c.noteFailure()
		c.ep.stats.framesDropped.Add(1)
	}
}

// writeTo writes the rest of one frame under the write deadline,
// accounting the result.
func (c *peerConn) writeTo(conn net.Conn, b []byte) error {
	_ = conn.SetWriteDeadline(time.Now().Add(c.ep.cfg.WriteTimeout))
	n, err := conn.Write(b)
	c.ep.stats.bytesSent.Add(uint64(n))
	if err == nil {
		c.noteSuccess()
		c.ep.stats.framesSent.Add(1)
		return nil
	}
	c.ep.stats.writeErrors.Add(1)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		c.ep.stats.writeTimeouts.Add(1)
	}
	return err
}

// redial establishes a fresh connection, sending the hello frame that
// teaches the peer our return route. On failure it sleeps the jittered
// exponential backoff (pacing the queue drain) and returns nil.
func (c *peerConn) redial() net.Conn {
	addr, ok := c.ep.net.PeerAddr(c.to)
	if !ok {
		c.noteFailure()
		c.backoffSleep()
		return nil
	}
	d := net.Dialer{Timeout: c.ep.cfg.DialTimeout}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		c.ep.stats.dialErrors.Add(1)
		c.noteFailure()
		c.backoffSleep()
		return nil
	}
	c.ep.configureConn(conn)
	if err := c.sendHello(conn); err != nil {
		conn.Close()
		c.ep.stats.dialErrors.Add(1)
		c.noteFailure()
		c.backoffSleep()
		return nil
	}
	c.mu.Lock()
	if c.everDialed {
		c.ep.stats.reconnects.Add(1)
	}
	c.everDialed = true
	c.conn, c.raw = conn, rawConnOf(conn)
	c.mu.Unlock()
	c.ep.stats.dials.Add(1)
	return conn
}

// sendHello writes the identity frame a fresh connection opens with, so the
// accepting side learns the dialer's return route.
func (c *peerConn) sendHello(conn net.Conn) error {
	p := c.ep.getBuf()
	b := append(*p, 0, 0, 0, 0)
	b = wire.AppendFrame(b, nil, c.ep.pid, c.ep.advertiseAddr(conn))
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	*p = b
	_ = conn.SetWriteDeadline(time.Now().Add(c.ep.cfg.WriteTimeout))
	_, err := conn.Write(b)
	c.ep.putBuf(p)
	return err
}

func (c *peerConn) dropConn(conn net.Conn) {
	conn.Close()
	c.mu.Lock()
	if c.conn == conn {
		c.conn, c.raw = nil, nil
	}
	c.mu.Unlock()
}

func (c *peerConn) noteSuccess() {
	c.mu.Lock()
	c.fails = 0
	c.down = false
	c.mu.Unlock()
}

// noteFailure counts one consecutive failure; crossing the threshold
// declares the peer down and tells the endpoint's peer-down handler.
func (c *peerConn) noteFailure() {
	c.mu.Lock()
	c.fails++
	c.lastFailure = time.Now()
	declare := c.fails >= c.ep.cfg.FailThreshold && !c.down
	if declare {
		c.down = true
	}
	c.mu.Unlock()
	if declare {
		c.ep.notifyPeerDown(c.to)
	}
}

// backoffSleep pauses the writer for the jittered exponential backoff of
// the current failure streak, interruptible by endpoint close.
func (c *peerConn) backoffSleep() {
	c.mu.Lock()
	fails := c.fails
	c.mu.Unlock()
	d := c.ep.cfg.BackoffMin << uint(min(fails-1, 16))
	if d > c.ep.cfg.BackoffMax || d <= 0 {
		d = c.ep.cfg.BackoffMax
	}
	// ±50% jitter so a restarted daemon is not hammered in lockstep.
	d = d/2 + time.Duration(rand.Int63n(int64(d)))
	select {
	case <-time.After(d):
	case <-c.ep.done:
	}
}
