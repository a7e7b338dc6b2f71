package node

import (
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/types"
)

// Batching configures the sender-side outbox that coalesces hot-path
// multicast traffic (KindCast, KindOrder, KindStability) into batch frames.
// The zero value selects the defaults.
type Batching struct {
	// MaxBatch caps how many messages one flushed frame may carry. A queue
	// reaching the cap is flushed immediately. Zero selects 256.
	MaxBatch int
	// Window bounds how long a message may sit in the outbox when the
	// actor stays busy: a timer flushes everything pending after at most
	// (roughly) one window. The common flush path is much faster — the
	// actor loop flushes whenever it runs out of queued work. Zero selects
	// 2ms, comfortably inside the group layer's view-install grace.
	Window time.Duration
}

// DefaultBatching returns the default knob settings.
func DefaultBatching() Batching {
	return Batching{MaxBatch: 256, Window: 2 * time.Millisecond}
}

func (b Batching) withDefaults() Batching {
	if b.MaxBatch <= 0 {
		b.MaxBatch = 256
	}
	if b.Window <= 0 {
		b.Window = 2 * time.Millisecond
	}
	return b
}

// batchable reports whether a message kind rides the coalescing outbox.
// Only the multicast data path qualifies: casts, stability reports (the
// cumulative acknowledgements) and ABCAST order announcements are
// fire-and-forget (protocols recover from their loss via acks, NAKs, retries
// and failure detection), so reporting their transport errors
// asynchronously is safe.
// Everything else — RPC, membership, state transfer, heartbeats, hierarchy
// management — keeps the synchronous direct path because callers act on its
// errors (contact fallback in tree broadcast and leaf reports, dial errors
// on TCP).
func batchable(k types.Kind) bool {
	switch k {
	case types.KindCast, types.KindOrder, types.KindStability:
		return true
	}
	return false
}

// outbox accumulates outbound messages per destination and flushes them as
// batch frames. A queue holds the caller's message pointers, not copies: a
// multicast template sits on every destination's queue at once, and each
// destination's envelope is stamped only when its frame is built. A
// short-held mutex (mu) guards the queue state; the transport send itself
// happens under a per-destination lock instead, so a destination whose
// connection has stalled (TCP backpressure) can only block traffic to
// itself, never sends queued for other destinations. Holding the
// destination lock across detach+send serialises frames per destination and
// thereby preserves the transport's per-pair FIFO order.
type outbox struct {
	ep  transport.Endpoint
	max int
	win time.Duration

	mu     sync.Mutex
	queues map[types.ProcessID][]*types.Message
	order  []types.ProcessID             // destinations in first-enqueue order
	spare  []types.ProcessID             // flushAll's recycled order buffer
	locks  map[types.ProcessID]*destLock // per-destination send serialisation
	free   [][]*types.Message            // recycled queue buffers (cap == max)
	timer  *time.Timer                   // the window timer, created on first arm
	armed  bool                          // timer set for the pending messages
}

type destLock struct{ mu sync.Mutex }

// frameBuf is the scratch one flush builds its frames in: envelope copies
// of the queued messages, stamped with the destination and linked back to
// the queued message, and the pointer slice handed to the transport.
// Endpoints borrow a frame only for the duration of SendBatch, so the
// buffer is reused across flushes through a sync.Pool — which, unlike a
// buffer kept per destination, lets the collector drop it when sends go
// quiet.
type frameBuf struct {
	envs []types.Message
	ptrs []*types.Message
}

var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

func newOutbox(ep transport.Endpoint, b Batching) *outbox {
	return &outbox{
		ep:     ep,
		max:    b.MaxBatch,
		win:    b.Window,
		queues: make(map[types.ProcessID][]*types.Message),
		locks:  make(map[types.ProcessID]*destLock),
	}
}

// enqueueTo queues msg for destination to, flushing that destination's
// queue once it reaches the batch cap. The same message may sit on several
// queues; it is read, never written, until its last frame is built.
func (o *outbox) enqueueTo(to types.ProcessID, msg *types.Message) {
	o.mu.Lock()
	q, ok := o.queues[to]
	if !ok {
		// Reuse a flushed buffer: queues cycle constantly on the hot path
		// and reallocating the append ladder per frame is pure GC pressure.
		if n := len(o.free); n > 0 {
			q = o.free[n-1][:0]
			o.free = o.free[:n-1]
		} else {
			q = make([]*types.Message, 0, o.max)
		}
	}
	q = append(q, msg)
	o.queues[to] = q
	if len(q) == 1 {
		o.order = append(o.order, to)
	}
	full := len(q) >= o.max
	if !full && !o.armed {
		o.armed = true
		if o.timer == nil {
			o.timer = time.AfterFunc(o.win, o.onWindow)
		} else {
			o.timer.Reset(o.win)
		}
	}
	o.mu.Unlock()
	if full {
		o.flushDest(to)
	}
}

// destLockFor returns the send lock for a destination, creating it on first
// use. Callers must not hold o.mu.
func (o *outbox) destLockFor(to types.ProcessID) *destLock {
	o.mu.Lock()
	defer o.mu.Unlock()
	dl, ok := o.locks[to]
	if !ok {
		dl = &destLock{}
		o.locks[to] = dl
	}
	return dl
}

// flushDest flushes everything pending for one destination, in frames of at
// most max messages. Direct (unbatched) sends call it first so a protocol
// message can never overtake casts queued for the same destination. The
// detach and the transport send both happen under the destination's lock,
// which keeps concurrent flushes (actor idle-flush vs window timer) from
// reordering frames while letting other destinations proceed.
func (o *outbox) flushDest(to types.ProcessID) {
	dl := o.destLockFor(to)
	dl.mu.Lock()
	defer dl.mu.Unlock()

	o.mu.Lock()
	q := o.queues[to]
	delete(o.queues, to)
	o.mu.Unlock()
	if len(q) == 0 {
		return
	}
	fb := framePool.Get().(*frameBuf)
	for start := 0; start < len(q); start += o.max {
		end := min(start+o.max, len(q))
		_ = o.ep.SendBatch(fb.stamp(q[start:end], to))
	}
	fb.release(min(len(q), o.max))
	// The buffer goes back on the free list emptied: a stale pointer would
	// keep its message alive for as long as the buffer waits there.
	o.mu.Lock()
	if cap(q) == o.max && len(o.free) < 64 {
		clear(q)
		o.free = append(o.free, q)
	}
	o.mu.Unlock()
}

// stamp copies msgs into the buffer's envelopes, addressed to to and linked
// back to the frozen messages they came from (types.Message.Stamp), and
// returns the frame of pointers to them.
func (fb *frameBuf) stamp(msgs []*types.Message, to types.ProcessID) []*types.Message {
	if len(msgs) > len(fb.envs) {
		n := max(len(msgs), 2*len(fb.envs))
		fb.envs = make([]types.Message, n)
		fb.ptrs = make([]*types.Message, n)
	}
	ptrs := fb.ptrs[:len(msgs)]
	for i, m := range msgs {
		m.Stamp(&fb.envs[i], to)
		ptrs[i] = &fb.envs[i]
	}
	return ptrs
}

// release empties the first n envelopes — all a flush stamped — so a pooled
// buffer pins no payload and no frozen message, and returns the buffer to
// the pool. The pointer slice addresses the buffer's own envelopes only and
// needs no clearing.
func (fb *frameBuf) release(n int) {
	clear(fb.envs[:n])
	framePool.Put(fb)
}

// flushAll flushes every pending queue, in first-enqueue order. The actor
// loop calls it whenever it runs out of queued work; the window timer calls
// it when the actor stays busy for longer than the flush window.
func (o *outbox) flushAll() {
	o.mu.Lock()
	if len(o.queues) == 0 && !o.armed && len(o.order) == 0 {
		o.mu.Unlock()
		return // fast path: nothing pending, nothing to reset
	}
	// Take the order list whole and hand the next enqueue the spare, so a
	// flush allocates no destination list. A concurrent flush finds no
	// spare and starts a fresh one.
	dests := o.order[:0]
	for _, to := range o.order {
		if len(o.queues[to]) > 0 {
			dests = append(dests, to)
		}
	}
	o.order, o.spare = o.spare[:0], nil
	if o.armed {
		o.timer.Stop()
		o.armed = false
	}
	o.mu.Unlock()
	for _, to := range dests {
		o.flushDest(to)
	}
	o.mu.Lock()
	if o.spare == nil {
		o.spare = dests[:0]
	}
	o.mu.Unlock()
}

func (o *outbox) onWindow() {
	o.mu.Lock()
	o.armed = false
	o.mu.Unlock()
	o.flushAll()
}

// stop cancels the window timer. Pending messages are dropped with the
// endpoint, exactly as messages already handed to the transport would be —
// and released, along with the recycled buffers: a halted process stays
// reachable from its runtime, and must not pin what it never sent.
func (o *outbox) stop() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.timer != nil {
		o.timer.Stop()
		o.armed = false
	}
	clear(o.queues)
	o.order, o.spare, o.free = nil, nil, nil
}
