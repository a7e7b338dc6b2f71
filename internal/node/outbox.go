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
// batch frames. A short-held mutex (mu) guards the queue state; the
// transport send itself happens under a per-destination lock instead, so a
// destination whose connection has stalled (TCP backpressure) can only
// block traffic to itself, never sends queued for other destinations.
// Holding the destination lock across detach+send serialises frames per
// destination and thereby preserves the transport's per-pair FIFO order.
type outbox struct {
	ep  transport.Endpoint
	max int
	win time.Duration

	mu     sync.Mutex
	queues map[types.ProcessID][]*types.Message
	order  []types.ProcessID             // destinations in first-enqueue order
	locks  map[types.ProcessID]*destLock // per-destination send serialisation
	free   [][]*types.Message            // recycled queue buffers (cap == max)
	timer  *time.Timer                   // armed while anything is pending
}

type destLock struct{ mu sync.Mutex }

func newOutbox(ep transport.Endpoint, b Batching) *outbox {
	return &outbox{
		ep:     ep,
		max:    b.MaxBatch,
		win:    b.Window,
		queues: make(map[types.ProcessID][]*types.Message),
		locks:  make(map[types.ProcessID]*destLock),
	}
}

// enqueue queues msg for its destination, flushing that destination's queue
// once it reaches the batch cap.
func (o *outbox) enqueue(msg *types.Message) error {
	o.mu.Lock()
	q, ok := o.queues[msg.To]
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
	o.queues[msg.To] = q
	if len(q) == 1 {
		o.order = append(o.order, msg.To)
	}
	full := len(q) >= o.max
	if !full && o.timer == nil {
		o.timer = time.AfterFunc(o.win, o.onWindow)
	}
	o.mu.Unlock()
	if full {
		o.flushDest(msg.To)
	}
	return nil
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
	for start := 0; start < len(q); start += o.max {
		end := start + o.max
		if end > len(q) {
			end = len(q)
		}
		_ = o.ep.SendBatch(q[start:end])
	}
	// Both transports are done with the slice when SendBatch returns (the
	// fabric clones at send time, TCP copies into its wire frame), so the
	// buffer can be recycled — emptied first: a stale pointer would keep its
	// message, and the whole SendCopies block the message was cut from, alive
	// for as long as the buffer waits on the free list.
	o.mu.Lock()
	if cap(q) == o.max && len(o.free) < 64 {
		clear(q)
		o.free = append(o.free, q)
	}
	o.mu.Unlock()
}

// flushAll flushes every pending queue, in first-enqueue order. The actor
// loop calls it whenever it runs out of queued work; the window timer calls
// it when the actor stays busy for longer than the flush window.
func (o *outbox) flushAll() {
	o.mu.Lock()
	if len(o.queues) == 0 && o.timer == nil && len(o.order) == 0 {
		o.mu.Unlock()
		return // fast path: nothing pending, nothing to reset
	}
	dests := make([]types.ProcessID, 0, len(o.order))
	for _, to := range o.order {
		if len(o.queues[to]) > 0 {
			dests = append(dests, to)
		}
	}
	o.order = o.order[:0]
	if o.timer != nil {
		o.timer.Stop()
		o.timer = nil
	}
	o.mu.Unlock()
	for _, to := range dests {
		o.flushDest(to)
	}
}

func (o *outbox) onWindow() {
	o.mu.Lock()
	o.timer = nil
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
		o.timer = nil
	}
	clear(o.queues)
	o.order, o.free = nil, nil
}
