// Package node implements the per-process runtime every protocol layer runs
// on: an actor-style event loop that owns all protocol state for one
// workstation process (simulated or TCP — the paper's substrate-independence
// claim starts here).
//
// # Concurrency model
//
// Each Node runs exactly one actor goroutine. Inbound messages, timer
// expirations and posted closures are all executed on that goroutine, so
// protocol handlers never need locks and never race with each other.
// Handlers must not block; blocking convenience calls (Request, and the
// group layer's Join/Cast helpers) are issued from application goroutines
// and park on channels that the actor goroutine signals.
//
// # Batching and pipelining
//
// Outbound multicast traffic (casts, stability reports, ABCAST order
// announcements) is coalesced by a per-destination outbox: sends enqueue,
// and the pending queues are flushed as transport batch frames when the actor runs out of
// queued work, when a queue reaches Batching.MaxBatch, or at the latest
// after Batching.Window. Because the flush-on-idle path runs before the
// actor blocks, batching adds no latency when the process is idle and
// amortizes per-send cost exactly when the process is busy. Error-sensitive
// kinds (RPC, membership, heartbeats, hierarchy management) keep the
// synchronous direct path, and a direct send first flushes whatever the
// outbox holds for that destination, so per-destination FIFO order is
// preserved across both paths.
//
// A multicast is built once. SendCopies puts the caller's template itself on
// every destination's queue; each destination's envelope is copied from it
// only when that destination's frame is built, into pooled scratch the
// transport borrows for the length of the send (transport.Endpoint's
// contract). A fan-out of n therefore allocates nothing per destination,
// and a template must not change after SendCopies returns.
//
// Inbound frames are dispatched as batches:
// runs of consecutive same-kind messages go to a HandleBatch handler when
// one is registered (the group layer registers one for casts), letting the
// ordering engines release deliveries in one pass.
package node

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/types"
)

// Handler processes one inbound message. It runs on the node's actor
// goroutine and must not block.
type Handler func(*types.Message)

// BatchHandler processes a run of consecutive inbound messages of one kind
// that arrived in the same transport frame. It runs on the node's actor
// goroutine and must not block.
type BatchHandler func([]*types.Message)

// Node hosts one process.
type Node struct {
	pid types.ProcessID
	ep  transport.Endpoint
	ob  *outbox

	handlersMu sync.RWMutex
	handlers   map[types.Kind]Handler
	batchH     map[types.Kind]BatchHandler
	defaultH   Handler

	actions chan func()
	stop    chan struct{}
	stopped chan struct{}
	once    sync.Once

	started atomic.Bool
	corr    atomic.Uint64
	waiters sync.Map // corr(uint64) -> chan *types.Message

	timerMu sync.Mutex
	timers  map[*time.Timer]struct{}
}

// New attaches a new node for pid to the network with default batching and
// returns it. The node does not process messages until Start is called,
// giving callers a window to register handlers.
func New(pid types.ProcessID, network transport.Network) (*Node, error) {
	return NewWithBatching(pid, network, DefaultBatching())
}

// NewWithBatching is New with explicit outbox batching knobs.
func NewWithBatching(pid types.ProcessID, network transport.Network, b Batching) (*Node, error) {
	ep, err := network.Attach(pid)
	if err != nil {
		return nil, fmt.Errorf("node %v: %w", pid, err)
	}
	n := &Node{
		pid:      pid,
		ep:       ep,
		handlers: make(map[types.Kind]Handler),
		batchH:   make(map[types.Kind]BatchHandler),
		actions:  make(chan func(), 1024),
		stop:     make(chan struct{}),
		stopped:  make(chan struct{}),
		timers:   make(map[*time.Timer]struct{}),
		ob:       newOutbox(ep, b.withDefaults()),
	}
	return n, nil
}

// PID returns the process id hosted by this node.
func (n *Node) PID() types.ProcessID { return n.pid }

// Endpoint exposes the underlying transport endpoint (used by tests and the
// TCP daemon to learn listen addresses).
func (n *Node) Endpoint() transport.Endpoint { return n.ep }

// Handle registers the handler for a message kind. Registering nil removes
// the handler. Handlers may be registered before or after Start.
func (n *Node) Handle(kind types.Kind, h Handler) {
	n.handlersMu.Lock()
	defer n.handlersMu.Unlock()
	if h == nil {
		delete(n.handlers, kind)
		return
	}
	n.handlers[kind] = h
}

// HandleBatch registers a batch handler for a message kind: runs of
// consecutive inbound messages of that kind arriving in one transport frame
// are handed over as a slice instead of one call per message. Kinds without
// a batch handler fall back to the per-message Handler. Registering nil
// removes the batch handler.
func (n *Node) HandleBatch(kind types.Kind, h BatchHandler) {
	n.handlersMu.Lock()
	defer n.handlersMu.Unlock()
	if h == nil {
		delete(n.batchH, kind)
		return
	}
	n.batchH[kind] = h
}

// HandleDefault registers a catch-all handler for kinds without a specific
// handler.
func (n *Node) HandleDefault(h Handler) {
	n.handlersMu.Lock()
	defer n.handlersMu.Unlock()
	n.defaultH = h
}

// Start launches the actor loop. Calling Start more than once is a no-op.
func (n *Node) Start() {
	if n.started.CompareAndSwap(false, true) {
		go n.loop()
	}
}

// Stop shuts the node down: the actor loop exits, outstanding timers are
// cancelled and the transport endpoint is closed. Stop is idempotent.
func (n *Node) Stop() {
	n.once.Do(func() {
		close(n.stop)
		if n.started.Load() {
			<-n.stopped
		}
		n.ob.stop()
		n.timerMu.Lock()
		for t := range n.timers {
			t.Stop()
		}
		n.timers = map[*time.Timer]struct{}{}
		n.timerMu.Unlock()
		_ = n.ep.Close()
		// Unblock any waiters so callers do not hang on a dead node.
		n.waiters.Range(func(k, v any) bool {
			n.waiters.Delete(k)
			return true
		})
	})
}

func (n *Node) loop() {
	defer close(n.stopped)
	inbox := n.ep.Inbox()
	for {
		select {
		case <-n.stop:
			return
		case fn := <-n.actions:
			fn()
		case frame, ok := <-inbox:
			if !ok {
				return
			}
			n.dispatchFrame(frame)
		default:
			// Out of queued work: flush coalesced sends before blocking, so
			// batching never delays a message while the process is idle.
			n.ob.flushAll()
			select {
			case <-n.stop:
				return
			case fn := <-n.actions:
				fn()
			case frame, ok := <-inbox:
				if !ok {
					return
				}
				n.dispatchFrame(frame)
			}
		}
	}
}

// dispatchFrame hands one inbound frame to the handler table. Runs of
// consecutive same-kind messages go to the kind's BatchHandler when one is
// registered; everything else is dispatched per message.
func (n *Node) dispatchFrame(frame []*types.Message) {
	for i := 0; i < len(frame); {
		kind := frame[i].Kind
		n.handlersMu.RLock()
		bh := n.batchH[kind]
		n.handlersMu.RUnlock()
		if bh == nil {
			n.dispatch(frame[i])
			i++
			continue
		}
		j := i + 1
		for j < len(frame) && frame[j].Kind == kind {
			j++
		}
		bh(frame[i:j])
		i = j
	}
}

func (n *Node) dispatch(msg *types.Message) {
	// Replies are routed to the waiter registered by Request; everything
	// else goes through the handler table.
	if msg.Kind == types.KindReply {
		if ch, ok := n.waiters.Load(msg.Corr); ok {
			n.waiters.Delete(msg.Corr)
			select {
			case ch.(chan *types.Message) <- msg:
			default:
			}
			return
		}
		// A late reply after the waiter timed out: fall through to the
		// handler table so protocols can observe it if they care.
	}
	n.handlersMu.RLock()
	h := n.handlers[msg.Kind]
	if h == nil {
		h = n.defaultH
	}
	n.handlersMu.RUnlock()
	if h != nil {
		h(msg)
	}
}

// Do posts fn for execution on the actor goroutine and returns immediately.
// It is the mechanism application goroutines use to touch protocol state.
func (n *Node) Do(fn func()) {
	select {
	case n.actions <- fn:
	case <-n.stop:
	}
}

// Call posts fn to the actor goroutine and waits for it to finish. It
// returns ErrStopped if the node stops before fn runs. Call must not be
// invoked from the actor goroutine itself.
func (n *Node) Call(fn func()) error {
	done := make(chan struct{})
	select {
	case n.actions <- func() { fn(); close(done) }:
	case <-n.stop:
		return types.ErrStopped
	}
	select {
	case <-done:
		return nil
	case <-n.stop:
		return types.ErrStopped
	}
}

// Send fills in the sender and transmits msg. It may be called from any
// goroutine, including handlers.
//
// Hot-path multicast kinds (casts, stability reports, order announcements)
// are coalesced through the outbox and flushed as batch frames; their transport
// errors surface asynchronously, like loss on a real network. The outbox
// keeps msg until the flush and stamps the destination into the frame's copy,
// so msg must not change after the call. All other kinds are transmitted
// synchronously, after flushing anything the outbox holds for the same
// destination so per-destination FIFO order is kept.
func (n *Node) Send(to types.ProcessID, msg *types.Message) error {
	msg.From = n.pid
	if batchable(msg.Kind) {
		n.ob.enqueueTo(to, msg)
		return nil
	}
	msg.To = to
	n.ob.flushDest(to)
	return n.ep.Send(msg)
}

// SendCopies sends the template to every listed destination (skipping the
// node itself) and returns the number sent. For the batched kinds the
// template itself waits on every destination's outbox queue, and each
// destination's envelope is stamped into a pooled frame at flush time, so a
// fan-out of n allocates nothing per destination. The template — scalar
// fields and arrays alike — is therefore immutable after the call: the
// window timer may read it from another goroutine up to a flush window
// later. Other kinds go out synchronously through one envelope reused for
// every destination.
func (n *Node) SendCopies(dests []types.ProcessID, template *types.Message) int {
	template.From = n.pid
	sent := 0
	if batchable(template.Kind) {
		for _, d := range dests {
			if d != n.pid {
				n.ob.enqueueTo(d, template)
				sent++
			}
		}
		return sent
	}
	env := *template
	for _, d := range dests {
		if d != n.pid && n.Send(d, &env) == nil {
			sent++
		}
	}
	return sent
}

// NextCorr returns a correlation id unique within this process.
func (n *Node) NextCorr() uint64 { return n.corr.Add(1) }

// Request sends msg to the destination and waits for a KindReply carrying
// the same correlation id. It must not be called from the actor goroutine.
func (n *Node) Request(ctx context.Context, to types.ProcessID, msg *types.Message) (*types.Message, error) {
	corr := n.NextCorr()
	msg.Corr = corr
	msg.ReplyTo = n.pid
	ch := make(chan *types.Message, 1)
	n.waiters.Store(corr, ch)
	defer n.waiters.Delete(corr)

	if err := n.Send(to, msg); err != nil {
		return nil, err
	}
	select {
	case reply := <-ch:
		if reply.Err != "" {
			return reply, fmt.Errorf("%s: %w", reply.Err, types.ErrRejected)
		}
		return reply, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("request %s to %v: %w", msg.Kind, to, types.ErrTimeout)
	case <-n.stop:
		return nil, types.ErrStopped
	}
}

// Reply sends a KindReply answering req back to its originator, copying the
// correlation id. An empty errStr indicates success.
func (n *Node) Reply(req *types.Message, payload []byte, errStr string) error {
	to := req.ReplyTo
	if to.IsNil() {
		to = req.From
	}
	return n.Send(to, &types.Message{
		Kind:    types.KindReply,
		Corr:    req.Corr,
		Group:   req.Group,
		Payload: payload,
		Err:     errStr,
	})
}

// After schedules fn to run on the actor goroutine after d. The returned
// cancel function stops the timer if it has not fired.
func (n *Node) After(d time.Duration, fn func()) (cancel func()) {
	var t *time.Timer
	t = time.AfterFunc(d, func() {
		n.timerMu.Lock()
		delete(n.timers, t)
		n.timerMu.Unlock()
		n.Do(fn)
	})
	n.timerMu.Lock()
	n.timers[t] = struct{}{}
	n.timerMu.Unlock()
	return func() {
		t.Stop()
		n.timerMu.Lock()
		delete(n.timers, t)
		n.timerMu.Unlock()
	}
}

// Every schedules fn to run on the actor goroutine every interval until the
// returned cancel function is called or the node stops.
func (n *Node) Every(interval time.Duration, fn func()) (cancel func()) {
	stop := make(chan struct{})
	var stopOnce sync.Once
	cancelFn := func() { stopOnce.Do(func() { close(stop) }) }
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				n.Do(fn)
			case <-stop:
				return
			case <-n.stop:
				return
			}
		}
	}()
	return cancelFn
}

// Stopped reports whether the node has been stopped.
func (n *Node) Stopped() bool {
	select {
	case <-n.stop:
		return true
	default:
		return false
	}
}

// StopC returns a channel closed when the node stops; protocol layers select
// on it from their own helper goroutines.
func (n *Node) StopC() <-chan struct{} { return n.stop }
