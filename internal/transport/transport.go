// Package transport abstracts message delivery between processes so the
// protocol stack runs unchanged over the in-memory simulated network
// (internal/netsim) and over real TCP connections between isis-node
// daemons — the substrate-independence half of the paper's claim.
//
// The unit of transmission is a frame: one or more messages bound for the
// same destination, sent with SendBatch and received as one slice from
// Inbox. Batching is how the hot path amortizes per-send cost — one queue
// operation on the simulated fabric, one length-prefixed wire frame and one
// socket write on TCP — while message identity and ordering semantics stay
// exactly those of individual sends: frames preserve the order messages
// were batched in, and successive frames to one destination arrive in send
// order.
package transport

import (
	"repro/internal/types"
)

// Endpoint is one process's attachment to the network. Send and SendBatch
// are safe for concurrent use; Inbox returns the single inbound channel
// drained by the process's actor loop.
//
// Send and SendBatch borrow the envelopes and the batch slice they are
// given, as io.Writer borrows its buffer: an implementation must not keep a
// message pointer or the batch slice after it returns. The node's outbox
// depends on this: it builds every frame in scratch memory that the next
// flush overwrites.
//
// The arrays inside a message (VT, Path, Payload, Stab, Group.Path) are
// borrowed the same way, except on the multicast data path (KindCast,
// KindOrder, KindStability): there the code that built a message froze its
// arrays, and they stay read-only for the sender and for every receiver
// for good. A data-path envelope the node outbox sends is a stamp of a
// message frozen whole (types.Message.Stamp: To set, linked back to the
// frozen message). The memory transport hands every receiver of such a
// stamp the frozen message itself, with To unset: one envelope, shared
// read-only by the sender and all its receivers. Any other envelope it
// copies at send time, sharing a data-path message's arrays and copying
// every other kind's. TCP encodes the frame on the caller's goroutine, so
// its receivers always decode private envelopes and arrays.
type Endpoint interface {
	// PID returns the process id this endpoint belongs to.
	PID() types.ProcessID
	// Send transmits a single message (a frame of one). msg.From is filled
	// in by the caller (the node runtime); msg.To selects the destination.
	Send(msg *types.Message) error
	// SendBatch transmits several messages as one frame. All messages must
	// share the same destination (msgs[0].To routes the frame). An empty
	// batch is a no-op.
	SendBatch(msgs []*types.Message) error
	// Inbox is the channel of inbound frames. A frame holds at least one
	// message; messages appear in the order the sender batched them.
	Inbox() <-chan []*types.Message
	// Close detaches the endpoint. Subsequent Sends fail with ErrStopped.
	Close() error
}

// Network creates endpoints. Implementations: Memory (netsim-backed) and
// TCP (real sockets).
type Network interface {
	// Attach creates the endpoint for a process.
	Attach(pid types.ProcessID) (Endpoint, error)
}

// Fixed is a single-use Network handing out one already-attached endpoint.
// Deployments that need to control attachment parameters (for example the
// TCP listen address) attach the endpoint themselves and wrap it in a Fixed
// so the standard bootstrap path still works.
type Fixed struct{ Endpoint Endpoint }

// Attach implements Network by returning the wrapped endpoint.
func (f Fixed) Attach(types.ProcessID) (Endpoint, error) { return f.Endpoint, nil }
