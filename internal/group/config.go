// Package group implements flat (small) virtually synchronous process
// groups — the abstraction 1989 ISIS already provided and the baseline the
// paper's hierarchical groups are measured against.
//
// Every member of a flat group stores the full membership list, every
// multicast goes to every member, and every membership change is announced
// to every member: exactly the costs the paper identifies as the obstacle to
// scaling beyond ~50 workstations.
//
// A process participates in groups through a Stack bound to its node. All
// protocol state is owned by the node's actor goroutine; the exported
// blocking calls (Join, Cast, Leave) may be used from any other goroutine.
package group

import (
	"time"

	"repro/internal/member"
	"repro/internal/reliability"
	"repro/internal/types"
)

// Delivery is one application message handed to the OnDeliver callback.
// VT and Payload alias the delivered message's arrays, which the sender,
// the retransmit buffers and (on the simulated network) every other member
// share: they are read-only, and may be retained as they are.
type Delivery struct {
	Group    types.GroupID
	View     types.ViewID
	From     types.ProcessID
	ID       types.MsgID
	Ordering types.Ordering
	Seq      uint64   // agreed sequence number for ABCAST deliveries
	VT       []uint64 // sender vector timestamp for CBCAST deliveries
	Payload  []byte
}

// Config controls one group membership of one process.
type Config struct {
	// Resiliency is the number of destination acknowledgements a Cast waits
	// for before reporting success (the paper's "resiliency" parameter).
	// Zero means 1. It is capped at the number of other members.
	Resiliency int

	// OnDeliver is invoked for every delivered multicast. It runs on the
	// node's actor goroutine and must not block.
	OnDeliver func(Delivery)

	// OnView is invoked whenever a new view is installed. It runs on the
	// node's actor goroutine and must not block.
	OnView func(member.View)

	// State is the application's durable-state hook: its Snapshot is
	// captured view-consistently at installs and streamed to joining
	// members, its Restore receives the checkpoint on join (or from the
	// write-ahead log at Create). Handlers that also implement StateApplier
	// get WAL-recovered deliveries through Apply instead of OnDeliver.
	State StateHandler

	// StateChunkBytes is the checkpoint transfer's chunk size. Zero selects
	// 32KiB.
	StateChunkBytes int

	// StateGrace bounds how long a joining member with a State handler holds
	// application deliveries waiting for a checkpoint before proceeding
	// stateless (every potential holder may be gone). Zero selects 2s.
	StateGrace time.Duration

	// InstallGrace bounds how long a member waits for the flush delivery cut
	// to be satisfied before installing a new view anyway. It protects
	// against wedging forever when messages were lost. Zero selects 500ms.
	InstallGrace time.Duration

	// Reliability tunes the message-stability and NAK/retransmit layer
	// (zero fields select the defaults).
	Reliability reliability.Config
}

func (c Config) withDefaults() Config {
	if c.Resiliency <= 0 {
		c.Resiliency = 1
	}
	if c.StateChunkBytes <= 0 {
		c.StateChunkBytes = 32 << 10
	}
	if c.StateGrace <= 0 {
		c.StateGrace = 2 * time.Second
	}
	if c.InstallGrace <= 0 {
		c.InstallGrace = 500 * time.Millisecond
	}
	c.Reliability = c.Reliability.WithDefaults()
	return c
}

// Fixed protocol timings and bounds.
const (
	// walCompactBytes is the write-ahead log's compaction threshold: at a
	// checkpoint capture, logs that grew past it since their last snapshot
	// record are rewritten to the fresh checkpoint.
	walCompactBytes = 1 << 20

	// retryInterval is how often blocking Join and Leave retry their request
	// while the contact or coordinator is unresponsive.
	retryInterval = 300 * time.Millisecond

	// flushRetry is how often a coordinator re-sends its view proposal to
	// members that have not acknowledged the flush, so a lost propose or
	// acknowledgement cannot stall a view change. It is deliberately close
	// to the NAK interval: a wedged coordinator parks incoming casts, so
	// every retry period of stall is a period of delivery divergence the
	// cut must later repair.
	flushRetry = 40 * time.Millisecond

	// stabilityTicks is how many recovery ticks pass between standalone
	// stability reports while traffic is idle (reports also ride every
	// outgoing cast for free).
	stabilityTicks = 3

	// maxRetransmit caps how many casts, ABCAST bindings or checkpoint
	// chunks one NAK answer retransmits; the requester re-asks for the rest
	// once those land.
	maxRetransmit = 128

	// stabilityFanout bounds how many members one standalone stability tick
	// reports to. Reports rotate round-robin over the view, so every member
	// still hears from every other member once per rotation, but an idle
	// n-member group costs O(n·fanout) messages per tick instead of O(n²) —
	// the term that would otherwise dominate large groups.
	stabilityFanout = 4
)
