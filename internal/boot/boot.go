// Package boot wires one process's runtime layers together — transport
// endpoint, node actor loop, failure detector, group stack and hierarchical
// host — in the one canonical order every deployment uses.
//
// The public facade's Runtime spawns every process through Spawn, on the
// in-memory simulation and on TCP alike (the isis-node daemon is a TCP
// Runtime), so both substrates run literally the same bootstrap code; only
// the transport.Network differs. Tests and the experiment harness call
// Spawn directly only for a process whose raw node or host they must drive.
package boot

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/fdetect"
	"repro/internal/group"
	"repro/internal/node"
	"repro/internal/transport"
	"repro/internal/types"
)

// Proc is one fully wired process: its node, failure detector, flat-group
// stack and hierarchical-group host.
type Proc struct {
	Node     *node.Node
	Detector *fdetect.Detector
	Stack    *group.Stack
	Host     *core.Host

	stopOnce sync.Once
}

// Spawn attaches a process to the network and starts its actor loop. The
// detector's suspicions feed the group stack, and the stack's views feed the
// detector's monitored set — identical wiring over any transport. The
// batching knobs configure the node's outbox coalescing (the zero value
// selects the defaults). A non-empty walDir makes this process's stateful
// groups durable: applied deliveries are logged there and recovered at group
// Create.
func Spawn(pid types.ProcessID, network transport.Network, det fdetect.Config, batching node.Batching, walDir string) (*Proc, error) {
	n, err := node.NewWithBatching(pid, network, batching)
	if err != nil {
		return nil, fmt.Errorf("boot %v: %w", pid, err)
	}
	p := &Proc{Node: n}
	p.Detector = fdetect.New(n, det, func(suspect types.ProcessID) {
		p.Stack.ReportSuspicion(suspect)
	})
	p.Stack = group.NewStack(n, p.Detector)
	p.Host = core.NewHost(p.Stack)
	// Transports with connection management (TCP) report peers whose
	// sockets are irrecoverably failing; hop onto the actor goroutine (the
	// detector is actor-confined) and let the detector decide whether the
	// peer is one whose death matters.
	if pd, ok := n.Endpoint().(transport.PeerDownNotifier); ok {
		pd.SetPeerDownHandler(func(peer types.ProcessID) {
			n.Do(func() { p.Detector.TransportDown(peer) })
		})
	}
	n.Start()
	if walDir != "" {
		p.Stack.SetWALDir(walDir) // runs via the actor loop, so after Start
	}
	return p, nil
}

// Stop halts the process gracefully: the detector's heartbeats end, every
// write-ahead log is forced to stable storage (so deliveries applied since
// the last recovery tick survive a supervised restart), and the node's
// actor loop exits, closing the transport endpoint; then the group stack
// lets go of its groups. Stop is idempotent — crashing a process and later
// shutting the whole runtime down must not stop it twice.
func (p *Proc) Stop() {
	p.stopOnce.Do(func() {
		p.Detector.Stop()
		p.Stack.SyncWALs()
		p.Node.Stop()
		p.Stack.Release()
	})
}

// Halt stops the process abruptly, without draining write-ahead logs — the
// moral equivalent of a power failure. Crash simulations use it so graded
// durability still reflects what the recovery-tick fsync batching actually
// persisted, not a courtesy flush no real crash would perform.
func (p *Proc) Halt() {
	p.stopOnce.Do(func() {
		p.Detector.Stop()
		p.Node.Stop()
		p.Stack.Release()
	})
}

// Stopped reports whether the process has been stopped.
func (p *Proc) Stopped() bool { return p.Node.Stopped() }

// PID returns the process identifier.
func (p *Proc) PID() types.ProcessID { return p.Node.PID() }
