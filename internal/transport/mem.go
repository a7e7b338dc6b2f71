package transport

import (
	"fmt"
	"sync"

	"repro/internal/netsim"
	"repro/internal/types"
)

// Memory is the in-memory Network backed by a netsim.Fabric. All simulated
// workstations in one experiment share a single Memory/Fabric pair, which is
// where message accounting happens.
type Memory struct {
	fabric *netsim.Fabric
}

// NewMemory wraps a fabric as a Network.
func NewMemory(fabric *netsim.Fabric) *Memory { return &Memory{fabric: fabric} }

// Fabric exposes the underlying fabric (for fault injection and stats).
func (m *Memory) Fabric() *netsim.Fabric { return m.fabric }

// Attach implements Network.
func (m *Memory) Attach(pid types.ProcessID) (Endpoint, error) {
	inbox, err := m.fabric.Attach(pid)
	if err != nil {
		return nil, fmt.Errorf("memory transport: %w", err)
	}
	return &memEndpoint{pid: pid, fabric: m.fabric, inbox: inbox}, nil
}

type memEndpoint struct {
	pid    types.ProcessID
	fabric *netsim.Fabric
	inbox  <-chan []*types.Message

	mu     sync.Mutex
	closed bool
}

func (e *memEndpoint) PID() types.ProcessID { return e.pid }

func (e *memEndpoint) Inbox() <-chan []*types.Message {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.inbox
}

func (e *memEndpoint) Send(msg *types.Message) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return fmt.Errorf("memory transport send from %v: %w", e.pid, types.ErrStopped)
	}
	return e.fabric.Send(msg)
}

func (e *memEndpoint) SendBatch(msgs []*types.Message) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return fmt.Errorf("memory transport send from %v: %w", e.pid, types.ErrStopped)
	}
	return e.fabric.SendBatch(msgs)
}

func (e *memEndpoint) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	e.fabric.Detach(e.pid)
	// The queue may still hold frames; a closed endpoint that stays
	// reachable (a crashed process its runtime keeps) must not pin them.
	e.inbox = nil
	return nil
}
