// Package tracenet is the traced run's view of the network boundary: a
// transport.Network decorator whose endpoints hand every outbound frame (as
// it enters the inner transport) and every inbound frame (as it comes off the
// inner inbox) to a Tap. The protocol stack is built on it with the same
// boot.Spawn call as on the bare transport, so nothing inside the program
// changes; the extra inbox hop is the tracing overhead the benchmark reports.
package tracenet

import (
	"sync"

	"repro/internal/transport"
	"repro/internal/types"
)

// Tap observes frames crossing an endpoint. FrameOut runs on the sending
// goroutine before the frame enters the inner transport; FrameIn runs on the
// endpoint's pump goroutine before the frame reaches the node. Both must be
// cheap and must not retain the slice.
type Tap interface {
	FrameOut(from types.ProcessID, frame []*types.Message)
	FrameIn(at types.ProcessID, frame []*types.Message)
}

// Network decorates an inner transport.Network.
type Network struct {
	inner transport.Network
	tap   Tap
}

// Wrap returns inner with every endpoint tapped.
func Wrap(inner transport.Network, tap Tap) *Network {
	return &Network{inner: inner, tap: tap}
}

// tcpExtras are the optional interfaces boot and the facade probe for on an
// endpoint. The TCP endpoint has all three and the memory endpoint none, so
// they are forwarded together.
type tcpExtras interface {
	transport.PeerDownNotifier
	transport.TCPStatser
	transport.ConnCutter
	Addr() string
}

// Attach implements transport.Network.
func (n *Network) Attach(pid types.ProcessID) (transport.Endpoint, error) {
	inner, err := n.inner.Attach(pid)
	if err != nil {
		return nil, err
	}
	ep := &endpoint{
		inner: inner,
		tap:   n.tap,
		inbox: make(chan []*types.Message),
		done:  make(chan struct{}),
	}
	ep.pumped.Add(1)
	go ep.pump()
	if x, ok := inner.(tcpExtras); ok {
		return &tcpEndpoint{endpoint: ep, tcpExtras: x}, nil
	}
	return ep, nil
}

type endpoint struct {
	inner  transport.Endpoint
	tap    Tap
	inbox  chan []*types.Message
	done   chan struct{}
	once   sync.Once
	pumped sync.WaitGroup
}

// tcpEndpoint adds the forwarded optional interfaces.
type tcpEndpoint struct {
	*endpoint
	tcpExtras
}

func (e *endpoint) PID() types.ProcessID           { return e.inner.PID() }
func (e *endpoint) Inbox() <-chan []*types.Message { return e.inbox }

func (e *endpoint) Send(msg *types.Message) error {
	one := [1]*types.Message{msg}
	e.tap.FrameOut(e.inner.PID(), one[:])
	return e.inner.Send(msg)
}

func (e *endpoint) SendBatch(msgs []*types.Message) error {
	if len(msgs) > 0 {
		e.tap.FrameOut(e.inner.PID(), msgs)
	}
	return e.inner.SendBatch(msgs)
}

// pump moves frames from the inner inbox to the tapped one, in order.
func (e *endpoint) pump() {
	defer e.pumped.Done()
	in := e.inner.Inbox()
	for {
		select {
		case <-e.done:
			return
		case frame, ok := <-in:
			if !ok {
				return
			}
			e.tap.FrameIn(e.inner.PID(), frame)
			select {
			case e.inbox <- frame:
			case <-e.done:
				return
			}
		}
	}
}

// Close detaches the inner endpoint and waits for the pump to exit.
func (e *endpoint) Close() error {
	var err error
	e.once.Do(func() {
		close(e.done)
		err = e.inner.Close()
		e.pumped.Wait()
	})
	return err
}
