package tracenet

import (
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/types"
)

type recorder struct {
	mu       sync.Mutex
	out, in  int
	outOrder []uint64
	inOrder  []uint64
}

func (r *recorder) FrameOut(_ types.ProcessID, frame []*types.Message) {
	r.mu.Lock()
	r.out++
	r.outOrder = append(r.outOrder, frame[0].Seq)
	r.mu.Unlock()
}

func (r *recorder) FrameIn(_ types.ProcessID, frame []*types.Message) {
	r.mu.Lock()
	r.in++
	r.inOrder = append(r.inOrder, frame[0].Seq)
	r.mu.Unlock()
}

func pid(site uint32) types.ProcessID {
	return types.ProcessID{Site: types.SiteID(site), Incarnation: 1}
}

// passThrough sends frames of 1 and of 3 messages from a to b and checks
// that they arrive whole and in order and that the tap saw each one twice.
func passThrough(t *testing.T, inner transport.Network) (a, b transport.Endpoint) {
	t.Helper()
	rec := &recorder{}
	net := Wrap(inner, rec)
	a, err := net.Attach(pid(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err = net.Attach(pid(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	const frames = 200
	go func() {
		for i := 1; i <= frames; i++ {
			msgs := []*types.Message{{Kind: types.KindCast, From: pid(1), To: pid(2), Seq: uint64(i)}}
			if i%2 == 0 {
				msgs = append(msgs,
					&types.Message{Kind: types.KindCast, From: pid(1), To: pid(2), Seq: uint64(i)},
					&types.Message{Kind: types.KindCast, From: pid(1), To: pid(2), Seq: uint64(i)})
				_ = a.SendBatch(msgs)
			} else {
				_ = a.Send(msgs[0])
			}
		}
	}()
	for want := uint64(1); want <= frames; want++ {
		select {
		case frame := <-b.Inbox():
			wantLen := 1
			if want%2 == 0 {
				wantLen = 3
			}
			if len(frame) != wantLen || frame[0].Seq != want {
				t.Fatalf("frame %d: got %d messages with seq %d", want, len(frame), frame[0].Seq)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d never arrived", want)
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.out != frames || rec.in != frames {
		t.Fatalf("tap saw %d frames out and %d in, want %d each", rec.out, rec.in, frames)
	}
	for i := range rec.outOrder {
		if rec.outOrder[i] != uint64(i+1) || rec.inOrder[i] != uint64(i+1) {
			t.Fatalf("tap order broken at %d: out %d in %d", i, rec.outOrder[i], rec.inOrder[i])
		}
	}
	return a, b
}

func TestMemoryPassThrough(t *testing.T) {
	a, _ := passThrough(t, transport.NewMemory(netsim.New(netsim.Config{})))
	if _, ok := a.(transport.PeerDownNotifier); ok {
		t.Fatal("the memory endpoint has no peer-down notifier; the wrapper must not invent one (boot would wire it)")
	}
	if _, ok := a.(transport.TCPStatser); ok {
		t.Fatal("the memory endpoint has no TCP counters")
	}
}

func TestTCPPassThroughAndOptionalInterfaces(t *testing.T) {
	a, _ := passThrough(t, transport.NewTCP())
	if _, ok := a.(transport.PeerDownNotifier); !ok {
		t.Fatal("PeerDownNotifier not forwarded")
	}
	if c, ok := a.(transport.ConnCutter); !ok {
		t.Fatal("ConnCutter not forwarded")
	} else if c.CutConnections() < 1 {
		t.Fatal("CutConnections did not reach the inner endpoint's live connection")
	}
	s, ok := a.(transport.TCPStatser)
	if !ok {
		t.Fatal("TCPStatser not forwarded")
	}
	if got := s.TCPStats().FramesSent; got != 200 {
		t.Fatalf("inner TCP counters report %d frames sent, want 200", got)
	}
	if addr, ok := a.(interface{ Addr() string }); !ok || addr.Addr() == "" {
		t.Fatal("Addr not forwarded")
	}
}

func TestCloseStopsThePump(t *testing.T) {
	net := Wrap(transport.NewMemory(netsim.New(netsim.Config{})), &recorder{})
	ep, err := net.Attach(pid(1))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		_ = ep.Close() // returns only after the pump goroutine has exited
		_ = ep.Close() // idempotent
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
}
