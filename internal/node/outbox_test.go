package node

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/types"
)

// recordingEndpoint captures flushed frames without any real transport. It
// records clones: the endpoint only borrows a frame for the call.
type recordingEndpoint struct {
	mu     sync.Mutex
	frames [][]*types.Message
}

func (r *recordingEndpoint) PID() types.ProcessID { return pid(1) }
func (r *recordingEndpoint) Send(m *types.Message) error {
	return r.SendBatch([]*types.Message{m})
}
func (r *recordingEndpoint) SendBatch(msgs []*types.Message) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	frame := make([]*types.Message, len(msgs))
	for i, m := range msgs {
		frame[i] = m.Clone()
	}
	r.frames = append(r.frames, frame)
	return nil
}
func (r *recordingEndpoint) Inbox() <-chan []*types.Message { return nil }
func (r *recordingEndpoint) Close() error                   { return nil }

func (r *recordingEndpoint) snapshot() [][]*types.Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([][]*types.Message(nil), r.frames...)
}

func cast(to types.ProcessID, seq uint64) *types.Message {
	return &types.Message{Kind: types.KindCast, To: to, ID: types.MsgID{Seq: seq}}
}

// TestOutboxPartialFlushOnWindowExpiry pins the flush-window contract: a
// queue that never reaches MaxBatch is still flushed — as one partial frame
// in enqueue order — once the window expires.
func TestOutboxPartialFlushOnWindowExpiry(t *testing.T) {
	ep := &recordingEndpoint{}
	ob := newOutbox(ep, Batching{MaxBatch: 100, Window: 15 * time.Millisecond})

	for i := uint64(0); i < 3; i++ {
		ob.enqueueTo(pid(2), cast(pid(2), i))
	}
	if got := ep.snapshot(); len(got) != 0 {
		t.Fatalf("flushed %d frames before the window expired", len(got))
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(ep.snapshot()) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	frames := ep.snapshot()
	if len(frames) != 1 {
		t.Fatalf("window flush produced %d frames, want 1", len(frames))
	}
	if len(frames[0]) != 3 {
		t.Fatalf("partial frame carries %d messages, want 3", len(frames[0]))
	}
	for i, m := range frames[0] {
		if m.ID.Seq != uint64(i) {
			t.Errorf("frame[%d].Seq = %d: enqueue order not preserved", i, m.ID.Seq)
		}
	}
}

// TestOutboxMaxBatchFlushesInline pins the cap: the MaxBatch'th enqueue
// flushes immediately, without waiting for the window.
func TestOutboxMaxBatchFlushesInline(t *testing.T) {
	ep := &recordingEndpoint{}
	ob := newOutbox(ep, Batching{MaxBatch: 4, Window: time.Hour})
	for i := uint64(0); i < 10; i++ {
		ob.enqueueTo(pid(2), cast(pid(2), i))
	}
	frames := ep.snapshot()
	if len(frames) != 2 {
		t.Fatalf("flushed %d frames, want 2 full frames of 4 (2 messages still pending)", len(frames))
	}
	for _, f := range frames {
		if len(f) != 4 {
			t.Errorf("frame of %d messages, want MaxBatch=4", len(f))
		}
	}
}

// TestOutboxDirectSendBarrierFlush pins FIFO across paths: a direct
// (unbatched) send must not overtake casts already queued for the same
// destination.
func TestOutboxDirectSendBarrierFlush(t *testing.T) {
	ep := &recordingEndpoint{}
	n := &Node{pid: pid(1), ep: ep, ob: newOutbox(ep, Batching{MaxBatch: 100, Window: time.Hour})}

	_ = n.Send(pid(2), cast(pid(2), 1))
	_ = n.Send(pid(2), cast(pid(2), 2))
	_ = n.Send(pid(2), &types.Message{Kind: types.KindViewPropose})

	frames := ep.snapshot()
	if len(frames) != 2 {
		t.Fatalf("got %d frames, want 2 (flushed casts, then the direct send)", len(frames))
	}
	if len(frames[0]) != 2 || frames[0][0].Kind != types.KindCast {
		t.Fatalf("first frame = %v, want the 2 queued casts", frames[0])
	}
	if len(frames[1]) != 1 || frames[1][0].Kind != types.KindViewPropose {
		t.Fatalf("second frame = %v, want the direct view-propose", frames[1])
	}
}

// TestOutboxReleasesWhatItNoLongerNeeds pins the outbox's retention: a
// recycled queue buffer holds no message (a stale pointer would pin the
// message, payload and all, until the buffer's slot is overwritten), and a
// stopped outbox holds nothing — a crashed process stays
// reachable from its runtime, so whatever its outbox kept would never be
// collected.
func TestOutboxReleasesWhatItNoLongerNeeds(t *testing.T) {
	ep := &recordingEndpoint{}
	ob := newOutbox(ep, Batching{MaxBatch: 4, Window: time.Hour})
	for i := uint64(0); i < 3; i++ {
		ob.enqueueTo(pid(2), cast(pid(2), i))
	}
	ob.flushAll()
	if len(ob.free) != 1 {
		t.Fatalf("%d recycled buffers after one flush, want 1", len(ob.free))
	}
	for i, m := range ob.free[0][:cap(ob.free[0])] {
		if m != nil {
			t.Errorf("recycled buffer still holds a message at %d", i)
		}
	}
	ob.enqueueTo(pid(2), cast(pid(2), 9))
	ob.enqueueTo(pid(3), cast(pid(3), 9))
	ob.stop()
	if len(ob.queues) != 0 || len(ob.free) != 0 {
		t.Errorf("stopped outbox keeps %d queues and %d buffers", len(ob.queues), len(ob.free))
	}
	// A send racing the stop is dropped like one already handed to a closed
	// endpoint, not a crash.
	ob.enqueueTo(pid(2), cast(pid(2), 10))
	ob.stop() // and its window timer with it
}

// TestNodeBatchIntake pins receiver-side pipelining: messages arriving in
// one frame reach a registered BatchHandler as one call per same-kind run.
func TestNodeBatchIntake(t *testing.T) {
	fabric := netsim.New(netsim.DefaultConfig())
	net := transport.NewMemory(fabric)
	a, err := New(pid(1), net)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(pid(2), net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Stop(); b.Stop() })

	var batches atomic.Int32
	var msgs atomic.Int32
	var singles atomic.Int32
	b.HandleBatch(types.KindCast, func(ms []*types.Message) {
		batches.Add(1)
		msgs.Add(int32(len(ms)))
	})
	b.Handle(types.KindOrder, func(*types.Message) { singles.Add(1) })
	b.Start()

	// Deliver one mixed frame directly through the fabric: [cast cast order cast].
	frame := []*types.Message{
		{Kind: types.KindCast, From: pid(1), To: pid(2)},
		{Kind: types.KindCast, From: pid(1), To: pid(2)},
		{Kind: types.KindOrder, From: pid(1), To: pid(2)},
		{Kind: types.KindCast, From: pid(1), To: pid(2)},
	}
	if err := fabric.SendBatch(frame); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for (msgs.Load() < 3 || singles.Load() < 1) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := batches.Load(); got != 2 {
		t.Errorf("batch handler called %d times, want 2 (runs [cast cast] and [cast])", got)
	}
	if got := msgs.Load(); got != 3 {
		t.Errorf("batch handler saw %d casts, want 3", got)
	}
	if got := singles.Load(); got != 1 {
		t.Errorf("per-message handler saw %d orders, want 1", got)
	}
}

// TestNodeIdleFlushCoalesces drives sends through the actor goroutine and
// checks they leave as a coalesced frame when the actor goes idle, well
// before the (deliberately huge) window could fire.
func TestNodeIdleFlushCoalesces(t *testing.T) {
	fabric := netsim.New(netsim.DefaultConfig())
	net := transport.NewMemory(fabric)
	a, err := NewWithBatching(pid(1), net, Batching{MaxBatch: 100, Window: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(pid(2), net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Stop(); b.Stop() })

	var got atomic.Int32
	b.Handle(types.KindCast, func(*types.Message) { got.Add(1) })
	a.Start()
	b.Start()

	const casts = 20
	a.Do(func() {
		for i := uint64(0); i < casts; i++ {
			_ = a.Send(b.PID(), cast(b.PID(), i))
		}
	})
	deadline := time.Now().Add(2 * time.Second)
	for got.Load() < casts && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got.Load() != casts {
		t.Fatalf("delivered %d of %d casts (idle flush missing?)", got.Load(), casts)
	}
	st := fabric.Stats()
	if st.FramesSent >= casts {
		t.Errorf("FramesSent = %d for %d casts: no coalescing happened", st.FramesSent, casts)
	}
}
