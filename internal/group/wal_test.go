package group

import (
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/member"
	"repro/internal/node"
	"repro/internal/types"
)

// These tests check the write-ahead log's group commit on one real member
// whose peers exist only as process ids (intake_test.go's rig): a step's
// appends reach the file with one write before the step returns, and the
// recovery tick's background fsync never outlives the process.

// sizeState is a minimal state handler that records, at each delivery, how
// many bytes the member's log file holds.
type sizeState struct {
	path  string
	mu    sync.Mutex
	sizes []int64
}

func (s *sizeState) Snapshot() ([]byte, error) { return []byte("state"), nil }
func (s *sizeState) Restore([]byte) error      { return nil }

func (s *sizeState) onDeliver(Delivery) {
	fi, err := os.Stat(s.path)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil {
		s.sizes = append(s.sizes, fi.Size())
	} else {
		s.sizes = append(s.sizes, -1)
	}
}

// newWALRig is newRig for a stateful group whose stack logs to dir.
func newWALRig(t *testing.T, dir string) (*rig, *sizeState) {
	t.Helper()
	self := tpid(1)
	net := &recorder{pid: self, inbox: make(chan []*types.Message, 64)}
	n, err := node.New(self, net)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	t.Cleanup(n.Stop)
	s := NewStack(n, nil)
	s.SetWALDir(dir)
	gid := types.FlatGroup("wal")
	st := &sizeState{path: walPath(dir, gid)}
	cfg := Config{State: st, OnDeliver: st.onDeliver}
	cfg.Reliability.NakInterval = time.Hour
	g, err := s.Create(gid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{t: t, net: net, node: n, g: g}
	r.do(func() { g.install(member.NewView(gid, 2, []types.ProcessID{self, tpid(2), tpid(3)}), nil) })
	return r, st
}

// fifoFrame is p2's frame of FIFO casts lo..hi of view 2.
func fifoFrame(g *Group, lo, hi uint64, payload []byte) []*types.Message {
	var frame []*types.Message
	for seq := lo; seq <= hi; seq++ {
		frame = append(frame, &types.Message{
			Kind: types.KindCast, From: tpid(2), Group: g.id, View: 2,
			ID: types.MsgID{Sender: tpid(2), Seq: seq}, Ordering: types.FIFO, Payload: payload,
		})
	}
	return frame
}

// awaitAppends waits until the member has logged n deliveries.
func awaitAppends(r *rig, n uint64) {
	r.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for r.g.StateStats().WALAppends < n {
		if time.Now().After(deadline) {
			r.t.Fatalf("%d deliveries logged, want %d", r.g.StateStats().WALAppends, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFrameOfDeliveriesCostsOneWrite: a frame of 40 casts delivered in one
// actor step is logged with one write, made after the last delivery of the
// step and before the step returns.
func TestFrameOfDeliveriesCostsOneWrite(t *testing.T) {
	const casts = 40
	r, st := newWALRig(t, t.TempDir())
	before := r.g.StateStats()
	fi, err := os.Stat(st.path)
	if err != nil {
		t.Fatal(err)
	}
	r.net.inbox <- fifoFrame(r.g, 1, casts, []byte("put"))
	awaitAppends(r, before.WALAppends+casts)

	after := r.g.StateStats()
	if w := after.WALWrites - before.WALWrites; w != 1 {
		t.Fatalf("%d writes for %d deliveries in one frame, want 1", w, casts)
	}
	st.mu.Lock()
	sizes := st.sizes
	st.mu.Unlock()
	for i, sz := range sizes {
		if sz != fi.Size() {
			t.Fatalf("delivery %d saw %d bytes in the log, want the %d before the frame: a record was written mid-step", i, sz, fi.Size())
		}
	}
	// The step has returned: its records are in the file.
	var logged int64
	r.do(func() { logged = r.g.wal.Size() })
	if fi, err = os.Stat(st.path); err != nil || fi.Size() != logged {
		t.Fatalf("file holds %d bytes after the step, the log %d (%v)", fi.Size(), logged, err)
	}
}

// TestNoGoroutineAfterStopWithSyncInFlight: the recovery tick leaves the
// fsync running on a goroutine; once the node has stopped and the stack let
// go of its groups, that goroutine has ended too.
func TestNoGoroutineAfterStopWithSyncInFlight(t *testing.T) {
	base := runtime.NumGoroutine()
	r, _ := newWALRig(t, t.TempDir())
	r.net.inbox <- fifoFrame(r.g, 1, 256, make([]byte, 1024))
	awaitAppends(r, 256)
	r.do(r.g.walTick)
	r.node.Stop()
	r.g.stack.Release()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Stop and Release, %d before the member:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
