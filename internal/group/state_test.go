package group_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	isis "repro"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/types"
)

// testStore is a replicated map for state-transfer tests. Values are apply
// counters: delivering key k sets data[k]++ — so any double-apply (a held
// delivery already covered by the checkpoint) shows up as a divergent
// snapshot, making cross-member equality the exactly-once check.
type testStore struct {
	mu   sync.Mutex
	data map[string]int
}

func newTestStore() *testStore { return &testStore{data: make(map[string]int)} }

func (s *testStore) onDeliver(d group.Delivery) {
	s.mu.Lock()
	s.data[string(d.Payload)]++
	s.mu.Unlock()
}

func (s *testStore) put(k string, n int) {
	s.mu.Lock()
	s.data[k] = n
	s.mu.Unlock()
}

func (s *testStore) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s\x00%d\n", k, s.data[k])
	}
	return []byte(b.String()), nil
}

func (s *testStore) Restore(b []byte) error {
	data := make(map[string]int)
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" {
			continue
		}
		k, v, ok := strings.Cut(line, "\x00")
		if !ok {
			return fmt.Errorf("bad snapshot line %q", line)
		}
		n := 0
		fmt.Sscanf(v, "%d", &n)
		data[k] = n
	}
	s.mu.Lock()
	s.data = data
	s.mu.Unlock()
	return nil
}

func (s *testStore) snapshotString() string {
	b, _ := s.Snapshot()
	return string(b)
}

func (s *testStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}

// TestChunkedStateTransferToJoiner: a checkpoint far larger than the chunk
// size arrives whole through the streaming path.
func TestChunkedStateTransferToJoiner(t *testing.T) {
	_, procs := spawn(t, 2)
	name := "big-state"

	s0 := newTestStore()
	big := strings.Repeat("x", 4000)
	for i := 0; i < 50; i++ {
		s0.put(fmt.Sprintf("key-%03d-%s", i, big), 1)
	}
	_, err := procs[0].CreateGroup(name, group.Config{State: s0, StateChunkBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}

	s1 := newTestStore()
	g1, err := procs[1].JoinGroup(ctxT(t), name, procs[0].ID(), group.Config{State: s1, StateChunkBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	want := s0.snapshotString()
	if isis.Await(ctxT(t), func() bool { return s1.snapshotString() == want }) != nil {
		t.Fatalf("joiner state differs: %d keys, want %d", s1.len(), s0.len())
	}
	st := g1.StateStats()
	if st.Restores != 1 {
		t.Errorf("Restores = %d, want 1", st.Restores)
	}
	if st.ChunksReceived < 10 {
		t.Errorf("ChunksReceived = %d, expected a multi-chunk transfer", st.ChunksReceived)
	}
}

// TestStaleViewStateTransferIgnored is the regression test for the unfenced
// legacy handler: a KindStateTransfer arriving at an already-joined member
// (stale view, misdirected, or delayed) must not clobber its state.
func TestStaleViewStateTransferIgnored(t *testing.T) {
	_, procs := spawn(t, 2)
	name := "fenced"

	s0 := newTestStore()
	s0.put("genuine", 1)
	g0, err := procs[0].CreateGroup(name, group.Config{State: s0})
	if err != nil {
		t.Fatal(err)
	}
	s1 := newTestStore()
	g1, err := procs[1].JoinGroup(ctxT(t), name, procs[0].ID(), group.Config{State: s1})
	if err != nil {
		t.Fatal(err)
	}
	if isis.Await(ctxT(t), func() bool { return g1.StateStats().Restores == 1 }) != nil {
		t.Fatal("join transfer missing")
	}

	// A stale one-shot transfer claiming an old view must be dropped.
	stale := &types.Message{
		Kind:    types.KindStateTransfer,
		Group:   g1.ID(),
		View:    1,
		Payload: []byte("bogus\x001\n"),
	}
	if err := g0.Stack().Node().Send(procs[1].ID(), stale); err != nil {
		t.Fatal(err)
	}
	// Give it ample time to arrive, then assert nothing changed.
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if isis.Await(ctx, func() bool { return g1.StateStats().Restores > 1 }) == nil {
		t.Fatal("stale state transfer restored")
	}
	if got := s1.snapshotString(); got != s0.snapshotString() {
		t.Fatalf("state clobbered by stale transfer: %q", got)
	}
}

// TestStateChunkLossRecovered: dropped checkpoint chunks are repaired by the
// joiner's state NAKs — the reliability fix for the old one-shot transfer,
// which a single lost frame silently voided.
func TestStateChunkLossRecovered(t *testing.T) {
	rt, procs := spawn(t, 2)
	name := "lossy-state"

	var dropped atomic.Int32
	rt.Fabric().AddDropRule(func(p netsim.Packet) bool {
		if p.Msg.Kind == types.KindStateChunk && dropped.Load() < 7 {
			dropped.Add(1)
			return true
		}
		return false
	})

	s0 := newTestStore()
	big := strings.Repeat("y", 2000)
	for i := 0; i < 40; i++ {
		s0.put(fmt.Sprintf("k-%03d-%s", i, big), 1)
	}
	_, err := procs[0].CreateGroup(name, group.Config{State: s0, StateChunkBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	s1 := newTestStore()
	g1, err := procs[1].JoinGroup(ctxT(t), name, procs[0].ID(), group.Config{State: s1, StateChunkBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	want := s0.snapshotString()
	if isis.Await(ctxT(t), func() bool { return s1.snapshotString() == want }) != nil {
		t.Fatalf("transfer never completed under chunk loss (dropped %d)", dropped.Load())
	}
	if dropped.Load() == 0 {
		t.Fatal("drop rule never fired; test is vacuous")
	}
	if st := g1.StateStats(); st.NaksSent == 0 {
		t.Errorf("transfer completed without NAKs despite %d dropped chunks", dropped.Load())
	}
}

// TestHolderCrashMidTransferFailsOver: the joiner locks onto the
// coordinator's checkpoint, the coordinator dies before any chunk lands, and
// the transfer fails over to the surviving member's identical cut.
func TestHolderCrashMidTransferFailsOver(t *testing.T) {
	rt, procs := spawn(t, 3)
	name := "failover"

	stores := []*testStore{newTestStore(), newTestStore(), newTestStore()}
	big := strings.Repeat("z", 1000)
	for i := 0; i < 30; i++ {
		stores[0].put(fmt.Sprintf("k-%03d-%s", i, big), 1)
	}
	g0, err := procs[0].CreateGroup(name, group.Config{State: stores[0], StateChunkBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	g1, err := procs[1].JoinGroup(ctxT(t), name, procs[0].ID(), group.Config{State: stores[1], StateChunkBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	want := stores[0].snapshotString()
	if isis.Await(ctxT(t), func() bool { return stores[1].snapshotString() == want }) != nil {
		t.Fatal("first join transfer failed")
	}
	_ = g0

	// Black-hole every chunk the creator sends from here on: the third
	// member's transfer locks onto its offer but can never complete from it.
	p0 := procs[0].ID()
	rt.Fabric().AddDropRule(func(p netsim.Packet) bool {
		return p.Msg.Kind == types.KindStateChunk && p.From == p0
	})

	g2, err := procs[2].JoinGroup(ctxT(t), name, p0, group.Config{State: stores[2], StateChunkBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if isis.Await(ctxT(t), func() bool { return g2.StateStats().OffersReceived >= 1 }) != nil {
		t.Fatal("joiner never locked an offer")
	}

	// Kill the holder mid-transfer; the survivor holds the same cut.
	rt.Crash(procs[0])
	rt.InjectFailure(procs[0])

	if isis.Await(ctxT(t), func() bool { return stores[2].snapshotString() == want }) != nil {
		st := g2.StateStats()
		t.Fatalf("transfer did not fail over: stats %+v", st)
	}
	if isis.Await(ctxT(t), sized(2, g1, g2)) != nil {
		t.Fatal("view did not settle after crash")
	}
}

// TestJoinDuringCastStreamExactlyOnce: a member joining mid-stream composes
// checkpoint + held deliveries with no gap and no double-apply. The apply
// counters make a double-apply visible as snapshot divergence.
func TestJoinDuringCastStreamExactlyOnce(t *testing.T) {
	_, procs := spawn(t, 3)
	name := "stream-join"

	stores := []*testStore{newTestStore(), newTestStore(), newTestStore()}
	g0, err := procs[0].CreateGroup(name, group.Config{State: stores[0], OnDeliver: stores[0].onDeliver})
	if err != nil {
		t.Fatal(err)
	}
	g1, err := procs[1].JoinGroup(ctxT(t), name, procs[0].ID(), group.Config{State: stores[1], OnDeliver: stores[1].onDeliver})
	if err != nil {
		t.Fatal(err)
	}

	const casts = 300
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < casts; i++ {
			g0.CastAsync(types.Total, []byte(fmt.Sprintf("op-%04d", i)))
		}
	}()

	// Join while the stream is in flight.
	g2, err := procs[2].JoinGroup(ctxT(t), name, procs[0].ID(), group.Config{State: stores[2], OnDeliver: stores[2].onDeliver})
	if err != nil {
		t.Fatal(err)
	}
	<-done

	if isis.Await(ctxT(t), func() bool {
		return stores[0].len() == casts &&
			stores[0].snapshotString() == stores[1].snapshotString() &&
			stores[0].snapshotString() == stores[2].snapshotString()
	}) != nil {
		t.Fatalf("replicas diverged: %d/%d/%d keys (exactly-once violated if counters differ)",
			stores[0].len(), stores[1].len(), stores[2].len())
	}
	_ = g1
	_ = g2
}

// TestWALRecoveryAfterFullRestart: a fully restarted singleton recovers its
// state from the write-ahead log — checkpoint plus logged deliveries.
func TestWALRecoveryAfterFullRestart(t *testing.T) {
	dir := t.TempDir()
	name := "durable"

	rt, procs := spawn(t, 1, isis.WithWAL(dir))
	s := newTestStore()
	g, err := procs[0].CreateGroup(name, group.Config{State: s, OnDeliver: s.onDeliver})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		g.CastAsync(types.Total, []byte(fmt.Sprintf("durable-op-%03d", i)))
	}
	if isis.Await(ctxT(t), func() bool { return s.len() == 60 }) != nil {
		t.Fatalf("only %d ops applied", s.len())
	}
	if g.StateStats().WALAppends == 0 {
		t.Fatal("no WAL appends recorded")
	}
	want := s.snapshotString()
	rt.Shutdown()

	// Same WAL directory, fresh runtime: site-1 recovers site-1's log.
	_, procs = spawn(t, 1, isis.WithWAL(dir))
	s2 := newTestStore()
	if _, err := procs[0].CreateGroup(name, group.Config{State: s2, OnDeliver: s2.onDeliver}); err != nil {
		t.Fatal(err)
	}
	if got := s2.snapshotString(); got != want {
		t.Fatalf("recovered state differs: %d keys, want %d", s2.len(), s.len())
	}
}

// TestKVStoppedAfterPutRecoversKey: a replica halted — its node stopped,
// no drain — right after a Put returns has its key in the write-ahead log,
// because the delivery's record is written before the actor step that
// applied it ends and a node stops only between steps. A flood of
// PutAsync keeps the actor busy, so it never idles between the Put and the
// halt. Every round re-founds the map from the log and checks all earlier
// rounds' keys.
func TestKVStoppedAfterPutRecoversKey(t *testing.T) {
	dir := t.TempDir()
	const rounds = 20
	for i := 0; i < rounds; i++ {
		rt, procs := spawn(t, 1, isis.WithWAL(dir))
		kv, err := procs[0].CreateKV("durable-kv", isis.GroupConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < i; k++ {
			key := fmt.Sprintf("key-%02d", k)
			if v, ok := kv.Get(key); !ok || v != key {
				t.Fatalf("round %d: acknowledged %q lost after a halt (recovered %d keys)", i, key, kv.Len())
			}
		}
		halted := make(chan struct{})
		flooded := make(chan struct{})
		go func() {
			defer close(flooded)
			for k := 0; ; k++ {
				select {
				case <-halted:
					return
				default:
					kv.PutAsync(fmt.Sprintf("filler-%d", k%64), "x")
				}
			}
		}()
		// Let the flood fill the actor's queue before the Put joins it.
		floor := kv.Applied() + 1000
		if isis.Await(ctxT(t), func() bool { return kv.Applied() >= floor }) != nil {
			t.Fatal("the PutAsync flood never applied")
		}
		key := fmt.Sprintf("key-%02d", i)
		if err := kv.Put(ctxT(t), key, key); err != nil {
			t.Fatal(err)
		}
		rt.Crash(procs[0])
		close(halted)
		<-flooded
		rt.Shutdown()
	}
}
