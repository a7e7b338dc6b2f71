package node

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/types"
)

// discardEndpoint borrows every frame for the call and drops it: what is
// left of a send is the node and its outbox.
type discardEndpoint struct{}

func (discardEndpoint) PID() types.ProcessID             { return pid(1) }
func (discardEndpoint) Send(*types.Message) error        { return nil }
func (discardEndpoint) SendBatch([]*types.Message) error { return nil }
func (discardEndpoint) Inbox() <-chan []*types.Message   { return nil }
func (discardEndpoint) Close() error                     { return nil }

// fanout returns a node over a discarding endpoint, the members of an
// n-member group (the node first), and a cast template shaped like the
// group layer's: an n-entry VT and stability report and a 64 B payload.
func fanout(n int) (*Node, []types.ProcessID, *types.Message) {
	ep := discardEndpoint{}
	nd := &Node{pid: pid(1), ep: ep, ob: newOutbox(ep, DefaultBatching())}
	members := make([]types.ProcessID, n)
	for i := range members {
		members[i] = pid(uint32(i + 1))
	}
	template := &types.Message{
		Kind:     types.KindCast,
		Group:    types.FlatGroup("fanout"),
		View:     3,
		ID:       types.MsgID{Sender: pid(1), Seq: 1},
		Ordering: types.Causal,
		VT:       make([]uint64, n),
		Payload:  make([]byte, 64),
		Stab:     make([]types.StabEntry, n),
	}
	return nd, members, template
}

// TestSendCopiesAllocatesNothingPerDestination pins the shared-template
// fan-out: a multicast to 7 or to 63 peers, flushed, allocates (next to)
// nothing, and the same for both widths. A per-destination envelope would
// cost 280 B a peer.
func TestSendCopiesAllocatesNothingPerDestination(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	const rounds = 1000
	for _, peers := range []int{7, 63} {
		nd, members, template := fanout(peers + 1)
		round := func() {
			nd.SendCopies(members, template)
			nd.ob.flushAll()
		}
		for i := 0; i < 10; i++ {
			round() // warm the destination locks, queue free list and frame pool
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			round()
		}
		runtime.ReadMemStats(&after)
		if per := float64(after.TotalAlloc-before.TotalAlloc) / rounds; per >= 64 {
			t.Errorf("fan-out to %d peers allocates %.0f B per multicast, want < 64", peers, per)
		}
	}
}

// TestSendCopiesStampsEachFrame pins what the shared template turns into on
// the wire: every message in the frame flushed to d is addressed to d and
// comes from the sender, in enqueue order, and the sender gets no copy.
func TestSendCopiesStampsEachFrame(t *testing.T) {
	ep := &recordingEndpoint{}
	nd := &Node{pid: pid(1), ep: ep, ob: newOutbox(ep, Batching{MaxBatch: 100, Window: time.Hour})}
	members := []types.ProcessID{pid(1), pid(2), pid(3), pid(4)}
	for seq := uint64(1); seq <= 3; seq++ {
		template := &types.Message{Kind: types.KindCast, ID: types.MsgID{Sender: pid(1), Seq: seq}}
		if sent := nd.SendCopies(members, template); sent != 3 {
			t.Fatalf("SendCopies sent %d copies, want 3", sent)
		}
	}
	_ = nd.Send(pid(3), &types.Message{Kind: types.KindStability})
	nd.ob.flushAll()

	got := map[types.ProcessID]int{}
	for _, frame := range ep.snapshot() {
		d := frame[0].To
		for i, m := range frame {
			if m.To != d || m.From != pid(1) {
				t.Fatalf("frame to %v carries %v->%v at %d", d, m.From, m.To, i)
			}
			if m.Kind == types.KindCast && m.ID.Seq != uint64(i+1) {
				t.Errorf("frame to %v: cast %d at %d, enqueue order lost", d, m.ID.Seq, i)
			}
		}
		got[d] += len(frame)
	}
	want := map[types.ProcessID]int{pid(2): 3, pid(3): 4, pid(4): 3}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("messages per destination = %v, want %v", got, want)
	}
}

// BenchmarkSendCopies measures one multicast to an n-member group through
// the outbox, flushed: the node layer's share of a cast, per destination.
func BenchmarkSendCopies(b *testing.B) {
	for _, n := range []int{8, 16, 64} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			nd, members, template := fanout(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nd.SendCopies(members, template)
				nd.ob.flushAll()
			}
		})
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool
