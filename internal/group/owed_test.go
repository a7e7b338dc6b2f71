package group_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	isis "repro"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/reliability"
	"repro/internal/types"
)

// quietReliability parks the recovery timer, so the only stability reports
// on the wire are the acknowledgements intake owes.
var quietReliability = reliability.Config{NakInterval: time.Hour}

// TestCastAfterIntakePaysTheAcknowledgement: a member that multicasts right
// after taking a cast in owes its originator nothing more — the reply cast
// carries the same report to every member — so it sends no standalone
// stability report, and the originator's blocking Cast still resolves from
// the report the reply carried.
func TestCastAfterIntakePaysTheAcknowledgement(t *testing.T) {
	rt, procs := spawn(t, 2)
	var groups []*group.Group
	var replied sync.Map
	groups = buildGroup(t, procs, 2, func(i int) group.Config {
		cfg := group.Config{Resiliency: 1, Reliability: quietReliability}
		if i == 1 {
			// Reply from the delivery callback: the cast is queued on the
			// actor behind the frame being taken in, before it goes idle.
			cfg.OnDeliver = func(d group.Delivery) {
				if d.From == procs[1].ID() {
					return
				}
				if _, dup := replied.LoadOrStore(d.ID, true); !dup {
					groups[1].CastAsync(types.FIFO, append([]byte("reply:"), d.Payload...))
				}
			}
		}
		return cfg
	})
	var reports atomic.Int64 // stability reports the replying member sends
	rt.Fabric().Watch(func(p netsim.Packet) {
		if p.Msg.Kind == types.KindStability && p.From == procs[1].ID() {
			reports.Add(1)
		}
	})
	defer rt.Fabric().Watch(nil)

	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
		err := groups[0].Cast(ctx, types.FIFO, []byte(fmt.Sprintf("ping-%d", i)))
		cancel()
		if err != nil {
			t.Fatalf("cast %d: the reply's piggybacked report never resolved it: %v", i, err)
		}
	}
	time.Sleep(50 * time.Millisecond) // the replies and whatever they cause
	if got := reports.Load(); got != 0 {
		t.Errorf("the replying member sent %d standalone stability reports, want 0 (its reply casts pay the debts)", got)
	}
}

// TestDeliveryCallbacksNeverReenterAnEngine guards the ordering engines'
// release buffers: the group iterates an engine's result while delivering,
// and the result is only valid until the engine's next call. Delivery
// callbacks that cast again, in every ordering and from every member, must
// not reach the engine being iterated (casting from a callback queues the
// cast behind the running handler): each member delivers every cast once.
func TestDeliveryCallbacksNeverReenterAnEngine(t *testing.T) {
	const n, depth = 3, 4
	for _, o := range []types.Ordering{types.FIFO, types.Causal, types.Total} {
		t.Run(o.String(), func(t *testing.T) {
			_, procs := spawn(t, n)
			cols := make([]*collector, n)
			var groups []*group.Group
			groups = buildGroup(t, procs, n, func(i int) group.Config {
				cols[i] = &collector{}
				return group.Config{OnDeliver: func(d group.Delivery) {
					cols[i].onDeliver(d)
					// The member after the sender answers each cast with a
					// deeper one until the chain ends.
					if len(d.Payload) < depth && groups[i].Self() == procs[(senderIndex(procs, d.From)+1)%n].ID() {
						groups[i].CastAsync(o, append([]byte{'x'}, d.Payload...))
					}
				}}
			})
			for i := range groups {
				groups[i].CastAsync(o, []byte{'x'})
			}
			want := n * depth // every member's chain: depth casts
			if isis.Await(ctxT(t), func() bool {
				for _, col := range cols {
					if col.count() < want {
						return false
					}
				}
				return true
			}) != nil {
				for i, col := range cols {
					t.Logf("member %d delivered %d of %d", i, col.count(), want)
				}
				t.Fatal("chained casts never all delivered")
			}
			time.Sleep(20 * time.Millisecond)
			for i, col := range cols {
				col.mu.Lock()
				seen := map[types.MsgID]bool{}
				for _, d := range col.deliveries {
					if seen[d.ID] {
						t.Errorf("member %d delivered %v twice", i, d.ID)
					}
					seen[d.ID] = true
				}
				if len(col.deliveries) != want {
					t.Errorf("member %d delivered %d casts, want %d", i, len(col.deliveries), want)
				}
				col.mu.Unlock()
			}
		})
	}
}

// senderIndex returns the index of process p in procs.
func senderIndex(procs []*isis.Process, p types.ProcessID) int {
	for i, q := range procs {
		if q.ID() == p {
			return i
		}
	}
	return -1
}

// TestEveryCastBecomesStableOnceQuiet: with one member casting and the
// rest passive, every member's retransmit buffer must drain completely once
// the casts stop. A cast carries its sender's watermark for its own casts,
// so nothing is held back by a report that trails by one; and a passive
// member whose own buffer empties first keeps ticking until its latest
// watermarks have reached every other member — the stability tick's fanout
// (4) is smaller than the 5 peers here, so that takes a rotation.
func TestEveryCastBecomesStableOnceQuiet(t *testing.T) {
	const n, casts = 6, 300
	_, procs := spawn(t, n)
	cols := make([]*collector, n)
	groups := buildGroup(t, procs, n, func(i int) group.Config {
		cols[i] = &collector{}
		return group.Config{OnDeliver: cols[i].onDeliver, Reliability: reliability.Config{NakInterval: 5 * time.Millisecond}}
	})
	for k := 0; k < casts; k++ {
		groups[0].CastAsync(types.Causal, []byte{byte(k)})
		if k%50 == 49 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if isis.Await(ctxT(t), func() bool {
		for _, col := range cols {
			if col.count() < casts {
				return false
			}
		}
		return true
	}) != nil {
		t.Fatal("casts never delivered everywhere")
	}
	pruned := func() (per []uint64) {
		for i := 0; i < n; i++ {
			per = append(per, procs[i].ReliabilityStats().StablePruned)
		}
		return per
	}
	drained := func() bool {
		for _, p := range pruned() {
			if p < casts {
				return false
			}
		}
		return true
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if isis.Await(ctx, drained) != nil {
		t.Errorf("casts pruned as stable per member: %v, want %d everywhere", pruned(), casts)
	}
}
