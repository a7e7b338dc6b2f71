package node_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/reliability"
	"repro/internal/transport"
	"repro/internal/types"
)

// TestSharedTemplateGroupFlood floods a 4-member group from every member at
// once with a 50µs flush window and 4-message frames, so window-timer
// flushes read shared templates while the actors keep casting and
// self-delivering. Run under -race it is the check that nothing writes a
// template after SendCopies; every run checks that each payload reaches
// every member intact, exactly once.
func TestSharedTemplateGroupFlood(t *testing.T) {
	const members, casts = 4, 400
	net := transport.NewMemory(netsim.New(netsim.DefaultConfig()))
	gid := types.FlatGroup("flood")
	var mu sync.Mutex
	got := make([]map[string]int, members)
	groups := make([]*group.Group, members)
	for i := range groups {
		n, err := node.NewWithBatching(types.ProcessID{Site: types.SiteID(i + 1)}, net,
			node.Batching{MaxBatch: 4, Window: 50 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Stop)
		stack := group.NewStack(n, nil)
		n.Start()
		got[i] = map[string]int{}
		cfg := group.Config{OnDeliver: func(d group.Delivery) {
			mu.Lock()
			got[i][string(d.Payload)]++
			mu.Unlock()
		}}
		if i == 0 {
			groups[i], err = stack.Create(gid, cfg)
		} else {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			groups[i], err = stack.Join(ctx, gid, types.ProcessID{Site: 1}, cfg)
			cancel()
		}
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
	waitFor(t, "a full view", func() bool {
		for _, g := range groups {
			if g.Size() != members {
				return false
			}
		}
		return true
	})

	payload := func(sender, k int) []byte {
		return append([]byte(fmt.Sprintf("%d/%d/", sender, k)), bytes.Repeat([]byte{byte(k)}, k%97)...)
	}
	// ABCAST exercises the sequencer's shared order templates and the Seq
	// stamp on the self-delivered envelope; CBCAST the shared VT.
	orderings := []types.Ordering{types.Total, types.Causal}
	var wg sync.WaitGroup
	for s, g := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < casts; k++ {
				g.CastAsync(orderings[k%len(orderings)], payload(s, k))
			}
		}()
	}
	wg.Wait()
	waitFor(t, "every cast everywhere", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, m := range got {
			if len(m) < members*casts {
				return false
			}
		}
		return true
	})
	mu.Lock()
	defer mu.Unlock()
	for i, m := range got {
		if len(m) != members*casts {
			t.Errorf("member %d delivered %d distinct payloads, want %d", i, len(m), members*casts)
		}
		for s := 0; s < members; s++ {
			for k := 0; k < casts; k++ {
				if c := m[string(payload(s, k))]; c != 1 {
					t.Errorf("member %d delivered cast %d/%d %d times, want once", i, s, k, c)
				}
			}
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSharedArraysNeverWritten proves the data-path contract: the arrays of
// a cast, an order announcement or a stability report are frozen once
// built, and the simulated network lets every receiver share them. A fabric
// tap keeps each data-path array it sees with a checksum while an 8-member
// group floods FIFO, CBCAST and ABCAST casts under loss, duplication and
// reordering — so gaps are NAKed and served, held casts are re-notified —
// and loses a member mid-flood, so the flush forwards unstable casts. At the
// end every array must still match its checksum: nothing on the sender,
// the receivers or the recovery paths wrote into one.
func TestSharedArraysNeverWritten(t *testing.T) {
	const members, casts = 8, 90
	c := cluster.MustNew(members, cluster.Options{Netsim: netsim.Config{Seed: 32}})
	t.Cleanup(c.Stop)

	type key struct {
		vt    *uint64
		stab  *types.StabEntry
		pl    *byte
		path  *uint32
		gpath *uint32
		n     int
	}
	type kept struct {
		m   types.Message // arrays only: the envelope is the sender's, borrowed
		sum uint64
	}
	var tapMu sync.Mutex
	seen := map[key]kept{}
	ownResends := 0
	c.Fabric.Watch(func(p netsim.Packet) {
		m := p.Msg
		switch m.Kind {
		case types.KindCast, types.KindOrder, types.KindStability:
		default:
			return
		}
		arrays := types.Message{Kind: m.Kind, VT: m.VT, Stab: m.Stab, Payload: m.Payload, Path: m.Path}
		arrays.Group.Path = m.Group.Path
		k := key{first(arrays.VT), first(arrays.Stab), first(arrays.Payload), first(arrays.Path), first(arrays.Group.Path),
			len(arrays.VT) + len(arrays.Stab) + len(arrays.Payload) + len(arrays.Path) + len(arrays.Group.Path)}
		tapMu.Lock()
		defer tapMu.Unlock()
		if m.Kind == types.KindCast && m.StabOrd == 0 && m.From == m.ID.Sender {
			ownResends++ // a sender re-sending its own held cast
		}
		if _, ok := seen[k]; !ok {
			seen[k] = kept{arrays, arraySum(&arrays)}
		}
	})

	// One group per ordering: FIFO sequences a sender's casts by their
	// group-wide send sequence, so it does not mix with the others in one
	// group.
	orderings := []types.Ordering{types.FIFO, types.Causal, types.Total}
	var mu sync.Mutex
	type castKey struct { // a cast's identity: its send sequence restarts per view
		o    types.Ordering
		view types.ViewID
		id   types.MsgID
	}
	got := make([]map[castKey]int, members)   // deliveries per member
	groups := make([][]*group.Group, members) // [member][ordering]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := range groups {
		got[i] = map[castKey]int{}
		cfg := group.Config{
			OnDeliver: func(d group.Delivery) {
				mu.Lock()
				got[i][castKey{d.Ordering, d.View, d.ID}]++
				mu.Unlock()
			},
			// Under loss the flush's cut can take a while to fill, longer
			// still under the race detector; the default grace would
			// install without it and drop casts that every survivor must
			// deliver.
			InstallGrace: 10 * time.Second,
		}
		for _, o := range orderings {
			gid := types.FlatGroup("frozen-" + o.String())
			var g *group.Group
			var err error
			if i == 0 {
				g, err = c.Proc(i).Stack.Create(gid, cfg)
			} else {
				g, err = c.Proc(i).Stack.Join(ctx, gid, c.Proc(0).ID, cfg)
			}
			if err != nil {
				t.Fatalf("member %d, %s: %v", i, o, err)
			}
			groups[i] = append(groups[i], g)
		}
	}
	waitFor(t, "full views", func() bool {
		for _, gs := range groups {
			for _, g := range gs {
				if g.Size() != members {
					return false
				}
			}
		}
		return true
	})

	// Loss on the data path only: the membership protocol assumes reliable
	// links, the data path recovers by NAK, re-notify and flush.
	rng := rand.New(rand.NewSource(32))
	removeLoss := c.Fabric.AddDropRule(func(p netsim.Packet) bool {
		switch p.Msg.Kind {
		case types.KindCast, types.KindOrder, types.KindStability:
			return rng.Float64() < 0.05 // rules run under the fabric's lock
		}
		return false
	})
	c.Fabric.SetDuplication(0.05)
	c.Fabric.SetReordering(0.05, time.Millisecond)

	payload := func(sender, k int) []byte {
		return append([]byte(fmt.Sprintf("%d/%d/", sender, k)), bytes.Repeat([]byte{byte(k)}, k%61)...)
	}
	const victim = members - 1
	var wg sync.WaitGroup
	for s, gs := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < casts; k++ {
				o := k % len(orderings)
				if k%4 == 0 {
					// A held cast keeps a resiliency waiter, which re-notify
					// serves. A few suffice: under the race detector a
					// flood of them re-sends faster than reports return.
					gs[o].CastAsyncHeld(orderings[o], payload(s, k), func(error) {})
				} else {
					gs[o].CastAsync(orderings[o], payload(s, k))
				}
				if k == casts/2 && s == 0 {
					c.Crash(victim)
					c.InjectFailure(victim)
				}
			}
		}()
	}
	wg.Wait()
	victimID := c.Proc(victim).ID
	waitFor(t, "every survivor's cast at every survivor", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < victim; i++ {
			n := 0
			for k := range got[i] {
				if k.id.Sender != victimID {
					n++
				}
			}
			if n < victim*casts {
				return false
			}
		}
		return true
	})
	removeLoss()

	var rs reliability.Stats
	for i := 0; i < victim; i++ {
		rs.Add(c.Proc(i).Stack.ReliabilityStats())
	}
	c.Fabric.Watch(nil)
	tapMu.Lock()
	defer tapMu.Unlock()
	t.Logf("%d distinct data-path array sets; NAKs served %d, flush-forwarded %d, own re-sends %d",
		len(seen), rs.NaksServed, rs.Forwarded, ownResends)
	if rs.NaksServed == 0 || rs.Forwarded == 0 || ownResends == 0 {
		t.Errorf("a recovery path never ran: NAKs served %d, flush-forwarded %d, own re-sends %d",
			rs.NaksServed, rs.Forwarded, ownResends)
	}
	for _, a := range seen {
		if arraySum(&a.m) != a.sum {
			t.Fatalf("a shared %v array set was written after it was sent: %+v", a.m.Kind, a.m)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < victim; i++ {
		for k, n := range got[i] {
			if n != 1 {
				t.Errorf("member %d delivered %s cast %v %d times, want once", i, k.o, k.id, n)
			}
		}
	}
}

func first[T any](s []T) *T {
	if len(s) == 0 {
		return nil
	}
	return &s[0]
}

// arraySum checksums every array a message carries.
func arraySum(m *types.Message) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, v := range m.VT {
		put(v)
	}
	for _, e := range m.Stab {
		put(uint64(e.Sender.Site)<<32 | uint64(e.Sender.Incarnation))
		put(uint64(e.Sender.Index))
		put(e.Seq)
	}
	h.Write(m.Payload)
	for _, v := range m.Path {
		put(uint64(v))
	}
	for _, v := range m.Group.Path {
		put(uint64(v))
	}
	return h.Sum64()
}
