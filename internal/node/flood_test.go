package node_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/node"
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
