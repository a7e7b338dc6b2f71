package treecast

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/types"
)

func p(site uint32) types.ProcessID { return types.ProcessID{Site: types.SiteID(site)} }

func descriptors(n int) []LeafDescriptor {
	out := make([]LeafDescriptor, n)
	for i := range out {
		out[i] = LeafDescriptor{
			ID:       types.LeafGroup("svc", uint32(i)),
			Contacts: []types.ProcessID{p(uint32(i*10 + 1)), p(uint32(i*10 + 2))},
			Size:     5,
		}
	}
	return out
}

func TestPlanEmptyFails(t *testing.T) {
	if _, err := Plan(nil, 4); err == nil {
		t.Error("Plan with no leaves succeeded")
	}
}

func TestPlanSingleLeaf(t *testing.T) {
	root, err := Plan(descriptors(1), 4)
	if err != nil {
		t.Fatal(err)
	}
	if CountStages(root) != 1 || Depth(root) != 0 || MaxForwardFanout(root) != 0 {
		t.Errorf("stages=%d depth=%d fanout=%d", CountStages(root), Depth(root), MaxForwardFanout(root))
	}
}

func TestPlanCoversEveryLeafOnce(t *testing.T) {
	for _, n := range []int{1, 2, 4, 5, 16, 17, 63, 64, 65, 200} {
		for _, fanout := range []int{2, 4, 8, 16} {
			root, err := Plan(descriptors(n), fanout)
			if err != nil {
				t.Fatal(err)
			}
			got := Leaves(root)
			if len(got) != n {
				t.Fatalf("n=%d fanout=%d: plan covers %d leaves", n, fanout, len(got))
			}
			seen := map[string]bool{}
			for _, id := range got {
				if seen[id.Key()] {
					t.Fatalf("n=%d fanout=%d: leaf %v appears twice", n, fanout, id)
				}
				seen[id.Key()] = true
			}
		}
	}
}

func TestPlanRespectsFanoutBound(t *testing.T) {
	for _, n := range []int{1, 5, 17, 64, 100, 333} {
		for _, fanout := range []int{2, 3, 4, 8} {
			root, err := Plan(descriptors(n), fanout)
			if err != nil {
				t.Fatal(err)
			}
			// A representative contacts its child stages plus its own leaf, so
			// the per-stage forward bound is max(2, fanout-1) regardless of n
			// — the strict form of the paper's "no process contacts more than
			// roughly fanout destinations".
			limit := fanout - 1
			if limit < 2 {
				limit = 2
			}
			if got := MaxForwardFanout(root); got > limit {
				t.Errorf("n=%d fanout=%d: max forward fanout %d exceeds %d", n, fanout, got, limit)
			}
		}
	}
}

func TestPlanDepthLogarithmic(t *testing.T) {
	root, err := Plan(descriptors(64), 4)
	if err != nil {
		t.Fatal(err)
	}
	if d := Depth(root); d < 3 || d > 4 {
		t.Errorf("Depth(64 leaves, fanout 4) = %d, want about log3(64)=4", d)
	}
	root2, _ := Plan(descriptors(64), 64)
	if d := Depth(root2); d != 1 {
		t.Errorf("Depth(64 leaves, fanout 64) = %d, want 1", d)
	}
}

func TestPlanFanoutSmallerThanTwoClamped(t *testing.T) {
	root, err := Plan(descriptors(5), 1)
	if err != nil {
		t.Fatal(err)
	}
	if CountStages(root) != 5 {
		t.Errorf("stages = %d", CountStages(root))
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	root, err := Plan(descriptors(13), 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(Encode(root))
	if err != nil {
		t.Fatal(err)
	}
	if CountStages(got) != CountStages(root) || Depth(got) != Depth(root) {
		t.Errorf("round trip changed the plan: %d/%d vs %d/%d",
			CountStages(got), Depth(got), CountStages(root), Depth(root))
	}
	a, b := Leaves(root), Leaves(got)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Errorf("leaf %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if len(got.Contacts) != len(root.Contacts) || got.Contacts[0] != root.Contacts[0] {
		t.Error("contacts lost in round trip")
	}
	if _, err := Decode([]byte{9, 9}); err == nil {
		t.Error("Decode accepted garbage")
	}
	nilPlan, err := Decode(Encode(nil))
	if err != nil || nilPlan != nil {
		t.Error("nil plan round trip failed")
	}
}

// TestEncodedSizeMatchesAppendEncode: EncodedSize is exactly what
// AppendEncode writes, for the nil plan and for plans of every shape, so a
// caller that presizes a frame with it writes the plan without growing the
// buffer; AppendEncode keeps what the buffer held, and Encode allocates once.
func TestEncodedSizeMatchesAppendEncode(t *testing.T) {
	plans := []*Stage{nil}
	for n := 1; n <= 40; n += 3 {
		for fanout := 2; fanout <= 6; fanout += 2 {
			root, err := Plan(descriptors(n), fanout)
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, root)
		}
	}
	prefix := []byte("frame header")
	for i, root := range plans {
		if got, want := len(AppendEncode(nil, root)), EncodedSize(root); got != want {
			t.Fatalf("plan %d: AppendEncode wrote %d bytes, EncodedSize says %d", i, got, want)
		}
		b := AppendEncode(append([]byte(nil), prefix...), root)
		if !bytes.Equal(b[:len(prefix)], prefix) || !bytes.Equal(b[len(prefix):], Encode(root)) {
			t.Fatalf("plan %d: AppendEncode after a prefix is not the prefix followed by Encode", i)
		}
		if allocs := testing.AllocsPerRun(10, func() { _ = Encode(root) }); allocs != 1 {
			t.Fatalf("plan %d: Encode made %v allocations, want 1", i, allocs)
		}
	}
}

func TestAggregatorLocalAndChildren(t *testing.T) {
	root, _ := Plan(descriptors(3), 4)
	agg := NewAggregator(7, p(99), root.Children)
	if agg.Done() {
		t.Fatal("aggregator done before anything acknowledged")
	}
	if agg.LocalDone(5) {
		t.Fatal("done after local only, children outstanding")
	}
	if agg.Outstanding() != 2 {
		t.Errorf("Outstanding = %d", agg.Outstanding())
	}
	if agg.ChildDone(root.Children[0].Leaf, 5) {
		t.Fatal("done with one child outstanding")
	}
	if !agg.ChildDone(root.Children[1].Leaf, 4) {
		t.Fatal("not done after all children acknowledged")
	}
	if agg.Covered() != 14 {
		t.Errorf("Covered = %d, want 14", agg.Covered())
	}
	// Duplicate acknowledgements must not double count.
	agg.ChildDone(root.Children[1].Leaf, 4)
	if agg.Covered() != 14 {
		t.Errorf("duplicate ack changed coverage to %d", agg.Covered())
	}
}

func TestAggregatorChildFailed(t *testing.T) {
	root, _ := Plan(descriptors(2), 4)
	agg := NewAggregator(1, types.NilProcess, root.Children)
	agg.LocalDone(5)
	if !agg.ChildFailed(root.Children[0].Leaf) {
		t.Error("not done after the only child failed")
	}
	if agg.Covered() != 5 {
		t.Errorf("failed child contributed coverage: %d", agg.Covered())
	}
}

func TestAggregatorLocalIdempotent(t *testing.T) {
	agg := NewAggregator(1, types.NilProcess, nil)
	agg.LocalDone(3)
	agg.LocalDone(3)
	if agg.Covered() != 3 {
		t.Errorf("Covered = %d, want 3", agg.Covered())
	}
	if !agg.Done() {
		t.Error("aggregator with no children not done after local delivery")
	}
}

func TestPlanRandomisedProperty(t *testing.T) {
	// Fuzzed over leaf counts and fanouts: every leaf lands in exactly one
	// stage, the strict forward-fanout bound holds, and depth stays within
	// the capacity bound of a complete max(2, fanout-1)-ary tree.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(300)
		fanout := 1 + rng.Intn(12)
		root, err := Plan(descriptors(n), fanout)
		if err != nil {
			t.Fatal(err)
		}
		if CountStages(root) != n {
			t.Fatalf("n=%d fanout=%d: %d stages", n, fanout, CountStages(root))
		}
		leaves := Leaves(root)
		seen := make(map[string]bool, len(leaves))
		for _, id := range leaves {
			if seen[id.Key()] {
				t.Fatalf("n=%d fanout=%d: leaf %v appears in two stages", n, fanout, id)
			}
			seen[id.Key()] = true
		}
		if len(seen) != n {
			t.Fatalf("n=%d fanout=%d: %d distinct leaves covered", n, fanout, len(seen))
		}
		arity := fanout - 1
		if arity < 2 {
			arity = 2
		}
		if got := MaxForwardFanout(root); got > arity {
			t.Fatalf("n=%d fanout=%d: max forward fanout %d > %d", n, fanout, got, arity)
		}
		// Depth must not exceed that of a complete arity-ary tree holding n
		// stages (capacity 1, 1+a, 1+a+a², …).
		maxDepth := 0
		for capacity := 1; capacity < n; capacity = capacity*arity + 1 {
			maxDepth++
		}
		if Depth(root) > maxDepth {
			t.Fatalf("n=%d fanout=%d: depth %d > %d", n, fanout, Depth(root), maxDepth)
		}
	}
}
