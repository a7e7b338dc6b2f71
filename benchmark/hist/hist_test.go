package hist

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func samples(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		// Log-uniform over 1ns .. ~17s, the range latencies live in.
		out[i] = int64(math.Exp(rng.Float64() * 23.5))
	}
	return out
}

func exact(sorted []int64, p float64) float64 {
	rank := int(p / 100 * float64(len(sorted)))
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return float64(sorted[rank])
}

func TestPercentileWithinOneSixtyFourth(t *testing.T) {
	vals := samples(1, 200000)
	h := New()
	for _, v := range vals {
		h.Observe(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, p := range []float64{1, 10, 50, 90, 99, 99.9, 100} {
		want, got := exact(vals, p), h.Percentile(p)
		if err := math.Abs(got-want) / want; err > 1.0/64 {
			t.Errorf("p%v: got %v want %v (relative error %.4f > 1/64)", p, got, want, err)
		}
	}
}

func TestBucketsTileTheRange(t *testing.T) {
	var next int64
	for i := 0; i < buckets; i++ {
		lo, hi := bounds(i)
		if lo != next || hi <= lo {
			t.Fatalf("bucket %d = [%d,%d), want lower bound %d", i, lo, hi, next)
		}
		if index(lo) != i || index(hi-1) != i {
			t.Fatalf("bucket %d: index(%d)=%d index(%d)=%d", i, lo, index(lo), hi-1, index(hi-1))
		}
		next = hi
	}
	if index(math.MaxInt64) != buckets-1 || index(-5) != 0 {
		t.Fatal("out-of-range samples must clamp to the end buckets")
	}
}

func TestMergeEqualsConcatenation(t *testing.T) {
	a, b := samples(2, 5000), samples(3, 7000)
	ha, hb, all := New(), New(), New()
	for _, v := range a {
		ha.Observe(v)
		all.Observe(v)
	}
	for _, v := range b {
		hb.Observe(v)
		all.Observe(v)
	}
	ha.Merge(hb)
	if ha.Count() != all.Count() {
		t.Fatalf("merged count %d, want %d", ha.Count(), all.Count())
	}
	for i := range all.counts {
		if ha.counts[i].Load() != all.counts[i].Load() {
			t.Fatalf("bucket %d: merged %d, concatenated %d", i, ha.counts[i].Load(), all.counts[i].Load())
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	h := New()
	for _, v := range samples(4, 3000) {
		h.Observe(v)
	}
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	back := New()
	if err := json.Unmarshal(b, back); err != nil {
		t.Fatal(err)
	}
	if back.Count() != h.Count() || back.Percentile(50) != h.Percentile(50) || back.Percentile(99) != h.Percentile(99) {
		t.Fatalf("round trip changed the histogram: %d/%v vs %d/%v", back.Count(), back.Percentile(50), h.Count(), h.Percentile(50))
	}
}

func TestObserveDoesNotAllocate(t *testing.T) {
	h := New()
	if n := testing.AllocsPerRun(1000, func() { h.Observe(123456) }); n != 0 {
		t.Fatalf("Observe allocates %v times per call", n)
	}
}
