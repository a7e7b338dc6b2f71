// Package hist is the benchmark's latency histogram: fixed log-linear
// buckets (64 per power of two, so a percentile is within 1/64 of the exact
// sample), an allocation-free and goroutine-safe Observe, exact merging and a
// sparse JSON form. metrics.Histogram stores and re-sorts every sample, which
// would put the measurement's own allocation into alloc_b_per_op.
package hist

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sync/atomic"
)

const (
	subBits = 6 // 64 sub-buckets per octave
	subs    = 1 << subBits
	// maxExp caps values at 2^40-1 (18 minutes in nanoseconds); larger
	// samples land in the last bucket.
	maxExp  = 39
	buckets = (maxExp-subBits+1)*subs + subs
)

// H is one histogram of non-negative int64 samples. The zero value is not
// usable; call New.
type H struct {
	counts []atomic.Uint64
	n      atomic.Uint64
}

// New returns an empty histogram.
func New() *H { return &H{counts: make([]atomic.Uint64, buckets)} }

// index maps a sample to its bucket: values below 64 are exact, above that
// the top seven significant bits select the bucket.
func index(v int64) int {
	if v < subs {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	if e > maxExp {
		return buckets - 1
	}
	return (e-subBits+1)*subs + int(uint64(v)>>(e-subBits))&(subs-1)
}

// bounds returns the inclusive lower and exclusive upper value of bucket i.
func bounds(i int) (lo, hi int64) {
	if i < subs {
		return int64(i), int64(i) + 1
	}
	e := i/subs + subBits - 1
	sub := int64(i % subs)
	width := int64(1) << (e - subBits)
	lo = (subs + sub) * width
	return lo, lo + width
}

// Observe records one sample. It never allocates and may be called from any
// goroutine.
func (h *H) Observe(v int64) {
	h.counts[index(v)].Add(1)
	h.n.Add(1)
}

// Count returns the number of samples observed.
func (h *H) Count() uint64 { return h.n.Load() }

// Percentile returns the p-th percentile (0 < p <= 100) as the midpoint of
// the bucket holding the sample of that rank; 0 for an empty histogram.
func (h *H) Percentile(p float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(p / 100 * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen > rank {
			lo, hi := bounds(i)
			return float64(lo) + float64(hi-lo-1)/2
		}
	}
	lo, _ := bounds(buckets - 1)
	return float64(lo)
}

// Merge adds every sample of o to h: merging equals observing the
// concatenation of both sample sets.
func (h *H) Merge(o *H) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c > 0 {
			h.counts[i].Add(c)
		}
	}
	h.n.Add(o.n.Load())
}

// MarshalJSON encodes the non-empty buckets as [index, count] pairs.
func (h *H) MarshalJSON() ([]byte, error) {
	pairs := [][2]uint64{}
	for i := range h.counts {
		if c := h.counts[i].Load(); c > 0 {
			pairs = append(pairs, [2]uint64{uint64(i), c})
		}
	}
	return json.Marshal(pairs)
}

// UnmarshalJSON replaces h's contents with the encoded buckets.
func (h *H) UnmarshalJSON(b []byte) error {
	var pairs [][2]uint64
	if err := json.Unmarshal(b, &pairs); err != nil {
		return fmt.Errorf("hist: %w", err)
	}
	h.counts = make([]atomic.Uint64, buckets)
	var n uint64
	for _, p := range pairs {
		if p[0] >= buckets {
			return fmt.Errorf("hist: bucket %d out of range", p[0])
		}
		h.counts[p[0]].Store(p[1])
		n += p[1]
	}
	h.n.Store(n)
	return nil
}
