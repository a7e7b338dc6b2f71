// Benchmarks regenerating every experiment table (E1–E8, E10–E14) and ablation
// (A1–A3) from EXPERIMENTS.md, one benchmark per experiment. Each benchmark
// runs the Quick-scale sweep once per iteration and reports the headline
// number as a custom metric; `cmd/isis-bench -scale full` prints the
// full-scale tables the documentation records.
package isis_test

import (
	"context"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	isis "repro"
	"repro/internal/experiments"
	"repro/internal/group"
	"repro/internal/metrics"
	"repro/internal/reliability"
	"repro/internal/types"
)

func runTable(b *testing.B, f func(experiments.Scale) (*metrics.Table, error)) *metrics.Table {
	b.Helper()
	var last *metrics.Table
	for i := 0; i < b.N; i++ {
		t, err := f(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	if last == nil || last.Rows() == 0 {
		b.Fatal("experiment produced no rows")
	}
	return last
}

// BenchmarkE1RequestCost regenerates E1: coordinator-cohort request cost,
// flat (≈2n messages) vs hierarchical (bounded by leaf size).
func BenchmarkE1RequestCost(b *testing.B) {
	t := runTable(b, experiments.E1RequestCost)
	b.ReportMetric(float64(t.Rows()), "sizes")
}

// BenchmarkE2TrafficScaling regenerates E2: total traffic vs client count.
func BenchmarkE2TrafficScaling(b *testing.B) {
	t := runTable(b, experiments.E2TrafficScaling)
	b.ReportMetric(float64(t.Rows()), "points")
}

// BenchmarkE3MembershipChange regenerates E3: cost of one member failure.
func BenchmarkE3MembershipChange(b *testing.B) {
	t := runTable(b, experiments.E3MembershipChange)
	b.ReportMetric(float64(t.Rows()), "sizes")
}

// BenchmarkE4Reliability regenerates E4: availability vs size and
// resiliency (analytic model).
func BenchmarkE4Reliability(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		t1, t2 := experiments.E4Reliability(experiments.Quick)
		rows = t1.Rows() + t2.Rows()
	}
	b.ReportMetric(float64(rows), "rows")
	b.ReportMetric(float64(reliability.ResiliencyKnee(0.05, 1e-6, 20)), "resiliency_knee")
}

// BenchmarkE5TreeBroadcast regenerates E5: flat vs tree-structured
// whole-group broadcast across fanouts.
func BenchmarkE5TreeBroadcast(b *testing.B) {
	t := runTable(b, experiments.E5TreeBroadcast)
	b.ReportMetric(float64(t.Rows()), "configurations")
}

// BenchmarkE6ViewStorage regenerates E6: per-process view storage.
func BenchmarkE6ViewStorage(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		rows = experiments.E6ViewStorage(experiments.Quick).Rows()
	}
	b.ReportMetric(float64(rows), "sizes")
}

// BenchmarkE7TradingRoom regenerates E7: the trading-room workload.
func BenchmarkE7TradingRoom(b *testing.B) {
	t := runTable(b, experiments.E7TradingRoom)
	b.ReportMetric(float64(t.Rows()), "rows")
}

// BenchmarkE8SplitMerge regenerates E8: subgroup reorganisation under churn.
func BenchmarkE8SplitMerge(b *testing.B) {
	t := runTable(b, experiments.E8SplitMerge)
	b.ReportMetric(float64(t.Rows()), "phases")
}

// BenchmarkE10ChaosSurvival regenerates E10: seeded fault scenarios with
// the invariant checkers as the pass/fail gate. The reported metric is the
// scenario count; any invariant violation fails the benchmark.
func BenchmarkE10ChaosSurvival(b *testing.B) {
	t := runTable(b, experiments.E10ChaosSurvival)
	b.ReportMetric(float64(t.Rows()), "scenarios")
}

// BenchmarkAblationFanout regenerates A1: the fanout sweep.
func BenchmarkAblationFanout(b *testing.B) {
	t := runTable(b, experiments.A1Fanout)
	b.ReportMetric(float64(t.Rows()), "fanouts")
}

// BenchmarkAblationResiliency regenerates A2: the resiliency sweep.
func BenchmarkAblationResiliency(b *testing.B) {
	t := runTable(b, experiments.A2Resiliency)
	b.ReportMetric(float64(t.Rows()), "levels")
}

// BenchmarkAblationOrdering regenerates A3: FBCAST vs CBCAST vs ABCAST cost.
func BenchmarkAblationOrdering(b *testing.B) {
	t := runTable(b, experiments.A3Ordering)
	b.ReportMetric(float64(t.Rows()), "orderings")
}

// BenchmarkE11LossyThroughput regenerates E11: delivered throughput and
// completeness under random loss (BENCH_lossy.json).
func BenchmarkE11LossyThroughput(b *testing.B) {
	t := runTable(b, experiments.E11LossyThroughput)
	b.ReportMetric(float64(t.Rows()), "rows")
}

// BenchmarkE12MemberScaling regenerates E12: delivered throughput and
// stability reports per cast vs group size (BENCH_scaling.json).
func BenchmarkE12MemberScaling(b *testing.B) {
	t := runTable(b, experiments.E12MemberScaling)
	b.ReportMetric(float64(t.Rows()), "rows")
}

// BenchmarkE13StateTransfer regenerates E13: KV write throughput with the
// write-ahead delivery log on vs off, and rejoin-to-converged latency for a
// fresh joiner pulling a streamed view-consistent checkpoint as the group
// grows. The recorded table (BENCH_state.json) is this PR's durability cost
// and recovery-latency trajectory.
func BenchmarkE13StateTransfer(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		t1, t2, err := experiments.E13StateTransfer(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		rows = t1.Rows() + t2.Rows()
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkE14RealNetwork regenerates E14: replicated-KV write throughput
// over real loopback TCP sockets (per-peer connection manager, bounded send
// queues, binary codec) and supervised-fleet recovery time from kill -9 under
// the groupmgr-style supervisor. The recorded table (BENCH_net.json) is this
// PR's real-network cost and self-healing latency. Builds and runs real
// isis-node processes, so it is far slower than the in-memory benchmarks.
func BenchmarkE14RealNetwork(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		t1, t2, err := experiments.E14RealNetwork(experiments.Smoke)
		if err != nil {
			b.Fatal(err)
		}
		rows = t1.Rows() + t2.Rows()
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkCastHotPath is the allocation-regression benchmark for the
// broadcast hot path: one member of a warm 8-member group floods async FIFO
// casts end to end (sender fan-out, outbox coalescing, batch intake,
// ordering engine, delivery) and the benchmark reports allocations per
// delivered cast. It exists to catch per-message allocation creep — compare
// allocs/op against the previous run in CI's bench artifact.
func BenchmarkCastHotPath(b *testing.B) {
	benchCastFlood(b, 8, 1, types.FIFO)
}

// BenchmarkCastHotPathAllSenders is the same flood with every member casting
// CBCAST in turn. With one sender every piggybacked watermark vector has one
// entry; here each has n, so this is where the per-message cost of stability
// accounting (n entries folded into an n×n matrix) shows.
func BenchmarkCastHotPathAllSenders(b *testing.B) {
	for _, n := range []int{8, 16} {
		b.Run(strconv.Itoa(n), func(b *testing.B) { benchCastFlood(b, n, n, types.Causal) })
	}
}

// TestCastAllocBudget pins the cast hot path's allocation budget: the
// all-senders floods of BenchmarkCastHotPathAllSenders may allocate at most
// 6 objects and 700 B per CBCAST at 8 members and 8 objects and 1200 B at
// 16, and the same flood in ABCAST at most 8 objects and 2400 B at 8.
// Receivers on the memory transport share the envelope a sender froze —
// arrays and scalars alike — and a delivery aliases its message's
// timestamp, so what a cast allocates no longer grows with a copy of the
// envelope or its arrays per receiver. A member's stability vector is one
// snapshot until a peer's watermark moves, receipt acknowledgements ride the
// member's next cast (or one report per burst), and the ordering engines
// release into their own buffers, so none of those is paid per cast either.
func TestCastAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the program's behalf")
	}
	for _, c := range []struct {
		members  int
		ordering types.Ordering
		objects  int64
		bytes    int64
	}{{8, types.Causal, 6, 700}, {16, types.Causal, 8, 1200}, {8, types.Total, 8, 2400}} {
		r := testing.Benchmark(func(b *testing.B) { benchCastFlood(b, c.members, c.members, c.ordering) })
		t.Logf("%d members, %s: %d allocs, %d B per cast (%d casts)", c.members, c.ordering, r.AllocsPerOp(), r.AllocedBytesPerOp(), r.N)
		if r.AllocsPerOp() > c.objects {
			t.Errorf("%d members, %s: a cast allocates %d objects, budget %d", c.members, c.ordering, r.AllocsPerOp(), c.objects)
		}
		if r.AllocedBytesPerOp() > c.bytes {
			t.Errorf("%d members, %s: a cast allocates %d B, budget %d", c.members, c.ordering, r.AllocedBytesPerOp(), c.bytes)
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// benchCastFlood floods b.N async casts through a warm n-member group, the
// first `senders` members casting round-robin with at most 1024 casts in
// flight, and waits until every member has delivered every cast.
func benchCastFlood(b *testing.B, n, senders int, o types.Ordering) {
	rt := isis.NewSimulated()
	defer rt.Shutdown()
	procs := make([]*isis.Process, n)
	for i := range procs {
		procs[i] = rt.MustSpawn()
	}

	var delivered atomic.Int64
	cfg := group.Config{OnDeliver: func(group.Delivery) { delivered.Add(1) }}
	groups := make([]*group.Group, n)
	var err error
	groups[0], err = procs[0].CreateGroup("hotpath", cfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 1; i < n; i++ {
		if groups[i], err = procs[i].JoinGroup(ctx, "hotpath", procs[0].ID(), cfg); err != nil {
			b.Fatal(err)
		}
	}
	if isis.Await(ctx, func() bool {
		for _, g := range groups {
			if g.Size() != n {
				return false
			}
		}
		return true
	}) != nil {
		b.Fatal("group never converged")
	}
	payload := []byte("hot-path-payload-0123456789")

	// Warm the path so steady state is what gets measured.
	for i := 0; i < senders; i++ {
		groups[i].CastAsync(o, payload)
	}
	for delivered.Load() < int64(n*senders) {
		time.Sleep(50 * time.Microsecond)
	}

	b.ReportAllocs()
	b.ResetTimer()
	// Deadlined like runFloodLoad's loops: a wedged stream must fail the
	// benchmark, not hang CI until the go test panic timeout.
	deadline := time.Now().Add(60 * time.Second)
	const window = 1024
	base := delivered.Load()
	want := base + int64(n)*int64(b.N)
	for sent := int64(0); sent < int64(b.N); {
		doneCasts := (delivered.Load() - base) / int64(n)
		if sent-doneCasts >= window {
			if time.Now().After(deadline) {
				b.Fatalf("flood stalled: %d/%d casts in flight after %d sent", sent-doneCasts, window, sent)
			}
			time.Sleep(20 * time.Microsecond)
			continue
		}
		groups[sent%int64(senders)].CastAsync(o, payload)
		sent++
	}
	for delivered.Load() < want {
		if time.Now().After(deadline) {
			b.Fatalf("delivered %d of %d before deadline", delivered.Load()-base, want-base)
		}
		time.Sleep(50 * time.Microsecond)
	}
}
