package experiments

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	isis "repro"
	"repro/internal/group"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/types"
)

// E13StateTransfer measures the durable-state subsystem this PR adds.
//
// The first table is the write-ahead log's cost on the hot path: one replica
// of a small KV group floods totally ordered put operations and the round is
// timed until every replica has applied every op — once with the delivery
// log enabled (every applied op appended to disk, fsync batched on the
// recovery tick) and once without. The table reports applied ops/sec in both
// modes, the number of WAL records written, and the throughput ratio, which
// is the measured price of durability.
//
// The second table is the joiner's side of streaming state transfer: a KV
// group of n members is preloaded with a fixed map, then one fresh process
// joins and the round is timed from the join call until the joiner's map
// digest equals the founder's — checkpoint capture at the install cut,
// chunked transfer, restore and any concurrent deliveries included. The
// table reports the transfer latency, checkpoint chunk count and snapshot
// bytes as the member count grows, which is what bounds how fast a restarted
// replica becomes a serving member.
func E13StateTransfer(s Scale) (*metrics.Table, *metrics.Table, error) {
	replicas, ops := 3, 3000
	sizes := []int{8, 16}
	keys := 1500
	switch s {
	case Full:
		ops = 8000
		sizes = []int{8, 16, 32}
		keys = 4000
	case Smoke:
		ops = 600
		sizes = []int{8}
		keys = 400
	}

	wal := metrics.NewTable("E13: KV write throughput, write-ahead delivery log on vs off",
		"replicas", "ops", "wal", "elapsed", "applied ops/sec", "wal records", "throughput vs no-wal")
	off, err := runKVLoad(replicas, ops, false)
	if err != nil {
		return nil, nil, fmt.Errorf("E13 wal-off: %w", err)
	}
	on, err := runKVLoad(replicas, ops, true)
	if err != nil {
		return nil, nil, fmt.Errorf("E13 wal-on: %w", err)
	}
	wal.AddRow(replicas, ops, "off", off.elapsed, off.rate, 0, "")
	wal.AddRow(replicas, ops, "on", on.elapsed, on.rate, on.walRecords, on.rate/off.rate)

	xfer := metrics.NewTable("E13: rejoin-to-converged latency, streaming checkpoint transfer vs group size",
		"members", "keys", "snapshot bytes", "chunks", "join -> converged")
	for _, n := range sizes {
		r, err := runJoinTransfer(n, keys)
		if err != nil {
			return nil, nil, fmt.Errorf("E13 transfer n=%d: %w", n, err)
		}
		xfer.AddRow(n, keys, r.snapshotBytes, r.chunks, r.latency)
	}
	return wal, xfer, nil
}

// kvLoadResult is one measured KV flood round.
type kvLoadResult struct {
	elapsed    time.Duration
	rate       float64 // ops/sec applied on the issuing replica
	walRecords uint64
}

// runKVLoad floods ops put operations through a KV group of n replicas and
// waits until every replica has applied all of them. With wal set, every
// process logs its applied deliveries to a temporary directory.
func runKVLoad(n, ops int, wal bool) (kvLoadResult, error) {
	var opts []isis.Option
	if wal {
		dir, err := os.MkdirTemp("", "isis-e13-wal-")
		if err != nil {
			return kvLoadResult{}, err
		}
		defer os.RemoveAll(dir)
		opts = append(opts, isis.WithWAL(dir))
	}
	rt, procs, err := simulate(n, opts...)
	if err != nil {
		return kvLoadResult{}, err
	}
	defer rt.Shutdown()

	groups, stores, err := buildKVGroup(procs)
	if err != nil {
		return kvLoadResult{}, err
	}

	// Windowed flood, same flow control as the E11/E12 harness: cap the ops
	// in flight so the bounded inbound queues never overflow.
	const window = 1024
	payload := func(i int) []byte {
		return kvstore.EncodeOp(kvstore.OpPut, uint64(i+1), fmt.Sprintf("key-%06d", i), "value-0123456789abcdef")
	}
	start := time.Now()
	for sent := 0; sent < ops; {
		inFlight := int64(sent) - int64(stores[0].Applied())
		if inFlight >= window {
			time.Sleep(20 * time.Microsecond)
			continue
		}
		burst := ops - sent
		if room := int(window - inFlight); burst > room {
			burst = room
		}
		for k := 0; k < burst; k++ {
			groups[0].CastAsync(types.Total, payload(sent+k))
			sent++
		}
	}
	deadline := time.Now().Add(opTimeout)
	for {
		done := true
		for _, st := range stores {
			if st.Applied() < uint64(ops) {
				done = false
				break
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			return kvLoadResult{}, fmt.Errorf("applied %d of %d: %w", stores[0].Applied(), ops, types.ErrTimeout)
		}
		time.Sleep(50 * time.Microsecond)
	}
	elapsed := time.Since(start)

	res := kvLoadResult{elapsed: elapsed, rate: float64(ops) / elapsed.Seconds()}
	if wal {
		for _, g := range groups {
			st := g.StateStats()
			res.walRecords += st.WALAppends + st.WALCompactions
		}
	}
	return res, nil
}

// joinResult is one measured checkpoint-transfer round.
type joinResult struct {
	latency       time.Duration
	chunks        uint64
	snapshotBytes uint64
}

// runJoinTransfer preloads a KV group of n members with a fixed map and
// times how long a fresh joiner takes to hold an identical map.
func runJoinTransfer(n, keys int) (joinResult, error) {
	rt, procs, err := simulate(n)
	if err != nil {
		return joinResult{}, err
	}
	defer rt.Shutdown()

	groups, stores, err := buildKVGroup(procs)
	if err != nil {
		return joinResult{}, err
	}
	for i := 0; i < keys; i++ {
		groups[0].CastAsync(types.Total,
			kvstore.EncodeOp(kvstore.OpPut, uint64(i+1), fmt.Sprintf("key-%06d", i), "value-0123456789abcdefghijklmnopqrstuvwxyz"))
	}
	if !await(func() bool {
		for _, st := range stores {
			if st.Applied() < uint64(keys) {
				return false
			}
		}
		return true
	}) {
		return joinResult{}, fmt.Errorf("preload never applied everywhere: %w", types.ErrTimeout)
	}
	want := stores[0].Digest()
	// Let the preload reach stability before timing the join: the view-change
	// flush retransmits whatever is still unstable, and this round measures
	// checkpoint transfer, not residual retransmission of the preload.
	time.Sleep(250 * time.Millisecond)

	p, err := rt.Spawn()
	if err != nil {
		return joinResult{}, err
	}
	store := kvstore.New()
	// The join's view change flushes across all n members, so its latency
	// grows with group size (the point of the table); give the largest sweeps
	// more headroom than the flat opTimeout.
	ctx, cancel := context.WithTimeout(context.Background(), 4*opTimeout)
	defer cancel()
	start := time.Now()
	g, err := p.JoinGroup(ctx, "e13-kv", procs[0].ID(), kvConfig(store))
	if err != nil {
		return joinResult{}, fmt.Errorf("join n=%d: %w", n, err)
	}
	if !await(func() bool { return store.Digest() == want }) {
		return joinResult{}, fmt.Errorf("joiner never converged: %w", types.ErrTimeout)
	}
	latency := time.Since(start)
	// Chunk count from the joiner's side of the transfer; snapshot size from
	// the founder, whose captured checkpoint served the join.
	st := g.StateStats()
	return joinResult{latency: latency, chunks: st.ChunksReceived, snapshotBytes: groups[0].StateStats().SnapshotBytes}, nil
}

// kvConfig wires a store into a group config the way the facade's KV service
// does: the store is the state machine and applies every delivery.
func kvConfig(store *kvstore.Store) group.Config {
	return group.Config{
		State:     store,
		OnDeliver: store.Apply,
	}
}

// buildKVGroup stands a KV replica group up on the given processes: one
// store per process, process 0 the founder.
func buildKVGroup(procs []*isis.Process) ([]*group.Group, []*kvstore.Store, error) {
	n := len(procs)
	groups := make([]*group.Group, n)
	stores := make([]*kvstore.Store, n)
	var err error
	for i := range stores {
		stores[i] = kvstore.New()
	}
	groups[0], err = procs[0].CreateGroup("e13-kv", kvConfig(stores[0]))
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 1; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			groups[i], errs[i] = procs[i].JoinGroup(ctx, "e13-kv", procs[0].ID(), kvConfig(stores[i]))
		}()
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			return nil, nil, fmt.Errorf("join %d/%d: %w", i, n, e)
		}
	}
	if !await(sized(n, groups...)) {
		return nil, nil, fmt.Errorf("group never converged to %d members: %w", n, types.ErrTimeout)
	}
	return groups, stores, nil
}
