package toolkit_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	isis "repro"
	"repro/internal/boot"
	"repro/internal/fdetect"
	"repro/internal/group"
	"repro/internal/node"
	"repro/internal/toolkit"
	"repro/internal/transport"
	"repro/internal/types"
)

const testTimeout = 5 * time.Second

func ctxT(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	t.Cleanup(cancel)
	return ctx
}

// spawn starts a simulated runtime of n processes, shut down when the test
// ends.
func spawn(t *testing.T, n int) (*isis.Runtime, []*isis.Process) {
	t.Helper()
	rt := isis.NewSimulated()
	t.Cleanup(rt.Shutdown)
	procs := make([]*isis.Process, n)
	for i := range procs {
		procs[i] = rt.MustSpawn()
	}
	return rt, procs
}

// flatClient returns a flat-service client on a process of its own. The
// client drives a raw node, which the facade does not hand out, so its
// process is spawned directly on the runtime's fabric, at a site the
// runtime never assigns.
func flatClient(t *testing.T, rt *isis.Runtime, entry types.ProcessID) *toolkit.FlatClient {
	t.Helper()
	p, err := boot.Spawn(isis.Site(1<<20), transport.NewMemory(rt.Fabric()), fdetect.Config{}, node.Batching{}, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)
	return toolkit.NewFlatClient(p.Node, "tool", entry)
}

// buildGroup assembles a flat group of n members with a composable OnDeliver.
func buildGroup(t *testing.T, procs []*isis.Process, n int, deliver func(i int) func(group.Delivery)) []*group.Group {
	t.Helper()
	groups := make([]*group.Group, n)
	cfg := func(i int) group.Config {
		var onDeliver func(group.Delivery)
		if deliver != nil {
			onDeliver = deliver(i)
		}
		return group.Config{OnDeliver: onDeliver}
	}
	var err error
	groups[0], err = procs[0].CreateGroup("tool", cfg(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		groups[i], err = procs[i].JoinGroup(ctxT(t), "tool", procs[0].ID(), cfg(i))
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	if isis.Await(ctxT(t), func() bool {
		for _, g := range groups {
			if g.Size() != n {
				return false
			}
		}
		return true
	}) != nil {
		t.Fatal("group never converged")
	}
	return groups
}

func TestCoordinatorCohortFlatService(t *testing.T) {
	const n = 4
	rt, procs := spawn(t, n)

	services := make([]*toolkit.Service, n)
	groups := buildGroup(t, procs, n, func(i int) func(group.Delivery) {
		return func(d group.Delivery) {
			if services[i] != nil {
				services[i].Deliver(d)
			}
		}
	})
	for i := range services {
		services[i] = toolkit.NewService(groups[i], func(p []byte) []byte {
			return append([]byte("ok:"), p...)
		})
		toolkit.NewFlatServer(services[i])
	}

	client := flatClient(t, rt, procs[1].ID()) // contact a cohort: must forward
	reply, err := client.Request(ctxT(t), []byte("do-work"))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "ok:do-work" {
		t.Errorf("reply = %q", reply)
	}
	// The coordinator handled it; every member (including cohorts) must have
	// received both the request copy and the result copy.
	handled, _, _ := services[0].Counters()
	if handled != 1 {
		t.Errorf("coordinator handled %d requests", handled)
	}
	ok := isis.Await(ctxT(t), func() bool {
		for i := 1; i < n; i++ {
			_, reqCopies, resCopies := services[i].Counters()
			if reqCopies != 1 || resCopies != 1 {
				return false
			}
		}
		return true
	}) == nil
	if !ok {
		t.Error("cohorts did not receive request and result copies")
	}
}

func TestCoordinatorCohortMessageCostGrowsWithGroupSize(t *testing.T) {
	// The paper's 2n claim: one request over a flat group of n members costs
	// on the order of 2n messages. Check that doubling n roughly doubles the
	// per-request message count.
	cost := func(n int) uint64 {
		rt, procs := spawn(t, n)
		defer rt.Shutdown()
		services := make([]*toolkit.Service, n)
		groups := buildGroup(t, procs, n, func(i int) func(group.Delivery) {
			return func(d group.Delivery) { services[i].Deliver(d) }
		})
		for i := range services {
			services[i] = toolkit.NewService(groups[i], func(p []byte) []byte { return p })
			toolkit.NewFlatServer(services[i])
		}
		client := flatClient(t, rt, procs[0].ID())
		// Warm up once, then measure.
		if _, err := client.Request(ctxT(t), []byte("warm")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(30 * time.Millisecond)
		rt.Fabric().ResetStats()
		if _, err := client.Request(ctxT(t), []byte("measured")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(30 * time.Millisecond)
		return rt.Fabric().Stats().MessagesSent
	}
	small := cost(4)
	large := cost(8)
	if large <= small {
		t.Errorf("request cost did not grow with group size: n=4 cost %d, n=8 cost %d", small, large)
	}
	if large < small*3/2 {
		t.Errorf("request cost grew too slowly for a flat group: n=4 cost %d, n=8 cost %d", small, large)
	}
}

func TestReplicatedDataConvergesEverywhere(t *testing.T) {
	const n = 3
	_, procs := spawn(t, n)
	repls := make([]*toolkit.Replicated, n)
	groups := buildGroup(t, procs, n, func(i int) func(group.Delivery) {
		return func(d group.Delivery) { repls[i].Apply(d) }
	})
	for i := range repls {
		repls[i] = toolkit.NewReplicated(groups[i])
	}
	if err := repls[0].Set(ctxT(t), "IBM", "101.5"); err != nil {
		t.Fatal(err)
	}
	if err := repls[1].Set(ctxT(t), "DEC", "42.0"); err != nil {
		t.Fatal(err)
	}
	ok := isis.Await(ctxT(t), func() bool {
		for _, r := range repls {
			if r.Len() != 2 {
				return false
			}
		}
		return true
	}) == nil
	if !ok {
		t.Fatal("replicas never converged")
	}
	for i, r := range repls {
		if v, _ := r.Get("IBM"); v != "101.5" {
			t.Errorf("replica %d IBM = %q", i, v)
		}
		if v, _ := r.Get("DEC"); v != "42.0" {
			t.Errorf("replica %d DEC = %q", i, v)
		}
	}
	if len(repls[0].Snapshot()) != 2 {
		t.Error("snapshot size wrong")
	}
	if _, ok := repls[0].Get("missing"); ok {
		t.Error("Get found a missing key")
	}
}

func TestReplicatedConcurrentWritersConverge(t *testing.T) {
	const n = 3
	_, procs := spawn(t, n)
	repls := make([]*toolkit.Replicated, n)
	groups := buildGroup(t, procs, n, func(i int) func(group.Delivery) {
		return func(d group.Delivery) { repls[i].Apply(d) }
	})
	for i := range repls {
		repls[i] = toolkit.NewReplicated(groups[i])
	}
	// All members write the same key concurrently; totally ordered delivery
	// means every replica must end with the same final value.
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = repls[i].Set(ctxT(t), "contended", fmt.Sprintf("writer-%d", i))
		}(i)
	}
	wg.Wait()
	ok := isis.Await(ctxT(t), func() bool {
		v0, ok0 := repls[0].Get("contended")
		if !ok0 {
			return false
		}
		for _, r := range repls[1:] {
			if v, ok := r.Get("contended"); !ok || v != v0 {
				return false
			}
		}
		return true
	}) == nil
	if !ok {
		t.Errorf("replicas diverged: %v %v %v",
			firstVal(repls[0]), firstVal(repls[1]), firstVal(repls[2]))
	}
}

func firstVal(r *toolkit.Replicated) string {
	v, _ := r.Get("contended")
	return v
}

func TestMutexMutualExclusionAndOrder(t *testing.T) {
	const n = 3
	_, procs := spawn(t, n)
	mtxs := make([]*toolkit.Mutex, n)
	groups := buildGroup(t, procs, n, func(i int) func(group.Delivery) {
		return func(d group.Delivery) { mtxs[i].Apply(d) }
	})
	for i := range mtxs {
		mtxs[i] = toolkit.NewMutex(groups[i])
	}

	var mu sync.Mutex
	inside := 0
	maxInside := 0
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				if err := mtxs[i].Lock(ctxT(t)); err != nil {
					t.Errorf("lock %d: %v", i, err)
					return
				}
				mu.Lock()
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				mu.Unlock()
				time.Sleep(2 * time.Millisecond)
				mu.Lock()
				inside--
				mu.Unlock()
				if err := mtxs[i].Unlock(ctxT(t)); err != nil {
					t.Errorf("unlock %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if maxInside != 1 {
		t.Errorf("mutual exclusion violated: %d holders at once", maxInside)
	}
	// Every member must have observed the same grant order.
	ok := isis.Await(ctxT(t), func() bool {
		h0 := mtxs[0].History()
		for _, m := range mtxs[1:] {
			h := m.History()
			if len(h) != len(h0) {
				return false
			}
		}
		return true
	}) == nil
	if !ok {
		t.Fatal("grant histories have different lengths")
	}
	h0 := mtxs[0].History()
	for mi, m := range mtxs[1:] {
		h := m.History()
		for j := range h0 {
			if h[j] != h0[j] {
				t.Fatalf("member %d grant order differs at %d: %v vs %v", mi+1, j, h[j], h0[j])
			}
		}
	}
}

func TestParallelScatterGather(t *testing.T) {
	const n = 4
	_, procs := spawn(t, n)
	groups := buildGroup(t, procs, n, nil)
	pars := make([]*toolkit.Parallel, n)
	for i := range pars {
		pars[i] = toolkit.NewParallel(groups[i], func(item []byte) []byte {
			return append([]byte("done:"), item...)
		})
	}
	items := make([][]byte, 10)
	for i := range items {
		items[i] = []byte(fmt.Sprintf("item-%d", i))
	}
	results, err := pars[0].Scatter(ctxT(t), items)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		want := fmt.Sprintf("done:item-%d", i)
		if string(r) != want {
			t.Errorf("result %d = %q, want %q", i, r, want)
		}
	}
}

func TestTransactionCommitAppliesEverywhere(t *testing.T) {
	const n = 3
	_, procs := spawn(t, n)
	repls := make([]*toolkit.Replicated, n)
	txns := make([]*toolkit.Txn, n)
	groups := buildGroup(t, procs, n, func(i int) func(group.Delivery) {
		return func(d group.Delivery) {
			repls[i].Apply(d)
			txns[i].Apply(d)
		}
	})
	for i := range repls {
		repls[i] = toolkit.NewReplicated(groups[i])
		txns[i] = toolkit.NewTxn(groups[i], repls[i], nil)
	}
	err := txns[0].Commit(ctxT(t), map[string]string{"inventory/widgets": "500", "inventory/cogs": "32"})
	if err != nil {
		t.Fatal(err)
	}
	ok := isis.Await(ctxT(t), func() bool {
		for _, r := range repls {
			if r.Len() != 2 {
				return false
			}
		}
		return true
	}) == nil
	if !ok {
		t.Fatal("transaction writes never reached every replica")
	}
	for i, r := range repls {
		if v, _ := r.Get("inventory/widgets"); v != "500" {
			t.Errorf("replica %d widgets = %q", i, v)
		}
	}
}

func TestTransactionVetoAborts(t *testing.T) {
	const n = 3
	_, procs := spawn(t, n)
	repls := make([]*toolkit.Replicated, n)
	txns := make([]*toolkit.Txn, n)
	groups := buildGroup(t, procs, n, func(i int) func(group.Delivery) {
		return func(d group.Delivery) {
			repls[i].Apply(d)
			txns[i].Apply(d)
		}
	})
	for i := range repls {
		repls[i] = toolkit.NewReplicated(groups[i])
		validator := func(map[string]string) error { return nil }
		if i == 2 {
			validator = func(map[string]string) error { return errors.New("constraint violated") }
		}
		txns[i] = toolkit.NewTxn(groups[i], repls[i], validator)
	}
	err := txns[0].Commit(ctxT(t), map[string]string{"inventory/widgets": "-1"})
	if !errors.Is(err, types.ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	time.Sleep(100 * time.Millisecond)
	for i, r := range repls {
		if r.Len() != 0 {
			t.Errorf("replica %d applied writes from an aborted transaction", i)
		}
	}
}
