package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	isis "repro"
	"repro/benchmark/hist"
)

const (
	svcMembers = 32
	svcClients = 2    // blocking clients in the saturation phase: one per core
	bcastEvery = 4096 // the request/broadcast pattern repeats after this many ops
)

// svc is svc_sim32: a 32-member hierarchical Service on netsim, driven by
// blocking ServiceClients on their own processes with 90% Request (routed to
// one leaf's coordinator, replicated to its cohort) and 10% Broadcast
// (treecast to all 32).
type svc struct {
	p       params
	tr      *tracer
	warmOps uint64
	filler  []byte
	isBcast []bool // by op index modulo bcastEvery; exactly 10% true

	d       deployment
	agents  []*isis.Service
	clients []*isis.ServiceClient
	leaves  int
	depth   int

	issued     atomic.Uint64
	failed     atomic.Uint64
	requests   atomic.Uint64
	bcasts     atomic.Uint64
	bcastsSeen atomic.Uint64 // OnBroadcast invocations, all members
	bcastLat   *hist.H       // lat phase only
	problems   []string
}

func newSvc(p params, tr *tracer) workload {
	w := &svc{p: p, tr: tr, warmOps: p.scaled(20000), filler: make([]byte, 64), isBcast: make([]bool, bcastEvery)}
	rng := rand.New(rand.NewSource(p.seed))
	rng.Read(w.filler)
	for _, i := range rng.Perm(bcastEvery)[:bcastEvery/10] {
		w.isBcast[i] = true
	}
	return w
}

func (w *svc) setup() error {
	w.issued.Store(0)
	w.failed.Store(0)
	w.requests.Store(0)
	w.bcasts.Store(0)
	w.bcastsSeen.Store(0)
	w.agents, w.clients = nil, nil
	w.d = newDeployment(substrate{}, w.tr)
	cfg := isis.ServiceConfig{
		Fanout:         4,
		Resiliency:     2,
		MaxLeafSize:    6,
		RequestHandler: func(b []byte) []byte { return b },
		OnBroadcast:    func([]byte) { w.bcastsSeen.Add(1) },
	}
	var founder process
	for i := 0; i < svcMembers; i++ {
		p, err := w.d.Spawn()
		if err != nil {
			return fmt.Errorf("spawn member %d: %w", i, err)
		}
		var a *isis.Service
		if i == 0 {
			founder = p
			a, err = p.CreateService("bench", cfg)
		} else {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			a, err = p.JoinService(ctx, "bench", founder.ID(), cfg)
			cancel()
		}
		if err != nil {
			return fmt.Errorf("member %d: %w", i, err)
		}
		w.agents = append(w.agents, a)
	}
	if !await(10*time.Second, func() bool { return w.agents[0].Tree().TotalMembers() == svcMembers }) {
		return fmt.Errorf("the leader's tree never counted %d members", svcMembers)
	}
	tree := w.agents[0].Tree()
	w.leaves, w.depth = tree.LeafCount(), tree.Depth()
	for c := 0; c < svcClients; c++ {
		p, err := w.d.Spawn()
		if err != nil {
			return fmt.Errorf("spawn client %d: %w", c, err)
		}
		w.clients = append(w.clients, p.NewServiceClient("bench", founder.ID()))
	}
	w.drive(svcClients, 0, w.warmOps, nil, nil)
	return nil
}

// one issues op idx from client c and checks its reply.
func (w *svc) one(c int, idx uint64, reqLat []*hist.H, sl *slicer) {
	payload := make([]byte, len(w.filler))
	copy(payload, w.filler)
	putTag(payload, idx)
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	start := now()
	if w.isBcast[idx%bcastEvery] {
		o := w.tr.begin(idx, opBcast, svcMembers+c, start)
		covered, err := w.clients[c].Broadcast(ctx, payload)
		end := now()
		w.bcasts.Add(1)
		if err != nil || covered != svcMembers {
			w.failed.Add(1)
			return
		}
		if o != nil {
			o.done = end
		}
		if reqLat != nil {
			w.bcastLat.Observe(end - start)
		}
		return
	}
	o := w.tr.begin(idx, opRequest, svcMembers+c, start)
	reply, err := w.clients[c].Request(ctx, payload)
	end := now()
	w.requests.Add(1)
	if err != nil || !bytes.Equal(reply, payload) {
		w.failed.Add(1)
		return
	}
	if o != nil {
		o.done = end
	}
	if reqLat != nil {
		reqLat[sl.current(end)].Observe(end - start)
	}
}

// drive runs `clients` blocking clients until `until` (a clock value; 0 = no
// deadline) or until `limit` ops have been issued in total (0 = no limit),
// ticking the slicer, if there is one, every millisecond.
func (w *svc) drive(clients int, until int64, limit uint64, reqLat []*hist.H, sl *slicer) {
	var wg sync.WaitGroup
	var completed atomic.Uint64
	stop := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for until == 0 || now() < until {
				idx := w.issued.Add(1) - 1
				if limit != 0 && idx >= limit {
					w.issued.Add(^uint64(0))
					return
				}
				w.one(c, idx, reqLat, sl)
				completed.Add(1)
			}
		}(c)
	}
	if sl != nil {
		// The slicer belongs to this goroutine; the clients only read it.
		go func() {
			wg.Wait()
			close(stop)
		}()
		ticker := time.NewTicker(time.Millisecond)
		defer ticker.Stop()
		for running := true; running; {
			select {
			case <-stop:
				running = false
			case <-ticker.C:
			}
			sl.tick(completed.Load())
		}
		return
	}
	wg.Wait()
}

func (w *svc) phase(clients int, d time.Duration, reqLat []*hist.H) phaseResult {
	sl := newSlicer(d, phaseSlices, 0)
	w.drive(clients, sl.end(), 0, reqLat, sl)
	res := phaseResult{lat: reqLat}
	res.measuredBy(sl)
	return res
}

func (w *svc) sat(d time.Duration) phaseResult { return w.phase(svcClients, d, nil) }

func (w *svc) lat(d time.Duration) phaseResult {
	w.bcastLat = hist.New()
	return w.phase(1, d, newSliceHists())
}

func (w *svc) load(time.Duration) phaseResult { return phaseResult{} }

func (w *svc) finish() []string {
	want := w.bcasts.Load() * svcMembers
	if !await(opTimeout, func() bool { return w.bcastsSeen.Load() >= want }) || w.bcastsSeen.Load() != want {
		w.problems = append(w.problems, fmt.Sprintf("OnBroadcast fired %d times for %d broadcasts to %d members (want %d)",
			w.bcastsSeen.Load(), w.bcasts.Load(), svcMembers, want))
	}
	tree := w.agents[0].Tree()
	if tree.TotalMembers() != svcMembers || tree.LeafCount() != w.leaves {
		w.problems = append(w.problems, fmt.Sprintf("the tree changed during the run: %d members in %d leaves (was %d in %d)",
			tree.TotalMembers(), tree.LeafCount(), svcMembers, w.leaves))
	}
	if f := w.failed.Load(); f != 0 {
		w.problems = append(w.problems, fmt.Sprintf("%d requests or broadcasts failed, timed out or returned a wrong reply", f))
	}
	return w.problems
}

func (w *svc) totals() (attempted, failed uint64) { return w.issued.Load(), w.failed.Load() }

func (w *svc) snapshot() counters {
	c := counters{net: w.d.NetStats()}
	for _, a := range w.agents {
		c.addService(a)
	}
	c.requests, c.bcasts, c.treeDepth = w.requests.Load(), w.bcasts.Load(), w.depth
	return c
}

func (w *svc) extras(rep *report) {
	if w.bcastLat != nil {
		rep.put("svc.bcast_p50_us", w.bcastLat.Percentile(50)/1e3, "us")
		rep.put("svc.bcast_samples", float64(w.bcastLat.Count()), "count")
	}
}

func (w *svc) teardown() { w.d.Shutdown() }
