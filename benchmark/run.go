package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// params is one invocation of the benchmark.
type params struct {
	workload string
	seed     int64
	seconds  float64 // how long the timed phases measure, in total
	scale    float64 // 1 for real runs; the smoke test shrinks the fixed counts
	trace    bool
	tmpDir   string    // scratch space inside the checkout
	log      io.Writer // the human-readable report
}

func (p params) scaled(n uint64) uint64 {
	v := uint64(float64(n) * p.scale)
	if v < 1 {
		v = 1
	}
	return v
}

func (p params) logf(format string, args ...any) { fmt.Fprintf(p.log, format, args...) }

// workload is one of the four measured systems. setup may be called several
// times (each builds a fresh deployment; teardown disposes of the previous
// one); the phases run on the deployment of the last setup.
type workload interface {
	setup() error
	sat(d time.Duration) phaseResult
	lat(d time.Duration) phaseResult
	// load is the diagnostic open loop. Where the API is blocking (an open
	// loop would need more threads than cores) it returns the zero result.
	load(d time.Duration) phaseResult
	// finish runs the untimed output checks and returns the violations.
	finish() []string
	totals() (attempted, failed uint64)
	snapshot() counters
	extras(rep *report)
	teardown()
}

func newWorkload(p params, tr *tracer) (workload, error) {
	switch p.workload {
	case "kv_tcp3_wal", "cast_sim8":
		return newFlat(p, tr), nil
	case "svc_sim32":
		return newSvc(p, tr), nil
	case "churn_sim16":
		return newChurn(p, tr), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", p.workload, workloadNames)
}

// split divides the measured seconds over the phases. churn_sim16 has one
// phase: a cycle is both its unit of throughput and its latency sample.
func split(name string, seconds float64) (sat, lat, load time.Duration) {
	d := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	switch name {
	case "svc_sim32":
		return d(0.5), d(0.5), 0
	case "churn_sim16":
		return d(1), 0, 0
	}
	return d(0.4), d(0.4), d(0.2)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metrics by name.
type report struct{ m map[string]metric }

func newReport() *report { return &report{m: make(map[string]metric)} }

func (r *report) put(name string, v float64, unit string) { r.m[name] = metric{v, unit} }

func (r *report) print(w io.Writer) {
	names := make([]string, 0, len(r.m))
	for n := range r.m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %16.4f %s\n", n, r.m[n].Value, r.m[n].Unit)
	}
}

// outcome is what one invocation hands back to main.
type outcome struct {
	rep       *report
	attempted uint64
	failed    uint64
	problems  []string
}

// measured is one pass over a deployment: set-up, the timed phases, checks.
type measured struct {
	setups   []float64 // seconds
	sat, lat phaseResult
	load     phaseResult
	heapLive float64 // MB
	gorout   int
	before   counters
	after    counters
}

// measure sets the workload up `setups` times (keeping the last deployment),
// runs its phases for the given total seconds, and checks the outputs.
func measure(p params, w workload, tr *tracer, setups int, seconds float64, out *outcome) (measured, error) {
	var m measured
	for i := 0; i < setups; i++ {
		if i > 0 {
			w.teardown()
		}
		runtime.GC() // every set-up starts from the same heap
		start := now()
		if err := w.setup(); err != nil {
			return m, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		m.setups = append(m.setups, float64(now()-start)/1e9)
	}
	satD, latD, loadD := split(p.workload, seconds)
	// Spans are sampled in the one-in-flight phase only (in churn's single
	// phase): under saturation a span measures the queue it sat in.
	sample := func(on bool) {
		if tr != nil {
			tr.sampling.Store(on)
		}
	}
	sample(latD == 0)
	m.before = w.snapshot()
	m.sat = w.sat(satD)
	m.after = w.snapshot()
	sample(false)
	m.heapLive = liveHeapMB()
	m.gorout = runtime.NumGoroutine()
	m.lat = m.sat
	if latD > 0 {
		sample(true)
		m.lat = w.lat(latD)
		sample(false)
	}
	if loadD > 0 {
		m.load = w.load(loadD)
	}
	out.problems = append(out.problems, w.finish()...)
	a, f := w.totals()
	out.attempted += a
	out.failed += f
	return m, nil
}

// liveHeapMB is the heap still reachable once the system is quiet: the
// median of three collections 50ms apart, because how much the stability
// protocol has pruned at one instant is a matter of timer phase.
func liveHeapMB() float64 {
	var samples []float64
	for i := 0; i < 3; i++ {
		time.Sleep(50 * time.Millisecond)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		samples = append(samples, float64(ms.HeapAlloc)/(1<<20))
	}
	return median(samples)
}

// putEndToEnd writes the gated metrics of one untraced pass.
func putEndToEnd(rep *report, m measured) {
	rep.put("setup_s", median(m.setups), "s")
	rep.put("ops_s", median(m.sat.rates), "ops/s")
	rep.put("cpu_us_per_op", median(m.sat.cpuUS), "us")
	rep.put("alloc_b_per_op", median(m.sat.allocB), "B")
	rep.put("heap_live_mb", m.heapLive, "MB")
	rep.put("lat_p50_us", m.lat.latencyPercentile(50)/1e3, "us")
}

// putDiagnostics writes the runtime and tail numbers of one untraced pass.
func putDiagnostics(rep *report, m measured) {
	rep.put("rt.gc_cycles", float64(m.sat.res.gcCycles), "count")
	rep.put("rt.gc_pause_ms", float64(m.sat.res.gcPause)/1e6, "ms")
	rep.put("rt.heap_peak_mb", float64(m.sat.res.heapSys)/(1<<20), "MB")
	rep.put("rt.goroutines", float64(m.gorout), "count")
	rep.put("rt.allocs_per_op", ratio(float64(m.sat.res.allocs), float64(m.sat.ops)), "count")
	all := m.lat.merged()
	rep.put("diag.lat_samples", float64(all.Count()), "count")
	rep.put("diag.lat_p90_us", m.lat.latencyPercentile(90)/1e3, "us")
	rep.put("diag.lat_p99_us", all.Percentile(99)/1e3, "us")
	rep.put("diag.lat_p999_us", all.Percentile(99.9)/1e3, "us")
	if m.load.late != nil {
		h := m.load.merged()
		rep.put("diag.load_p50_us", h.Percentile(50)/1e3, "us")
		rep.put("diag.load_p99_us", h.Percentile(99)/1e3, "us")
		rep.put("diag.gen_late_p99_us", m.load.late.Percentile(99)/1e3, "us")
	}
}

// setupsPerRun is how many times an untraced run sets the workload up;
// setup_s is the median.
const setupsPerRun = 3

// runWorkload is one driver invocation: the untraced run prints the
// end-to-end metrics, the traced run the per-layer ones.
func runWorkload(p params) (*outcome, error) {
	out := &outcome{rep: newReport()}
	if err := os.MkdirAll(p.tmpDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(p.tmpDir) // scratch only; a leftover directory is harmless

	if !p.trace {
		w, err := newWorkload(p, nil)
		if err != nil {
			return nil, err
		}
		m, err := measure(p, w, nil, setupsPerRun, p.seconds, out)
		w.teardown()
		if err != nil {
			return nil, err
		}
		putEndToEnd(out.rep, m)
		p.logf("end to end (%s, seed %d, %.0fs):\n", p.workload, p.seed, p.seconds)
		out.rep.print(p.log)
		side := newReport()
		putDiagnostics(side, m)
		putCounts(side, m.before, m.after, m.sat.ops, m.sat.elapsed)
		w.extras(side)
		p.logf("sat slices: %.0f ops/s, %.1f cpu us/op, %.0f alloc B/op\n", m.sat.rates, m.sat.cpuUS, m.sat.allocB)
		p.logf("not gated (set-ups %.3v s; per-kind counts need --trace 1 on TCP):\n", m.setups)
		side.print(p.log)
		return out, nil
	}

	// The traced run: a short untraced pass on the untouched facade gives
	// the runtime numbers and the baseline for the tracing overhead; the
	// same workload booted on tracenet gives counts and spans; the iso
	// loops time each layer's exported functions on their own.
	w, err := newWorkload(p, nil)
	if err != nil {
		return nil, err
	}
	plain, err := measure(p, w, nil, 1, 0.45*p.seconds, out)
	w.teardown()
	if err != nil {
		return nil, err
	}
	putDiagnostics(out.rep, plain)
	w.extras(out.rep)

	tr := newTracer()
	tw, _ := newWorkload(p, tr)
	traced, err := measure(p, tw, tr, 1, 0.35*p.seconds, out)
	tw.teardown()
	if err != nil {
		return nil, err
	}
	putCounts(out.rep, traced.before, traced.after, traced.sat.ops, traced.sat.elapsed)
	spans, st := tr.analyse()
	putStages(out.rep, st, p.workload)
	out.rep.put("trace.overhead_pct", 100*(1-ratio(median(traced.sat.rates), median(plain.sat.rates))), "%")
	tracePath := filepath.Join(filepath.Dir(p.tmpDir), "trace.json")
	if err := writeTrace(tracePath, p.workload, p.seed, spans); err != nil {
		return nil, fmt.Errorf("write %s: %w", tracePath, err)
	}
	runIso(out.rep, p)
	p.logf("per layer (%s, seed %d; %d spans in %s):\n", p.workload, p.seed, len(spans), tracePath)
	out.rep.print(p.log)
	return out, nil
}

// putStages writes the traced stage times: the median over sampled ops of
// each stage along the op's critical path.
func putStages(rep *report, st stages, workload string) {
	rep.put("trace.sampled_ops", float64(len(st["op"])), "count")
	for _, name := range []string{"send_path", "net", "recv_path", "apply", "ack"} {
		rep.put("trace."+name+"_us", st.p50(name, 1e3), "us")
	}
	switch workload {
	case "svc_sim32":
		rep.put("trace.route_us", st.p50("route", 1e3), "us")
		rep.put("trace.tree_stage_us", ratio(st.p50("tree_total", 1e3), rep.m["cnt.tree_depth"].Value), "us")
	case "churn_sim16":
		rep.put("trace.flush_ms", st.p50("flush", 1e6), "ms")
		rep.put("trace.join_ms", st.p50("join", 1e6), "ms")
		rep.put("trace.restore_ms", st.p50("restore", 1e6), "ms")
	default:
		rep.put("trace.submit_us", st.p50("submit", 1e3), "us")
		if workload == "kv_tcp3_wal" {
			rep.put("trace.order_wait_us", st.p50("order_wait", 1e3), "us")
		}
	}
}

// finite reports whether every metric is a finite number.
func (r *report) finite() error {
	for n, m := range r.m {
		if v := m.Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", n, v)
		}
	}
	return nil
}
