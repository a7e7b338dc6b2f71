package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// TestNamesMatchBenchmarkJSON holds spec.go against BENCHMARK.json: the
// result line carries exactly the listed names.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	spec, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []string) {
		t.Helper()
		g, w := append([]string(nil), got...), append([]string(nil), want...)
		sort.Strings(g)
		sort.Strings(w)
		if len(g) != len(w) {
			t.Fatalf("%s: BENCHMARK.json lists %d names, spec.go %d", what, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: BENCHMARK.json has %q where spec.go has %q", what, g[i], w[i])
			}
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	same("workloads", names, workloadNames)
	names = nil
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
	}
	same("end_to_end", names, endToEndNames)
	names = nil
	for _, m := range spec.PerLayer {
		names = append(names, m.Name)
	}
	same("per_layer", names, perLayerNames)
}

// TestSmoke runs every workload at 1/20 scale, untraced and traced, and
// checks that each run is correct and emits every listed metric with the
// listed unit: finite, and positive where it is gated.
func TestSmoke(t *testing.T) {
	spec, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range spec.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		units[m.Name] = m.Unit
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			p := params{
				workload: name, seed: 7, seconds: 0.6, scale: 0.05, trace: traced,
				tmpDir: filepath.Join(t.TempDir(), "run"), log: io.Discard,
			}
			res, err := runWorkload(p)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if len(res.problems) > 0 || res.failed > 0 || res.attempted == 0 {
				t.Fatalf("%s traced=%v: attempted %d, failed %d, violations %v", name, traced, res.attempted, res.failed, res.problems)
			}
			if err := res.rep.finite(); err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			want := endToEndNames
			if traced {
				want = perLayerNames
			}
			for _, n := range want {
				m, ok := res.rep.m[n]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not measured", name, traced, n)
				case m.Unit != units[n]:
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", name, n, m.Unit, units[n])
				case !traced && m.Value <= 0:
					t.Errorf("%s: gated metric %s = %v, want > 0", name, n, m.Value)
				}
			}
		}
	}
}

// TestSpansMatchSampledOps: every sampled op that completed has exactly one
// "op" span in trace.json, and its children name it as parent.
func TestSpansMatchSampledOps(t *testing.T) {
	dir := t.TempDir()
	p := params{workload: "cast_sim8", seed: 3, seconds: 0.6, scale: 0.05, trace: true,
		tmpDir: filepath.Join(dir, "run"), log: io.Discard}
	res, err := runWorkload(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	ops := map[uint64]int{}
	for _, s := range doc.Spans {
		if s.Name == "op" {
			ops[s.Op]++
		} else if s.Parent != "op" {
			t.Fatalf("span %q of op %d has parent %q", s.Name, s.Op, s.Parent)
		}
		if s.End < s.Start {
			t.Fatalf("span %q of op %d ends before it starts", s.Name, s.Op)
		}
	}
	sampled := int(res.rep.m["trace.sampled_ops"].Value)
	if sampled == 0 || len(ops) != sampled {
		t.Fatalf("%d op spans for %d sampled ops", len(ops), sampled)
	}
	for op, n := range ops {
		if n != 1 || op%sampleEvery != 0 {
			t.Fatalf("op %d has %d op spans (sampling stride %d)", op, n, sampleEvery)
		}
	}
}
