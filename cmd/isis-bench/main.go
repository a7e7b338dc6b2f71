// Command isis-bench regenerates the experiment tables recorded in
// EXPERIMENTS.md: one table (or pair of tables) per experiment E1–E8 and
// E10–E14 plus the ablations A1–A3.
//
// Usage:
//
//	isis-bench                         # run every experiment at quick scale
//	isis-bench -scale full             # paper-scale sweeps (slower)
//	isis-bench -experiment E1,E5       # run a subset
//	isis-bench -experiment E11 -json . # also write BENCH_lossy.json
//	isis-bench -experiment E12 -cpuprofile cpu.out -memprofile mem.out
//
// With -json DIR each selected experiment additionally writes its tables as
// a JSON array to DIR/BENCH_<name>.json (E10 is named "chaos", E11 "lossy",
// E12 "scaling", E13 "state", E14 "net"); CI runs a smoke subset and uploads
// these files as build artifacts. -cpuprofile and -memprofile write pprof profiles covering
// the selected experiments (see EXPERIMENTS.md, "Profiling the hot path").
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

func main() {
	scaleFlag := flag.String("scale", "quick", "sweep scale: quick or full")
	expFlag := flag.String("experiment", "all", "comma-separated experiment ids (E1..E8, E10..E14, A1..A3) or 'all'")
	jsonDir := flag.String("json", "", "directory to write BENCH_<name>.json files into (empty: text only)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (taken after the runs) to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
	}

	failed := run(*scaleFlag, *expFlag, *jsonDir)

	// Profiles are finalised explicitly (not deferred): os.Exit skips defers.
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		if err := writeHeapProfile(*memProfile); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // material allocations only, not garbage
	return pprof.WriteHeapProfile(f)
}

// run executes the selected experiments and reports whether any failed.
func run(scaleName, expList, jsonDir string) bool {
	scale := experiments.Quick
	if strings.EqualFold(scaleName, "full") {
		scale = experiments.Full
	}

	selected := map[string]bool{}
	if strings.EqualFold(expList, "all") {
		for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E10", "E11", "E12", "E13", "E14", "A1", "A2", "A3"} {
			selected[id] = true
		}
	} else {
		for _, id := range strings.Split(expList, ",") {
			selected[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	type runner struct {
		id   string
		file string // JSON artifact name: BENCH_<file>.json
		run  func() ([]*metrics.Table, error)
	}
	wrap1 := func(f func(experiments.Scale) (*metrics.Table, error)) func() ([]*metrics.Table, error) {
		return func() ([]*metrics.Table, error) {
			t, err := f(scale)
			return []*metrics.Table{t}, err
		}
	}
	runners := []runner{
		{"E1", "E1", wrap1(experiments.E1RequestCost)},
		{"E2", "E2", wrap1(experiments.E2TrafficScaling)},
		{"E3", "E3", wrap1(experiments.E3MembershipChange)},
		{"E4", "E4", func() ([]*metrics.Table, error) {
			t1, t2 := experiments.E4Reliability(scale)
			return []*metrics.Table{t1, t2}, nil
		}},
		{"E5", "E5", wrap1(experiments.E5TreeBroadcast)},
		{"E6", "E6", func() ([]*metrics.Table, error) {
			return []*metrics.Table{experiments.E6ViewStorage(scale)}, nil
		}},
		{"E7", "E7", wrap1(experiments.E7TradingRoom)},
		{"E8", "E8", wrap1(experiments.E8SplitMerge)},
		{"E10", "chaos", wrap1(experiments.E10ChaosSurvival)},
		{"E11", "lossy", wrap1(experiments.E11LossyThroughput)},
		{"E12", "scaling", wrap1(experiments.E12MemberScaling)},
		{"E13", "state", func() ([]*metrics.Table, error) {
			t1, t2, err := experiments.E13StateTransfer(scale)
			return []*metrics.Table{t1, t2}, err
		}},
		{"E14", "net", func() ([]*metrics.Table, error) {
			t1, t2, err := experiments.E14RealNetwork(scale)
			return []*metrics.Table{t1, t2}, err
		}},
		{"A1", "A1", wrap1(experiments.A1Fanout)},
		{"A2", "A2", wrap1(experiments.A2Resiliency)},
		{"A3", "A3", wrap1(experiments.A3Ordering)},
	}

	failed := false
	for _, r := range runners {
		if !selected[r.id] {
			continue
		}
		start := time.Now()
		tables, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.id, err)
			failed = true
			continue
		}
		fmt.Printf("=== %s (scale %s, %s) ===\n", r.id, scaleName, time.Since(start).Round(time.Millisecond))
		for _, t := range tables {
			t.Render(os.Stdout)
			fmt.Println()
		}
		if jsonDir != "" {
			if err := writeJSON(jsonDir, r.file, tables); err != nil {
				fmt.Fprintf(os.Stderr, "%s: write json: %v\n", r.id, err)
				failed = true
			}
		}
	}
	return failed
}

func writeJSON(dir, name string, tables []*metrics.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(tables, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+name+".json")
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
