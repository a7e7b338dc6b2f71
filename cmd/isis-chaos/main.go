// Command isis-chaos runs seeded chaos scenarios against a simulated
// cluster and verifies the virtual-synchrony invariants, for long soak runs
// and for replaying seeds that failed in CI.
//
// Usage:
//
//	isis-chaos -seed=7                     # replay one scenario (prints its hash)
//	isis-chaos -seeds=500                  # soak: run seeds 1..500
//	isis-chaos -seeds=200 -profile=soak    # longer timelines, bigger cluster
//	isis-chaos -profile=service -seeds=50  # hierarchy scenarios (Services)
//	isis-chaos -profile=stateful -seeds=50 # durable-state scenarios (WAL'd KV)
//	isis-chaos -start=1000 -seeds=100      # a different seed range
//	isis-chaos -seed=7 -v                  # also print the fault timeline
//
// A seed printed by a failing `go test ./internal/chaos` run reproduces the
// identical scenario here: the printed "history hash" digests the generated
// fault timeline and workload plan, and matching hashes prove both commands
// ran the same scenario. The exit status is non-zero if any invariant was
// violated.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/chaos"
)

func main() {
	seedFlag := flag.Int64("seed", 0, "run exactly this seed (0: run -seeds seeds from -start)")
	seedsFlag := flag.Int("seeds", 100, "how many consecutive seeds to run in soak mode")
	startFlag := flag.Int64("start", 1, "first seed in soak mode")
	profileFlag := flag.String("profile", "default", "scenario profile: "+strings.Join(chaos.ProfileNames(), ", "))
	verbose := flag.Bool("v", false, "print the generated fault timeline and violations in full")
	flag.Parse()

	profile, ok := chaos.LookupProfile(*profileFlag)
	if !ok {
		fmt.Fprintf(os.Stderr, "isis-chaos: unknown profile %q; valid profiles: %s\n",
			*profileFlag, strings.Join(chaos.ProfileNames(), ", "))
		os.Exit(2)
	}

	run := func(seed int64) bool {
		s := chaos.Generate(seed, profile)
		fmt.Printf("%s\n", s.Summary())
		fmt.Printf("history hash: %s\n", s.Hash())
		if *verbose {
			for _, e := range s.Events {
				fmt.Printf("  %s\n", e)
			}
		}
		res, err := chaos.Run(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: harness error: %v\n", seed, err)
			return false
		}
		fmt.Printf("%s\n", res)
		if res.Failed() {
			for _, v := range res.Violations {
				fmt.Fprintf(os.Stderr, "  violation: %s\n", v)
			}
			fmt.Fprintf(os.Stderr, "replay with: isis-chaos -seed=%d -profile=%s  (or: go test -run TestChaosReplay -seed=%d -profile=%s ./internal/chaos)\n",
				seed, profile.Name, seed, profile.Name)
			return false
		}
		return true
	}

	if *seedFlag != 0 {
		if !run(*seedFlag) {
			os.Exit(1)
		}
		return
	}

	failed := 0
	var failures []int64
	for i := 0; i < *seedsFlag; i++ {
		seed := *startFlag + int64(i)
		if !run(seed) {
			failed++
			failures = append(failures, seed)
		}
	}
	fmt.Printf("\nsoak: %d seeds, %d failed (profile %s)\n", *seedsFlag, failed, profile.Name)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "failing seeds: %v\n", failures)
		os.Exit(1)
	}
}
