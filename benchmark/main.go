// Command benchmark is the repository's performance benchmark: four workloads
// driven through the public isis facade, each reporting end-to-end metrics
// (untraced) or per-layer metrics (a traced run on tracenet plus iso loops
// over each layer's exported functions). See README.md in this directory.
//
//	go run -C benchmark . --workload kv_tcp3_wal --seed 1 --seconds 22 --trace 0
//	go run -C benchmark . -iso
//	go run -C benchmark . -selfcheck -sets 2 -runs 5
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics BENCHMARK.json lists for that --trace value.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
)

func main() {
	var (
		p         params
		trace     = flag.Int("trace", 0, "0: end-to-end metrics on the untouched facade; 1: per-layer metrics from the traced run and the iso loops")
		iso       = flag.Bool("iso", false, "run only the iso loops (each layer's exported functions, timed alone)")
		selfcheck = flag.Bool("selfcheck", false, "run sets of runs back to back and compare their medians against the bounds")
		sets      = flag.Int("sets", 2, "selfcheck: number of sets")
		runs      = flag.Int("runs", 5, "selfcheck: runs per set and workload")
		out       = flag.String("out", ".bench_build", "directory for scratch files and trace.json (inside the checkout)")
	)
	flag.StringVar(&p.workload, "workload", "", "one of kv_tcp3_wal, cast_sim8, svc_sim32, churn_sim16")
	flag.Int64Var(&p.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&p.seconds, "seconds", 22, "seconds the timed phases measure")
	flag.Parse()
	p.scale, p.trace, p.log = 1, *trace != 0, os.Stdout
	p.tmpDir = filepath.Join(*out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	header(*out)

	switch {
	case *selfcheck:
		if !selfCheck(p, *sets, *runs) {
			os.Exit(1)
		}
		return
	case *iso:
		rep := newReport()
		runIso(rep, p)
		rep.print(os.Stdout)
		return
	}

	res, err := runWorkload(p)
	if err != nil {
		fatal(err)
	}
	if err := emit(os.Stdout, p, res); err != nil {
		fatal(err)
	}
	if len(res.problems) > 0 || res.failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// header prints what the numbers depend on besides the code.
func header(dir string) {
	fmt.Printf("benchmark: nproc=%d GOMAXPROCS=%d %s %s/%s, scratch and WAL on %s (%s)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, dir, fsType(dir))
}

// fsType names the filesystem holding dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown filesystem"
	}
	names := map[int64]string{0xef53: "ext4", 0x58465342: "xfs", 0x9123683e: "btrfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x6969: "nfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("filesystem type %#x", int64(st.Type))
}

// emit prints the violations and the result line the driver parses.
func emit(w *os.File, p params, res *outcome) error {
	for _, pr := range res.problems {
		fmt.Fprintln(w, "VIOLATION:", pr)
	}
	if err := res.rep.finite(); err != nil {
		return err
	}
	names := endToEndNames
	if p.trace {
		names = perLayerNames
	}
	metrics := make(map[string]metric, len(names))
	for _, n := range names {
		m, ok := res.rep.m[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		metrics[n] = m
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
