package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the self-check needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

// readSpec finds BENCHMARK.json from the checkout root or from benchmark/.
func readSpec() (benchSpec, error) {
	var spec benchSpec
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		if err := json.Unmarshal(b, &spec); err != nil {
			return spec, fmt.Errorf("%s: %w", path, err)
		}
		return spec, nil
	}
	return spec, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// quartiles are Python's statistics.quantiles(v, n=4) (the exclusive
// method), which is what the driver computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 {
		pos := float64(i) * float64(len(s)+1) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// runOnce re-executes this binary for one run and parses its result line.
func runOnce(self string, p params, workload string, seed int64, out string) (map[string]metric, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(p.seconds), "--trace", "0", "--out", out)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, stdout)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res struct {
		Correct bool              `json:"correct"`
		Failed  uint64            `json:"failed"`
		Metrics map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("%s seed %d: correct=%v failed=%d", workload, seed, res.Correct, res.Failed)
	}
	return res.Metrics, nil
}

// selfCheck runs `sets` sets of `runs` untraced runs per workload, each run
// a fresh process with its own seed, and holds the sets against the bounds
// the way the driver does: within a set, the interquartile range of every
// end-to-end metric as a share of its median must stay within the bound
// (setup_s excepted); between sets, no median may be worse than the first
// set's by more than the bound.
func selfCheck(p params, sets, runs int) bool {
	spec, err := readSpec()
	if err != nil {
		fatal(err)
	}
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	out := p.tmpDir + "-selfcheck"
	defer os.RemoveAll(out)
	workloads := workloadNames
	if p.workload != "" {
		workloads = []string{p.workload}
	}
	// values[workload][metric][set] = one value per run
	values := map[string]map[string][][]float64{}
	for set := 0; set < sets; set++ {
		for _, w := range workloads {
			for run := 0; run < runs; run++ {
				seed := p.seed + int64(set*1000+run)
				m, err := runOnce(self, p, w, seed, out)
				if err != nil {
					fmt.Println("FAIL:", err)
					return false
				}
				if values[w] == nil {
					values[w] = map[string][][]float64{}
				}
				for name, v := range m {
					if values[w][name] == nil {
						values[w][name] = make([][]float64, sets)
					}
					values[w][name][set] = append(values[w][name][set], v.Value)
				}
				fmt.Printf("set %d %s seed %d: ops_s %.0f lat_p50_us %.1f setup_s %.2f\n",
					set+1, w, seed, m["ops_s"].Value, m["lat_p50_us"].Value, m["setup_s"].Value)
			}
		}
	}
	ok := true
	fmt.Printf("\n%-12s %-15s %-4s %12s %12s %12s %7s %7s %6s %s\n",
		"workload", "metric", "set", "q1", "median", "q3", "spread", "worse", "bound", "")
	for _, w := range workloads {
		for _, e := range spec.EndToEnd {
			var firstMedian float64
			for set := 0; set < sets; set++ {
				q1, q2, q3 := quartiles(values[w][e.Name][set])
				spread := (q3 - q1) / q2
				worse := 0.0
				if set == 0 {
					firstMedian = q2
				} else if e.Better == "lower" {
					worse = (q2 - firstMedian) / firstMedian
				} else {
					worse = (firstMedian - q2) / firstMedian
				}
				verdict := "PASS"
				if (e.Name != "setup_s" && spread > e.Bound) || worse > e.Bound {
					verdict, ok = "FAIL", false
				} else if e.Name != "setup_s" && spread > e.Bound/3 {
					verdict = "pass (spread above a third of the bound)"
				}
				fmt.Printf("%-12s %-15s %-4d %12.4f %12.4f %12.4f %6.1f%% %6.1f%% %5.0f%% %s\n",
					w, e.Name, set+1, q1, q2, q3, 100*spread, 100*worse, 100*e.Bound, verdict)
			}
		}
	}
	return ok
}
