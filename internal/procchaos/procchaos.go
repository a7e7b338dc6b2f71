// Package procchaos drives process-level chaos against a real supervised
// isis-node fleet: OS processes on localhost TCP, killed with SIGKILL,
// stalled with SIGSTOP/SIGCONT, and replaced by the groupmgr-style
// supervisor — the production failure modes the in-memory chaos harness
// cannot reach (real sockets, real fsync, real process death).
//
// The driver plays the external client, exactly as production traffic would:
// it writes continuously through the daemons' admin /put endpoints, spreading
// writes round-robin across the fleet, and counts a write as acked only when
// a daemon returned 200 — which the daemon does only after the write has come
// back through the group's total order and been applied. That makes grading
// exact rather than sampled: the acked-write ledger must stay fully readable,
// every replica must converge to one identical digest, and after every
// disruption the fleet's membership must return to full strength within the
// recovery bound (each kill's recovery time is measured for the E14
// experiment).
package procchaos

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/supervisor"
)

// Config parameterises one chaos run.
type Config struct {
	// Bin is the isis-node binary to supervise.
	Bin string
	// N is the supervised fleet size; healthy views have N members.
	N int
	// Duration is the chaos window (disruptions stop when it elapses;
	// grading runs after).
	Duration time.Duration
	// Seed makes the disruption schedule reproducible.
	Seed int64
	// BasePort/AdminPort/WALRoot/LogDir configure the fleet exactly as
	// supervisor.FleetConfig does. WALRoot empty disables durability
	// (the acceptance run keeps it on: acked writes must survive kill -9).
	BasePort  int
	AdminPort int
	WALRoot   string
	LogDir    string
	// Service names the KV group.
	Service string
	// KillInterval paces disruptions (one at a time, each awaited to
	// recovery before the next). Zero selects 2s.
	KillInterval time.Duration
	// StallProb is the probability a disruption is a SIGSTOP/SIGCONT stall
	// instead of a SIGKILL. Zero selects 0.25.
	StallProb float64
	// StallDuration is how long a stalled process stays stopped. Zero
	// selects 2s — past the daemons' 1s suspicion timeout, so the fleet
	// must evict and re-admit the stalled member, not merely ride it out.
	StallDuration time.Duration
	// WriteInterval paces the driver's puts. Zero selects 50ms.
	WriteInterval time.Duration
	// RecoveryBound caps how long the fleet may take to return to full
	// strength after one disruption. Zero selects 30s.
	RecoveryBound time.Duration
	// Log receives progress lines (nil discards them).
	Log func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.KillInterval <= 0 {
		c.KillInterval = 2 * time.Second
	}
	if c.StallProb == 0 {
		c.StallProb = 0.25
	}
	if c.StallDuration <= 0 {
		c.StallDuration = 2 * time.Second
	}
	if c.WriteInterval <= 0 {
		c.WriteInterval = 50 * time.Millisecond
	}
	if c.RecoveryBound <= 0 {
		c.RecoveryBound = 30 * time.Second
	}
	if c.Service == "" {
		c.Service = "bank"
	}
	if c.Log == nil {
		c.Log = func(string, ...any) {}
	}
	return c
}

// Result reports what one chaos run did and found.
type Result struct {
	Kills         int
	Stalls        int
	Writes        int // puts attempted
	AckedWrites   int // puts a daemon answered 200 (the durability ledger)
	Restarts      int // supervised restarts summed over slots
	RecoveryTimes []time.Duration
	Violations    []string
}

// Failed reports whether the run found violations.
func (r Result) Failed() bool { return len(r.Violations) > 0 }

// MaxRecovery returns the slowest measured kill-to-full-strength time.
func (r Result) MaxRecovery() time.Duration {
	var m time.Duration
	for _, d := range r.RecoveryTimes {
		if d > m {
			m = d
		}
	}
	return m
}

// MeanRecovery returns the mean measured recovery time.
func (r Result) MeanRecovery() time.Duration {
	if len(r.RecoveryTimes) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range r.RecoveryTimes {
		sum += d
	}
	return sum / time.Duration(len(r.RecoveryTimes))
}

// Run executes one chaos run: start the fleet, write through the disruption
// schedule as an external client, grade convergence and durability.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	var res Result

	fleet := supervisor.FleetConfig{
		Bin:         cfg.Bin,
		N:           cfg.N,
		BasePort:    cfg.BasePort,
		AdminPort:   cfg.AdminPort,
		Mode:        "kv",
		Service:     cfg.Service,
		WALRoot:     cfg.WALRoot,
		LogDir:      cfg.LogDir,
		JoinTimeout: cfg.RecoveryBound,

		// The doctor is part of the system under test: a member stalled past
		// eviction can wake believing everyone else is dead and install a
		// rival view that no protocol message corrects — and even admit
		// restarted members into its splinter group. Only the doctor's
		// global comparison of the admin endpoints heals that.
		DoctorInterval: time.Second,
	}
	sup, err := supervisor.StartFleet(fleet, supervisor.Config{Restart: true})
	if err != nil {
		return res, fmt.Errorf("procchaos: start fleet: %w", err)
	}
	defer sup.Stop()

	adminAddrs := make([]string, cfg.N)
	for i := range adminAddrs {
		adminAddrs[i] = fleet.AdminAddr(i)
	}

	if _, ok := supervisor.AwaitMembers(adminAddrs, cfg.N, cfg.RecoveryBound); !ok {
		return res, fmt.Errorf("procchaos: fleet never reached full strength %d", cfg.N)
	}
	cfg.Log("fleet of %d up; starting %s chaos window seed=%d", cfg.N, cfg.Duration, cfg.Seed)

	// Writer: continuous unique-key puts round-robin across the fleet;
	// 200 responses enter the ledger.
	ledger := make(map[string]string)
	var ledgerMu sync.Mutex
	client := &http.Client{Timeout: 10 * time.Second}
	writerDone := make(chan struct{})
	stopWriter := make(chan struct{})
	go func() {
		defer close(writerDone)
		seq := 0
		for {
			select {
			case <-stopWriter:
				return
			case <-time.After(cfg.WriteInterval):
			}
			seq++
			key := fmt.Sprintf("k%06d", seq)
			val := fmt.Sprintf("v%06d", seq)
			addr := adminAddrs[seq%cfg.N]
			acked := putKV(client, addr, key, val)
			ledgerMu.Lock()
			res.Writes++
			if acked {
				ledger[key] = val
				res.AckedWrites++
			}
			ledgerMu.Unlock()
		}
	}()

	// Disruption loop: one disruption at a time, each graded to recovery.
	rng := rand.New(rand.NewSource(cfg.Seed))
	deadline := time.Now().Add(cfg.Duration)
	for time.Now().Before(deadline) {
		time.Sleep(cfg.KillInterval/2 + time.Duration(rng.Int63n(int64(cfg.KillInterval))))
		if !time.Now().Before(deadline) {
			break
		}
		slot := rng.Intn(cfg.N)
		name := fleet.SlotName(slot)
		if rng.Float64() < cfg.StallProb {
			res.Stalls++
			cfg.Log("stall %s (SIGSTOP %s)", name, cfg.StallDuration)
			if err := sup.Signal(name, stallSignal); err != nil {
				cfg.Log("stall %s failed: %v", name, err)
				continue
			}
			time.Sleep(cfg.StallDuration)
			_ = sup.Signal(name, resumeSignal)
		} else {
			res.Kills++
			cfg.Log("kill -9 %s (os pid %d)", name, sup.OSPid(name))
			if err := sup.Signal(name, syscall.SIGKILL); err != nil {
				cfg.Log("kill %s failed: %v", name, err)
				continue
			}
		}
		// The fleet must return to full strength — the supervisor restarts
		// the victim (or the stalled member resumes, is evicted, and comes
		// back through the eviction exit or the doctor), it rejoins through
		// any contact, and every admin endpoint reports a view of N.
		start := time.Now()
		if _, ok := supervisor.AwaitMembers(adminAddrs, cfg.N, cfg.RecoveryBound); !ok {
			res.Violations = append(res.Violations,
				fmt.Sprintf("membership not restored to %d within %s after disrupting %s",
					cfg.N, cfg.RecoveryBound, name))
			cfg.Log("VIOLATION: %s", res.Violations[len(res.Violations)-1])
			continue
		}
		rec := time.Since(start)
		res.RecoveryTimes = append(res.RecoveryTimes, rec)
		cfg.Log("recovered to %d members in %v", cfg.N, rec.Round(time.Millisecond))
	}
	close(stopWriter)
	<-writerDone

	// Final grading: one view of all N slots, identical digests everywhere,
	// and every acked write readable.
	sts, ok := awaitConverged(adminAddrs, cfg.N, cfg.RecoveryBound)
	if !ok {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"fleet did not converge to one view with equal digests within %s (statuses: %+v)",
			cfg.RecoveryBound, sts))
	} else {
		ledgerMu.Lock()
		missing := 0
		for k, want := range ledger {
			if got, okGet := getKV(client, adminAddrs[0], k); !okGet || got != want {
				missing++
				if missing <= 3 {
					res.Violations = append(res.Violations,
						fmt.Sprintf("acked write %s=%s lost (got %q)", k, want, got))
				}
			}
		}
		if missing > 3 {
			res.Violations = append(res.Violations, fmt.Sprintf("... and %d more lost acked writes", missing-3))
		}
		ledgerMu.Unlock()
	}
	for _, st := range sup.Status() {
		res.Restarts += st.Restarts
	}
	return res, nil
}

// putKV writes one key through a daemon's admin endpoint; true means the
// daemon acked it (applied through the total order).
func putKV(client *http.Client, adminAddr, key, value string) bool {
	resp, err := client.Get("http://" + adminAddr + "/put?key=" + url.QueryEscape(key) +
		"&value=" + url.QueryEscape(value))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// getKV reads one key through a daemon's admin endpoint.
func getKV(client *http.Client, adminAddr, key string) (string, bool) {
	resp, err := client.Get("http://" + adminAddr + "/get?key=" + url.QueryEscape(key))
	if err != nil {
		return "", false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", false
	}
	buf := make([]byte, 256)
	n, _ := resp.Body.Read(buf)
	out := string(buf[:n])
	for len(out) > 0 && (out[len(out)-1] == '\n' || out[len(out)-1] == '\r') {
		out = out[:len(out)-1]
	}
	return out, true
}

// awaitConverged polls until every admin endpoint reports the same view of
// exactly n members with identical digests, stable across two consecutive
// polls (no writer is running, so digests settle). Digest equality across
// one shared view is what makes checking the ledger against a single
// replica exhaustive: identical digests mean identical maps.
func awaitConverged(adminAddrs []string, n int, timeout time.Duration) ([]supervisor.NodeStatus, bool) {
	deadline := time.Now().Add(timeout)
	stable := 0
	var last []supervisor.NodeStatus
	for time.Now().Before(deadline) {
		last = last[:0]
		ok := true
		var viewID, digest uint64
		for i, a := range adminAddrs {
			st, err := supervisor.PollStatus(a)
			last = append(last, st)
			if err != nil || st.Members != n {
				ok = false
				continue
			}
			if i == 0 {
				viewID, digest = st.ViewID, st.Digest
			} else if st.ViewID != viewID || st.Digest != digest {
				ok = false
			}
		}
		if ok {
			if stable++; stable >= 2 {
				return last, true
			}
		} else {
			stable = 0
		}
		time.Sleep(100 * time.Millisecond)
	}
	return last, false
}

// BuildNodeBinary builds cmd/isis-node into dir and returns the binary
// path. Tests and the E14 experiment use it; the CLI takes -bin directly.
func BuildNodeBinary(dir string) (string, error) {
	bin := filepath.Join(dir, "isis-node")
	cmd := buildCommand(bin)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("build isis-node: %v\n%s", err, out)
	}
	return bin, nil
}

// TempWALRoot creates a throwaway WAL root for one run.
func TempWALRoot() (string, error) {
	return os.MkdirTemp("", "isis-procchaos-wal-*")
}
