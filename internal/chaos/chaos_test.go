package chaos_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chaos"
)

// Replay flags: `go test -run TestChaosReplay -seed=N [-profile=smoke]`
// re-runs exactly one generated scenario. cmd/isis-chaos accepts the same
// seed/profile pair and prints the same scenario hash, which is the replay
// contract: matching hashes mean the same fault timeline, workload plan and
// network fault parameters ran in both places.
var (
	seedFlag    = flag.Int64("seed", 0, "chaos scenario seed for TestChaosReplay")
	profileFlag = flag.String("profile", "smoke", "chaos profile for TestChaosReplay: "+strings.Join(chaos.ProfileNames(), ", "))
)

// envCount reads a seed count from the environment variable name; CI sets
// it to hundreds, the default def keeps plain `go test ./...` quick.
func envCount(name string, def int) int {
	if n, err := strconv.Atoi(os.Getenv(name)); err == nil && n > 0 {
		return n
	}
	return def
}

// reportFailure prints the replay instructions and, when CHAOS_ARTIFACT_DIR
// is set (the CI chaos-smoke job), appends the failing seed to the artifact
// file the job uploads.
func reportFailure(t *testing.T, res *chaos.Result) {
	t.Helper()
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	t.Errorf("failing scenario: %s", res.Scenario.Summary())
	t.Errorf("history hash: %s", res.Hash)
	t.Errorf("replay with: go test -run TestChaosReplay -seed=%d -profile=%s ./internal/chaos  (or: isis-chaos -seed=%d -profile=%s)",
		res.Scenario.Seed, res.Scenario.Profile.Name, res.Scenario.Seed, res.Scenario.Profile.Name)
	if dir := os.Getenv("CHAOS_ARTIFACT_DIR"); dir != "" {
		_ = os.MkdirAll(dir, 0o755)
		f, err := os.OpenFile(filepath.Join(dir, "failing-seeds.txt"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err == nil {
			fmt.Fprintf(f, "seed=%d profile=%s hash=%s violations=%d\n",
				res.Scenario.Seed, res.Scenario.Profile.Name, res.Hash, len(res.Violations))
			for _, v := range res.Violations {
				fmt.Fprintf(f, "  %s\n", v)
			}
			_ = f.Close()
		}
	}
}

// TestGenerateIsDeterministic pins the replay contract at the generator
// level: the same (seed, profile) must yield byte-identical scenarios and
// hashes, and different seeds must diverge.
func TestGenerateIsDeterministic(t *testing.T) {
	p := chaos.DefaultProfile()
	for seed := int64(1); seed <= 50; seed++ {
		a, b := chaos.Generate(seed, p), chaos.Generate(seed, p)
		if string(a.Encode()) != string(b.Encode()) {
			t.Fatalf("seed %d: Generate not deterministic", seed)
		}
		if a.Hash() != b.Hash() {
			t.Fatalf("seed %d: hash not deterministic", seed)
		}
	}
	if chaos.Generate(1, p).Hash() == chaos.Generate(2, p).Hash() {
		t.Error("different seeds produced identical scenarios")
	}
}

// TestGenerateClosesFaults: every scenario must end with no partition and
// no open loss/delay/dup/reorder burst, or runs could never quiesce.
func TestGenerateClosesFaults(t *testing.T) {
	p := chaos.DefaultProfile()
	for seed := int64(1); seed <= 200; seed++ {
		s := chaos.Generate(seed, p)
		partitioned := false
		var loss, dup, reorder float64
		var base, jit int64
		for _, e := range s.Events {
			switch e.Kind {
			case chaos.EvPartition:
				partitioned = true
			case chaos.EvHeal:
				partitioned = false
			case chaos.EvLoss:
				loss = e.Rate
			case chaos.EvDup:
				dup = e.Rate
			case chaos.EvReorder:
				reorder = e.Rate
			case chaos.EvDelay:
				base, jit = int64(e.Base), int64(e.Jit)
			}
			if !s.Lossy {
				switch e.Kind {
				case chaos.EvPartition, chaos.EvLoss, chaos.EvReorder, chaos.EvDelay:
					t.Fatalf("seed %d: strict scenario contains lossy event %s", seed, e)
				}
			}
		}
		if partitioned || loss != 0 || dup != 0 || reorder != 0 || base != 0 || jit != 0 {
			t.Errorf("seed %d: scenario ends with open faults (partitioned=%v loss=%v dup=%v reorder=%v delay=%v/%v)",
				seed, partitioned, loss, dup, reorder, base, jit)
		}
	}
}

// runSeeds runs seeds 1..n of profile as parallel subtests and fails each
// broken seed with replay instructions.
func runSeeds(t *testing.T, profile chaos.Profile, n int) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			res, err := chaos.Run(chaos.Generate(seed, profile))
			if err != nil {
				t.Fatalf("harness error: %v", err)
			}
			if res.Failed() {
				reportFailure(t, res)
			}
			if res.Deliveries == 0 {
				t.Errorf("scenario delivered nothing: %s", res)
			}
		})
	}
}

// TestChaosSeeds is the fuzzing regression net: it runs CHAOS_SEEDS (default
// a dozen) generated scenarios of CHAOS_PROFILE (default smoke) and fails
// with replay instructions if any invariant breaks. The CI chaos-smoke job
// runs it with CHAOS_SEEDS=200 under -race; the nightly soak adds
// CHAOS_SEEDS=1000 CHAOS_PROFILE=default.
func TestChaosSeeds(t *testing.T) {
	profile := chaos.SmokeProfile()
	if p, ok := chaos.LookupProfile(os.Getenv("CHAOS_PROFILE")); ok {
		profile = p
	}
	runSeeds(t, profile, envCount("CHAOS_SEEDS", 12))
}

// TestServiceChaosSeeds fuzzes the hierarchy: seeded scenarios drive one
// large-group service through leaf-member churn, leader crashes,
// representative crashes mid-treecast and partitions, then grade tree
// broadcasts (exactly-once + completeness), leaf-routed requests, leader
// agreement and the flat invariants of the hierarchy's internal groups.
// CHAOS_SERVICE_SEEDS sets the seed count; failing seeds replay with
// -profile=service, same contract as the flat seeds.
func TestServiceChaosSeeds(t *testing.T) {
	runSeeds(t, chaos.ServiceProfile(), envCount("CHAOS_SERVICE_SEEDS", 4))
}

// TestStatefulChaosSeeds fuzzes the durable-state stack: seeded scenarios
// drive one WAL-backed replicated KV map through member crashes (rejoin via
// streamed view-consistent checkpoint), frame loss, partitions and at most
// one full-cluster power failure (recover from the write-ahead logs), then
// grade WAL durability of acknowledged writes, replica digest convergence at
// quiesce, post-heal write availability and the flat virtual-synchrony
// invariants of the underlying group. CHAOS_STATEFUL_SEEDS sets the seed
// count; failing seeds replay with -profile=stateful, same contract as the
// flat seeds.
func TestStatefulChaosSeeds(t *testing.T) {
	runSeeds(t, chaos.StatefulProfile(), envCount("CHAOS_STATEFUL_SEEDS", 4))
}

// TestLossySeedsSetAgreement pins the lossy upgrade end to end: generated
// lossy scenarios (loss, partitions, delay, reordering) must pass the full
// exemption-free checker set, set agreement included. It scans seeds until
// it has exercised a fixed number of genuinely lossy ones.
func TestLossySeedsSetAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const wantLossy = 6
	profile := chaos.SmokeProfile()
	ran := 0
	for seed := int64(1); ran < wantLossy && seed < 100; seed++ {
		s := chaos.Generate(seed, profile)
		if !s.Lossy {
			continue
		}
		ran++
		res, err := chaos.Run(s)
		if err != nil {
			t.Fatalf("seed %d: harness error: %v", seed, err)
		}
		if res.Failed() {
			reportFailure(t, res)
		}
	}
	if ran < wantLossy {
		t.Fatalf("only %d lossy seeds in range", ran)
	}
}

// TestScenarioHashesPinned pins the replay contract across harness changes:
// the scenario hashes of seeds 1-3 of every built-in profile. CI's
// failing-seed artifacts name scenarios by these hashes, so a change here
// means an old artifact no longer replays.
func TestScenarioHashesPinned(t *testing.T) {
	pinned := []struct {
		profile string
		seed    int64
		hash    string
	}{
		{"smoke", 1, "a1807613a38623f2e50eb059020bb427ea911b4ac0d64ab4dbe45e482be5d17f"},
		{"smoke", 2, "381c2acf36e5435d3923f17b6dbc2dc47f1e1ae9edd602d206f989dc02fd4026"},
		{"smoke", 3, "1db042ed83308575d2702b595764955da02e22ddba7d8ff245961f7d55e3f61b"},
		{"default", 1, "6d3437843c1430786a998d562d617d98d190d4ece08f88de8b9cfdd7f96baae7"},
		{"default", 2, "8d396c49d489e90ee5f3b135c8de22bb63bfbba8fb2e6113f322d6c15670ff5c"},
		{"default", 3, "bfff98df04b7821293520d68e72b79d4355f4d923148a474949b0213126f2e8a"},
		{"soak", 1, "21f4af93df2a9eb72015fba3f9cae4f72ed3613806768069f822c414db4046ff"},
		{"soak", 2, "1bfd53386a893fb033dab30684859da614736716477e7a1d1ab4d098a206bea1"},
		{"soak", 3, "2452b3389230bff2951bab461b2b33a79139f8f914b947219a5e081adcb431a7"},
		{"service", 1, "b4627e5796e9c05fa677d039649b9bc3dd716c45b7f048cc80c863b6345c3b8d"},
		{"service", 2, "483d36065fcddf18de3080f6fe595998fc7d405405b6cfe6eadf072b2a84b389"},
		{"service", 3, "2f1232e0e1f6f09989ee3027b8421fbe92779f2b69148daeb7ddb449179b15dc"},
		{"stateful", 1, "a4999670a3d65b2c9f743771fb0d85669b31e6b14d6330c101835002b13d8482"},
		{"stateful", 2, "38c8c79c5c50651afa8a3089505b828dd7046caa280ec9d1a4a8438816451ff3"},
		{"stateful", 3, "cb2a862717cae19fe554ab66df71442cfd2b18c04c0ae7d955c12a49b411db87"},
	}
	for _, pin := range pinned {
		p, ok := chaos.LookupProfile(pin.profile)
		if !ok {
			t.Fatalf("profile %q unknown", pin.profile)
		}
		if got := chaos.Generate(pin.seed, p).Hash(); got != pin.hash {
			t.Errorf("%s seed %d: hash %s, pinned %s", pin.profile, pin.seed, got, pin.hash)
		}
	}
}

// TestChaosReplay runs exactly one scenario, selected by -seed/-profile, and
// prints its hash; with the default seed it doubles as a single smoke run.
func TestChaosReplay(t *testing.T) {
	seed := *seedFlag
	if seed == 0 {
		seed = 1
	}
	profile, ok := chaos.LookupProfile(*profileFlag)
	if !ok {
		t.Fatalf("unknown profile %q; valid profiles: %s", *profileFlag, strings.Join(chaos.ProfileNames(), ", "))
	}
	s := chaos.Generate(seed, profile)
	t.Logf("scenario: %s", s.Summary())
	t.Logf("history hash: %s", s.Hash())
	res, err := chaos.Run(s)
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	t.Logf("result: %s", res)
	if res.Failed() {
		reportFailure(t, res)
	}
}

// TestRunRecordsFaultLog pins the fault plumbing end to end: a scenario with
// faults must leave them in the fabric's fault log inside the result stats.
func TestRunRecordsFaultLog(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	profile := chaos.SmokeProfile()
	// Find a seed whose scenario actually contains events.
	for seed := int64(1); seed <= 50; seed++ {
		s := chaos.Generate(seed, profile)
		if len(s.Events) == 0 {
			continue
		}
		res, err := chaos.Run(s)
		if err != nil {
			t.Fatalf("harness error: %v", err)
		}
		if len(res.Stats.Faults) == 0 {
			t.Errorf("scenario had %d events but the fabric fault log is empty", len(s.Events))
		}
		return
	}
	t.Skip("no seed with events in range (profile too quiet)")
}

// TestRestartThroughDeadFounder: a full restart re-founds the system on slot
// 0 and hands every other slot's rejoin the new founder, and a crash in the
// same step takes that founder down again before anyone has joined it. The
// rejoins must not wait on the dead founder until the run's deadline: each
// gives up when its contact's slot goes down and re-picks, and the first to
// find no live slot re-founds the system on its own log. With slot 0
// restarting in the same step too (stateful seed 57's timeline), its rejoin
// has no contact at all and re-founds or joins whoever did.
func TestRestartThroughDeadFounder(t *testing.T) {
	for _, tc := range []struct {
		name   string
		events []chaos.Event
	}{
		{"founder stays down", []chaos.Event{
			{Step: 2, Kind: chaos.EvFullRestart},
			{Step: 2, Kind: chaos.EvCrash, Node: 0},
		}},
		{"founder restarts", []chaos.Event{
			{Step: 2, Kind: chaos.EvFullRestart},
			{Step: 2, Kind: chaos.EvCrash, Node: 0},
			{Step: 2, Kind: chaos.EvRestart, Node: 0},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := chaos.StatefulProfile()
			p.Steps = 6
			res, err := chaos.Run(chaos.Scenario{Seed: 57, Profile: p, Events: tc.events})
			if err != nil {
				t.Fatalf("harness error: %v", err)
			}
			t.Logf("result: %s", res)
			if res.Failed() {
				reportFailure(t, res)
			}
			if res.JoinFailures != 0 {
				t.Errorf("%d rejoins failed, want 0", res.JoinFailures)
			}
			if limit := p.SettleTimeout / 4; res.SettleWait > limit {
				t.Errorf("settle wait %v: rejoins waited on the dead founder (limit %v)", res.SettleWait, limit)
			}
		})
	}
}
