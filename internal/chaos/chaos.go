// Package chaos is the deterministic fault-injection harness: it generates
// seeded fault scenarios, drives them against a simulated cluster while a
// concurrent workload runs, and then verifies the virtual-synchrony
// invariants over the recorded delivery and view histories.
//
// # One engine, three workloads
//
// Run is one timeline engine for every profile. It spawns one process per
// scenario slot, runs the step loop (network faults, crashes, restarts and
// full-cluster restarts, the step's operations, pacing), rejoins restarted
// slots off the timeline, and grades every history epoch. The profile's mode
// picks the workload the engine drives: flat groups multicasting in FIFO,
// causal and total order (the default); one hierarchical service with tree
// broadcasts and leaf-routed requests (Profile.Service); or one WAL-backed
// replicated key-value map (Profile.Stateful). A workload adds only its
// topology, its operations, its post-fault probes and its own checks.
//
// # Determinism and replay
//
// A Scenario — the full timeline of faults plus the workload plan — is a
// pure function of (seed, profile): Generate(seed, p) always returns the
// same scenario, Scenario.Encode always returns the same bytes, and
// Scenario.Hash (the "history hash" printed by failing tests and by
// cmd/isis-chaos) is a digest of those bytes. A failing seed therefore
// replays the exact same fault timeline, workload and network-level fault
// parameters with `go test -run TestChaosReplay -seed=N ./internal/chaos`
// or `isis-chaos -seed=N`. What is not bit-reproducible is goroutine
// scheduling, which is why every checker verifies schedule-independent
// invariants (prefix properties, order agreement, set agreement) rather
// than comparing runs against a golden delivery log.
//
// # Invariants
//
// Checked for every scenario, lossy or strict:
//
//   - no duplicate deliveries: a (view, sender, seq) is delivered at most
//     once per member, even under duplication injection;
//   - payload integrity: every member that delivers a message delivers the
//     same payload;
//   - FIFO: per view, each member delivers every sender's messages as the
//     contiguous prefix 1..k, in order (FBCAST and CBCAST groups);
//   - causal precedence: per view, no member delivers a message before one
//     that causally precedes it (CBCAST groups, via vector timestamps);
//   - total order: per view, each member delivers the contiguous agreed
//     prefix 1..k, and members agree on which message holds every agreed
//     slot (ABCAST groups; per the non-uniform delivery contract, a crashed
//     member's final view binds nobody — see the totalOrder checker);
//   - view agreement: any two members that install a (group, view id)
//     install identical member lists, and each member's view ids are
//     strictly increasing;
//   - virtually synchronous delivery: members that install view v+1 after
//     view v delivered exactly the same set of view-v messages, from every
//     sender — crashed senders included.
//
// Earlier revisions exempted crashed senders, dead-sequencer ABCAST views
// and all lossy scenarios from the set-agreement check; the reliability
// layer (message stability, NAK/retransmit, flush forwarding and sequencer
// failover — see internal/reliability and DESIGN.md §8) is what retired
// those exemptions, and this package's exemption-free checkers are the CI
// mechanism that keeps them retired.
package chaos

import (
	"time"

	"repro/internal/types"
)

// Profile bounds what Generate may put into a scenario. All probabilities
// are per step; bursts and partitions are always closed out (healed) before
// the settle phase so a run can quiesce.
type Profile struct {
	// Name tags the profile in reports and artifacts.
	Name string
	// Nodes is the initial cluster size.
	Nodes int
	// Steps is the number of timeline steps.
	Steps int
	// StepInterval is the wall-clock pacing between timeline steps.
	StepInterval time.Duration
	// CastsPerStep is how many multicasts each live member issues per group
	// per step.
	CastsPerStep int
	// Orderings selects the groups the workload runs in (one group per
	// ordering).
	Orderings []types.Ordering

	// MaxCrashes bounds how many processes may be down at once (restarts
	// free up budget).
	MaxCrashes int
	// CrashProb is the per-step probability of crashing one live member.
	CrashProb float64
	// RestartProb is the per-step probability of replacing one crashed
	// member with a fresh process that rejoins every group.
	RestartProb float64

	// PartitionProb is the per-step probability of splitting the live
	// members into two partitions (lossy scenarios only).
	PartitionProb float64
	// PartitionSteps caps how many steps a partition lasts before healing.
	PartitionSteps int

	// LossProb starts a random-loss burst (lossy scenarios only); the rate
	// is drawn from (0, MaxLossRate].
	LossProb    float64
	MaxLossRate float64
	// DelayProb starts a latency burst (lossy scenarios only: extra delay
	// breaks per-pair FIFO arrival the same way reordering does); base and
	// jitter are drawn from (0, MaxDelay].
	DelayProb float64
	MaxDelay  time.Duration
	// DupProb starts a duplication burst; the rate is drawn from
	// (0, MaxDupRate]. Duplication is allowed in strict scenarios: the
	// ordering engines must absorb duplicates without any invariant
	// weakening.
	DupProb    float64
	MaxDupRate float64
	// ReorderProb starts a reordering burst (lossy scenarios only); the
	// rate is drawn from (0, MaxReorderRate] with delay cap ReorderDelay.
	ReorderProb    float64
	MaxReorderRate float64
	ReorderDelay   time.Duration
	// BurstSteps caps how many steps a loss/delay/dup/reorder burst lasts.
	BurstSteps int

	// LossyFraction is the fraction of seeds generated as lossy scenarios
	// (loss, partitions, delay and reordering enabled; set-agreement check
	// disabled). The rest are strict scenarios.
	LossyFraction float64

	// SettleTimeout bounds the post-timeline quiesce (waiting for
	// deliveries and view changes to stop).
	SettleTimeout time.Duration

	// Service switches the scenario to hierarchy mode: instead of flat
	// workload groups, every node joins one hierarchical service and the
	// workload issues tree broadcasts and leaf-routed requests while the
	// fault timeline churns leaves, leader members and representatives.
	Service bool
	// ServiceFanout is the tree fanout bound for service scenarios.
	ServiceFanout int
	// ServiceResiliency is the subgroup resiliency for service scenarios.
	ServiceResiliency int
	// BroadcastsPerStep is how many tree broadcasts each live member issues
	// per step in service scenarios.
	BroadcastsPerStep int
	// RequestsPerStep is how many leaf-routed client requests are issued per
	// step in service scenarios.
	RequestsPerStep int

	// Stateful switches the scenario to durable-state mode: every node is a
	// replica of one WAL-backed key-value map, the workload issues puts, and
	// the timeline may include one full-cluster restart that every slot must
	// survive by recovering its write-ahead log. On top of the flat-group
	// invariants the stateful checkers grade replica digest convergence at
	// quiesce, post-fault write availability, and WAL recovery (every put the
	// founder acknowledged before the full restart must still be readable
	// after it).
	Stateful bool
	// KVOpsPerStep is how many KV puts each live replica issues per step in
	// stateful scenarios.
	KVOpsPerStep int
	// FullRestartProb is the per-step probability (stateful scenarios only)
	// of power-failing the whole cluster at once and restarting every slot
	// from its write-ahead log. At most one full restart per scenario, never
	// during a partition, and never so late that recovery cannot be observed.
	FullRestartProb float64
}

// DefaultProfile is the standard chaos mix: a mid-size cluster, every fault
// class, roughly half the seeds strict.
func DefaultProfile() Profile {
	return Profile{
		Name:         "default",
		Nodes:        6,
		Steps:        16,
		StepInterval: 8 * time.Millisecond,
		CastsPerStep: 3,
		Orderings:    []types.Ordering{types.FIFO, types.Causal, types.Total},

		MaxCrashes:  2,
		CrashProb:   0.12,
		RestartProb: 0.25,

		PartitionProb:  0.06,
		PartitionSteps: 3,

		LossProb:       0.10,
		MaxLossRate:    0.08,
		DelayProb:      0.10,
		MaxDelay:       2 * time.Millisecond,
		DupProb:        0.12,
		MaxDupRate:     0.25,
		ReorderProb:    0.10,
		MaxReorderRate: 0.20,
		ReorderDelay:   2 * time.Millisecond,
		BurstSteps:     4,

		LossyFraction: 0.5,
		SettleTimeout: 10 * time.Second,
	}
}

// SmokeProfile is the fast profile CI fuzzes hundreds of seeds with: a small
// cluster and a short timeline, but every fault class still enabled.
func SmokeProfile() Profile {
	p := DefaultProfile()
	p.Name = "smoke"
	p.Nodes = 4
	p.Steps = 8
	p.StepInterval = 4 * time.Millisecond
	p.CastsPerStep = 2
	p.MaxCrashes = 1
	p.SettleTimeout = 8 * time.Second
	return p
}

// SoakProfile is the long-run profile for cmd/isis-chaos soaks: a bigger
// cluster, a long timeline, more crash budget.
func SoakProfile() Profile {
	p := DefaultProfile()
	p.Name = "soak"
	p.Nodes = 8
	p.Steps = 120
	p.StepInterval = 10 * time.Millisecond
	p.MaxCrashes = 3
	p.CrashProb = 0.08
	p.SettleTimeout = 30 * time.Second
	return p
}

// ServiceProfile is the hierarchy profile: every node joins one service,
// the workload issues tree broadcasts and leaf-routed requests, and the
// checkers verify exactly-once tree delivery, request integrity and
// leader-tree agreement on top of the flat-group invariants of the
// hierarchy's internal groups.
func ServiceProfile() Profile {
	return Profile{
		Name:         "service",
		Nodes:        7,
		Steps:        14,
		StepInterval: 10 * time.Millisecond,

		Service:           true,
		ServiceFanout:     3,
		ServiceResiliency: 2,
		BroadcastsPerStep: 2,
		RequestsPerStep:   2,

		MaxCrashes:  2,
		CrashProb:   0.10,
		RestartProb: 0.30,

		PartitionProb:  0.05,
		PartitionSteps: 2,

		LossProb:       0.08,
		MaxLossRate:    0.05,
		DelayProb:      0.08,
		MaxDelay:       2 * time.Millisecond,
		DupProb:        0.10,
		MaxDupRate:     0.20,
		ReorderProb:    0.08,
		MaxReorderRate: 0.15,
		ReorderDelay:   2 * time.Millisecond,
		BurstSteps:     3,

		LossyFraction: 0.5,
		SettleTimeout: 20 * time.Second,
	}
}

// StatefulProfile is the durable-state profile: every node replicates one
// WAL-backed key-value map, the workload issues puts, and the timeline mixes
// ordinary member churn (rejoin via streamed checkpoint) with at most one
// full-cluster power failure (recover from the write-ahead logs). The
// checkers grade digest convergence, write availability after all faults
// heal, and durability of acknowledged writes across the full restart.
func StatefulProfile() Profile {
	return Profile{
		Name:         "stateful",
		Nodes:        5,
		Steps:        14,
		StepInterval: 10 * time.Millisecond,

		Stateful:        true,
		KVOpsPerStep:    2,
		FullRestartProb: 0.15,

		MaxCrashes:  2,
		CrashProb:   0.10,
		RestartProb: 0.35,

		PartitionProb:  0.05,
		PartitionSteps: 2,

		LossProb:       0.08,
		MaxLossRate:    0.05,
		DelayProb:      0.08,
		MaxDelay:       2 * time.Millisecond,
		DupProb:        0.10,
		MaxDupRate:     0.20,
		ReorderProb:    0.08,
		MaxReorderRate: 0.15,
		ReorderDelay:   2 * time.Millisecond,
		BurstSteps:     3,

		LossyFraction: 0.5,
		SettleTimeout: 20 * time.Second,
	}
}

// ProfileNames lists the built-in profile names, in the order they are
// documented.
func ProfileNames() []string {
	return []string{"smoke", "default", "soak", "service", "stateful"}
}

// LookupProfile resolves a named built-in profile, reporting whether the
// name is known.
func LookupProfile(name string) (Profile, bool) {
	switch name {
	case "smoke":
		return SmokeProfile(), true
	case "default":
		return DefaultProfile(), true
	case "soak":
		return SoakProfile(), true
	case "service":
		return ServiceProfile(), true
	case "stateful":
		return StatefulProfile(), true
	default:
		return Profile{}, false
	}
}
