// Package isis is the public facade of the ISIS large-scale process-group
// reproduction (Birman & Cooper, "Supporting Large Scale Applications on
// Networks of Workstations", HotOS 1989).
//
// It exposes the toolkit-level programming model application programmers
// use:
//
//   - a Runtime is a deployment substrate — either a network of simulated
//     workstations (NewSimulated) or a real TCP deployment (NewTCP) — and is
//     the only thing that differs between the two; every API below it is
//     transport-agnostic, which is the paper's central claim;
//   - a Process is one workstation-resident process;
//   - flat Groups provide the classic small-scale ISIS abstraction —
//     virtually synchronous membership plus FBCAST/CBCAST/ABCAST multicast —
//     with Views and Deliveries event channels for blocking on membership
//     and message events;
//   - Services are the paper's contribution: hierarchical ("large") process
//     groups with bounded fanout, a resilient leader group, request routing
//     to individual leaf subgroups and tree-structured whole-group
//     broadcast;
//   - Clients address a Service purely by name and talk to a single leaf.
//
// See the examples directory for runnable programs and DESIGN.md for the
// architecture.
package isis

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/fdetect"
	"repro/internal/group"
	"repro/internal/member"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/reliability"
	"repro/internal/transport"
	"repro/internal/types"
)

// Re-exported identifier and message types.
type (
	// ProcessID identifies a process (site, incarnation, index).
	ProcessID = types.ProcessID
	// GroupID identifies a flat group or a subgroup of a large group.
	GroupID = types.GroupID
	// Ordering selects the multicast delivery guarantee.
	Ordering = types.Ordering
	// View is a flat group's membership view.
	View = member.View
	// Delivery is one delivered multicast. Its VT and Payload are shared
	// with the sender and the other members: read-only.
	Delivery = group.Delivery
	// GroupConfig configures a flat group membership.
	GroupConfig = group.Config
	// ServiceConfig configures a hierarchical (large-group) service member.
	ServiceConfig = core.Config
	// Group is a flat (small) process group membership. A payload handed
	// to Cast, CastAsync or CastAsyncHeld belongs to the group after the
	// call: the caller must not write it again.
	Group = group.Group
	// Service is one process's membership of a hierarchical large group.
	Service = core.Agent
	// ServiceClient is a non-member client of a hierarchical service.
	ServiceClient = core.Client
	// Tree is the leader group's subgroup tree.
	Tree = core.Tree
	// Stats are the fabric-level message counters.
	Stats = netsim.Stats
	// Directory is a name-service replica.
	Directory = naming.Directory
	// Resolver is a name-service client.
	Resolver = naming.Resolver
	// NetworkConfig configures the simulated workstation network.
	NetworkConfig = netsim.Config
	// DetectorConfig configures heartbeat-based failure detection.
	DetectorConfig = fdetect.Config
	// BatchingConfig configures the per-process outbox that coalesces
	// multicast traffic into transport batch frames.
	BatchingConfig = node.Batching
	// FaultEvent is one fault-injection action of a fault plan (crash,
	// partition, heal, loss/delay/duplication/reordering burst).
	FaultEvent = netsim.FaultEvent
	// GroupObserver taps every view install and delivery of one process
	// across all its flat groups (history recording, tracing).
	GroupObserver = group.Observer
	// ReliabilityConfig tunes the message-stability and NAK/retransmit
	// layer of every group a process joins (NAK pacing and the recovery
	// timer's period).
	ReliabilityConfig = reliability.Config
	// ReliabilityStats are a process's cumulative recovery counters
	// (NAKs sent/served, flush forwarding, sequencer-failover
	// re-announcements, stability pruning).
	ReliabilityStats = reliability.Stats
	// StateHandler is the application's durable-state hook: Snapshot is
	// captured view-consistently at installs and streamed (chunked,
	// NAK-recoverable) to joining members; Restore receives a checkpoint on
	// join or from the write-ahead log at create. Set it on GroupConfig.State
	// or ServiceConfig.State.
	StateHandler = group.StateHandler
	// StateApplier is the optional extension of StateHandler: handlers that
	// implement it receive write-ahead-log-recovered deliveries through
	// Apply instead of the OnDeliver callback.
	StateApplier = group.StateApplier
	// StateTransferStats count a group member's checkpoint-transfer and
	// write-ahead-log activity (offers, chunks, NAKs, restores, held
	// deliveries applied or dropped, WAL appends and compactions).
	StateTransferStats = group.StateTransferStats
	// TCPConfig tunes the hardened TCP connection management (dial/write
	// timeouts, per-peer queue bound, reconnect backoff, the
	// consecutive-failure threshold that declares a peer down).
	TCPConfig = transport.TCPConfig
	// TCPStats are one process's cumulative TCP connection-management
	// counters (dials, reconnects, frames sent/shed/dropped, write
	// timeouts, peer-down declarations).
	TCPStats = transport.TCPStats
)

// Multicast orderings (the ISIS broadcast primitives).
const (
	Unordered = types.Unordered
	FBCAST    = types.FIFO
	CBCAST    = types.Causal
	ABCAST    = types.Total
)

// Fault kinds for WithFaultPlan events (simulated runtimes only).
const (
	FaultCrash     = netsim.FaultCrash
	FaultPartition = netsim.FaultPartition
	FaultHeal      = netsim.FaultHeal
	FaultLoss      = netsim.FaultLoss
	FaultDelay     = netsim.FaultDelay
	FaultDuplicate = netsim.FaultDuplicate
	FaultReorder   = netsim.FaultReorder
)

// DefaultDetector returns heartbeat-based failure detection suitable for
// demos and examples.
func DefaultDetector() DetectorConfig { return fdetect.DefaultConfig() }

// Site returns the ProcessID of the first-incarnation process on the given
// site. TCP deployments, whose site ids are assigned by the operator, use it
// to name contact processes.
func Site(site uint32) ProcessID {
	return ProcessID{Site: types.SiteID(site), Incarnation: 1}
}

// ErrWrongTransport is returned by Runtime methods that only apply to one
// deployment substrate (for example SpawnAt and AddPeer, which are
// TCP-only).
var ErrWrongTransport = errors.New("isis: operation not supported by this runtime's transport")

// --- options -----------------------------------------------------------------

// Option configures a Runtime.
type Option func(*options)

type options struct {
	netsim      NetworkConfig
	detector    DetectorConfig
	batching    BatchingConfig
	reliability ReliabilityConfig
	faults      []FaultEvent
	fanout      int
	resiliency  int
	walDir      string
	tcp         TCPConfig
}

// WithNetwork fully configures the simulated network fabric (latency model,
// loss, seed, queue lengths). It is ignored by TCP runtimes.
func WithNetwork(cfg NetworkConfig) Option {
	return func(o *options) { o.netsim = cfg }
}

// WithLatency sets the simulated one-way delivery latency and jitter.
func WithLatency(base, jitter time.Duration) Option {
	return func(o *options) {
		o.netsim.BaseLatency = base
		o.netsim.Jitter = jitter
	}
}

// WithLoss sets the simulated message-loss probability in [0,1).
func WithLoss(rate float64) Option {
	return func(o *options) { o.netsim.LossRate = rate }
}

// WithSeed seeds the simulated network's random source so experiments are
// reproducible.
func WithSeed(seed int64) Option {
	return func(o *options) { o.netsim.Seed = seed }
}

// WithDetector configures failure detection for every spawned process. The
// zero DetectorConfig disables heartbeats (failures must then be injected).
func WithDetector(cfg DetectorConfig) Option {
	return func(o *options) { o.detector = cfg }
}

// WithHeartbeats enables the default heartbeat-based failure detection
// (DefaultDetector). Interactive deployments — demos and real TCP nodes —
// want this; message-counting experiments do not.
func WithHeartbeats() Option {
	return func(o *options) { o.detector = fdetect.DefaultConfig() }
}

// WithBatching tunes the hot-path send coalescing of every spawned process:
// outbound multicast traffic queues per destination and is flushed as one
// transport batch frame when the process runs out of work, when a queue
// reaches maxBatch messages, or at the latest after the flush window. Both
// substrates batch — the simulated fabric delivers a frame as one queue
// operation, TCP writes it as one length-prefixed wire frame. Zero values
// select the defaults (256 messages, 2ms); WithBatching is only needed to
// tune them.
func WithBatching(maxBatch int, window time.Duration) Option {
	return func(o *options) {
		o.batching = BatchingConfig{MaxBatch: maxBatch, Window: window}
	}
}

// WithReliability tunes the message-stability and NAK/retransmit layer used
// by every group the runtime's processes join (zero fields keep the
// defaults); WithReliability is only needed to tune it.
func WithReliability(cfg ReliabilityConfig) Option {
	return func(o *options) { o.reliability = cfg }
}

// WithFaultPlan attaches a fault plan to a simulated runtime: a timeline of
// fault events, each tagged with the scenario step it belongs to. The plan
// is not executed by a clock — the owner of the timeline (a test, the chaos
// harness's scenario runner) calls Runtime.StepFaults(step) to apply the
// events of each step at its own pace, which keeps seeded scenarios
// deterministic. TCP runtimes ignore the plan: real deployments take their
// faults from the real world.
func WithFaultPlan(events ...FaultEvent) Option {
	return func(o *options) { o.faults = append(o.faults, events...) }
}

// WithFanout sets the default fanout bound used by CreateService/JoinService
// when the ServiceConfig leaves Fanout zero.
func WithFanout(n int) Option {
	return func(o *options) { o.fanout = n }
}

// WithResiliency sets the default resiliency (acknowledgements / replicas)
// used by CreateGroup/JoinGroup and CreateService/JoinService when their
// configs leave Resiliency zero.
func WithResiliency(n int) Option {
	return func(o *options) { o.resiliency = n }
}

// WithWAL gives every spawned process a write-ahead delivery log under dir
// (each process logs into <dir>/site-<n>, keyed by site id so a restarted
// site recovers its predecessor's log). Groups and services with a
// StateHandler then survive whole-cluster restarts: a founding CreateGroup on
// a site holding a log restores the last checkpoint and re-applies the
// deliveries logged after it. Processes spawned with SpawnWAL override the
// runtime-wide directory.
func WithWAL(dir string) Option {
	return func(o *options) { o.walDir = dir }
}

// WithoutWAL disables durable delivery logging (the default): group state
// lives only in memory and a full-cluster restart starts from scratch.
func WithoutWAL() Option {
	return func(o *options) { o.walDir = "" }
}

// WithTCPConfig tunes the TCP substrate's connection management — dial and
// write timeouts, per-peer send-queue bound, reconnect backoff and the
// failure threshold that declares a peer down. Zero fields
// keep the production defaults. Simulated runtimes ignore it.
func WithTCPConfig(cfg TCPConfig) Option {
	return func(o *options) { o.tcp = cfg }
}

// --- runtime -----------------------------------------------------------------

// Runtime is a collection of processes sharing one deployment substrate.
// The same Runtime API drives both substrates; programs written against it
// run unchanged over the in-memory simulation and over TCP.
type Runtime struct {
	opts   options
	net    transport.Network
	fabric *netsim.Fabric // simulated runtimes only
	tcp    *transport.TCP // TCP runtimes only

	mu       sync.Mutex
	procs    []*Process
	nextSite uint32
	sites    map[uint32]siteUse
}

// siteUse records how a site id came to be known to the runtime, so Spawn
// never auto-assigns a site already claimed by SpawnAt or AddPeer (which
// would hijack the peer route or duplicate a ProcessID).
type siteUse uint8

const (
	siteLocal siteUse = 1 + iota // a process spawned in this runtime
	sitePeer                     // a remote peer registered with AddPeer
)

// NewSimulated creates a runtime on a simulated in-memory network of
// workstations, the substrate used by tests, benchmarks and experiments.
func NewSimulated(opts ...Option) *Runtime {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	fabric := netsim.New(o.netsim)
	return &Runtime{opts: o, fabric: fabric, net: transport.NewMemory(fabric), sites: make(map[uint32]siteUse)}
}

// NewTCP creates a runtime whose processes communicate over real TCP
// sockets. Within one operating-system process, Spawn creates loopback
// listeners on ephemeral ports and peers discover each other automatically;
// multi-machine deployments use SpawnAt and AddPeer for explicit addressing
// (one isis-node daemon per workstation).
func NewTCP(opts ...Option) *Runtime {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return &Runtime{opts: o, tcp: transport.NewTCPWithConfig(o.tcp), sites: make(map[uint32]siteUse)}
}

// Transport names the runtime's deployment substrate: "memory" or "tcp".
func (r *Runtime) Transport() string {
	if r.tcp != nil {
		return "tcp"
	}
	return "memory"
}

// Fabric exposes the underlying simulated network (fault injection and
// message accounting). It returns nil for TCP runtimes.
func (r *Runtime) Fabric() *netsim.Fabric { return r.fabric }

// Stats returns the simulated fabric's message counters; TCP runtimes have
// no global observer and report zero counters.
func (r *Runtime) Stats() Stats {
	if r.fabric == nil {
		return Stats{}
	}
	return r.fabric.Stats()
}

// Processes returns every process spawned so far, less the ones crashed
// with Crash or a fault-plan crash event: the runtime lets go of a crashed
// process, so a caller that drops it too leaves nothing of it reachable.
func (r *Runtime) Processes() []*Process {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Process(nil), r.procs...)
}

// Shutdown stops every process. Processes already stopped (for example by
// Crash) are skipped; stopping is idempotent.
func (r *Runtime) Shutdown() {
	for _, p := range r.Processes() {
		p.Stop()
	}
}

// Spawn creates a new process on the runtime's network with an
// automatically assigned site id. On TCP runtimes the process listens on an
// ephemeral loopback port and is registered with every process sharing this
// Runtime value.
func (r *Runtime) Spawn() (*Process, error) {
	pid := r.nextPID()
	return r.spawnPID(pid, r.walDirFor(uint32(pid.Site)))
}

// SpawnWAL is Spawn with an explicit write-ahead-log directory for this one
// process, overriding (or, with "", opting out of) the runtime-wide WithWAL
// directory. Restart harnesses use it to hand a replacement process its
// predecessor's log.
func (r *Runtime) SpawnWAL(dir string) (*Process, error) {
	return r.spawnPID(r.nextPID(), dir)
}

// nextPID claims the next unused site id for a local process.
func (r *Runtime) nextPID() ProcessID {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextSite++
	for r.sites[r.nextSite] != 0 {
		r.nextSite++
	}
	r.sites[r.nextSite] = siteLocal
	return ProcessID{Site: types.SiteID(r.nextSite), Incarnation: 1}
}

// walDirFor maps a site id to its per-site log directory under the
// runtime-wide WithWAL root ("" when the runtime has no WAL configured).
func (r *Runtime) walDirFor(site uint32) string {
	if r.opts.walDir == "" {
		return ""
	}
	return filepath.Join(r.opts.walDir, fmt.Sprintf("site-%d", site))
}

func (r *Runtime) spawnPID(pid ProcessID, walDir string) (*Process, error) {
	network := r.net
	if r.tcp != nil {
		network = r.tcp
	}
	bp, err := boot.Spawn(pid, network, r.opts.detector, r.opts.batching, walDir)
	if err != nil {
		r.mu.Lock()
		delete(r.sites, uint32(pid.Site))
		r.mu.Unlock()
		return nil, fmt.Errorf("isis: spawn: %w", err)
	}
	return r.adopt(bp), nil
}

// MustSpawn is Spawn for examples and tests that cannot proceed on error.
func (r *Runtime) MustSpawn() *Process {
	p, err := r.Spawn()
	if err != nil {
		panic(err)
	}
	return p
}

// SpawnAt creates a first-incarnation process with an explicit site id
// listening at the given TCP address ("host:port"). It is how isis-node
// daemons — one per workstation — attach to a deployment. It fails with
// ErrWrongTransport on simulated runtimes.
func (r *Runtime) SpawnAt(site uint32, listen string) (*Process, error) {
	return r.SpawnIncarnation(site, 1, listen)
}

// SpawnIncarnation is SpawnAt with an explicit incarnation number. A
// supervised daemon restarted into the same slot comes back as the same
// site with the incarnation bumped: surviving members tell the old
// incarnation (still in their views until the failure detector finishes
// with it) apart from the replacement asking to rejoin, while routing —
// which is purely by site address — keeps working for contacts registered
// under any incarnation. The restarted process reuses its slot's WAL
// directory and listen address; only the incarnation changes.
func (r *Runtime) SpawnIncarnation(site uint32, incarnation uint32, listen string) (*Process, error) {
	if r.tcp == nil {
		return nil, fmt.Errorf("isis: spawn site %d at %q: %w", site, listen, ErrWrongTransport)
	}
	if incarnation == 0 {
		incarnation = 1
	}
	r.mu.Lock()
	if r.sites[site] != 0 {
		r.mu.Unlock()
		return nil, fmt.Errorf("isis: spawn site %d at %q: site id already in use", site, listen)
	}
	r.sites[site] = siteLocal
	r.mu.Unlock()
	release := func() {
		r.mu.Lock()
		delete(r.sites, site)
		r.mu.Unlock()
	}
	pid := ProcessID{Site: types.SiteID(site), Incarnation: incarnation}
	ep, err := r.tcp.AttachAt(pid, listen)
	if err != nil {
		release()
		return nil, fmt.Errorf("isis: spawn at %s: %w", listen, err)
	}
	bp, err := boot.Spawn(pid, transport.Fixed{Endpoint: ep}, r.opts.detector, r.opts.batching, r.walDirFor(site))
	if err != nil {
		_ = ep.Close()
		release()
		return nil, fmt.Errorf("isis: spawn at %s: %w", listen, err)
	}
	return r.adopt(bp), nil
}

// AddPeer registers the listen address of a process running elsewhere (in
// another isis-node daemon). It fails with ErrWrongTransport on simulated
// runtimes, where all processes share one fabric and need no registration.
func (r *Runtime) AddPeer(site uint32, addr string) error {
	if r.tcp == nil {
		return fmt.Errorf("isis: AddPeer(%d, %q): %w", site, addr, ErrWrongTransport)
	}
	r.mu.Lock()
	if r.sites[site] == siteLocal {
		r.mu.Unlock()
		return fmt.Errorf("isis: AddPeer(%d, %q): site id belongs to a local process", site, addr)
	}
	r.sites[site] = sitePeer
	r.mu.Unlock()
	r.tcp.AddPeer(Site(site), addr)
	return nil
}

func (r *Runtime) adopt(bp *boot.Proc) *Process {
	p := &Process{rt: r, boot: bp}
	r.mu.Lock()
	r.procs = append(r.procs, p)
	r.mu.Unlock()
	return p
}

// Crash simulates a workstation power failure for p: on the simulated
// fabric the network additionally stops delivering to it; in all cases its
// runtime halts and the runtime forgets it (Processes no longer lists it).
// Stopping is idempotent, so a later Stop or Shutdown is safe.
func (r *Runtime) Crash(p *Process) {
	if r.fabric != nil {
		r.fabric.Crash(p.ID())
	}
	p.boot.Halt()
	r.forget(p)
}

// forget drops a crashed process from the runtime's list.
func (r *Runtime) forget(p *Process) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i := slices.Index(r.procs, p); i >= 0 {
		r.procs = slices.Delete(r.procs, i, i+1)
	}
}

// FaultPlan returns the fault plan attached with WithFaultPlan (nil when
// none was given).
func (r *Runtime) FaultPlan() []FaultEvent {
	return append([]FaultEvent(nil), r.opts.faults...)
}

// StepFaults applies every fault-plan event scheduled for the given step and
// returns the events applied. Network-level events (partitions, loss, delay,
// duplication, reordering, heals) go to the simulated fabric; crash events
// additionally stop the targeted process, forget it and inform the
// survivors, exactly like Crash+InjectFailure. On TCP runtimes (no fabric to
// inject into) it applies nothing.
func (r *Runtime) StepFaults(step int) []FaultEvent {
	if r.fabric == nil {
		return nil
	}
	var applied []FaultEvent
	for _, ev := range r.opts.faults {
		if ev.Step != step {
			continue
		}
		r.fabric.Inject(ev)
		if ev.Kind == netsim.FaultCrash {
			if p := r.processByID(ev.Proc); p != nil && !p.Stopped() {
				p.boot.Halt()
				r.forget(p)
				r.InjectFailure(p)
			}
		}
		applied = append(applied, ev)
	}
	return applied
}

// processByID returns the spawned process with the given id, or nil.
func (r *Runtime) processByID(pid ProcessID) *Process {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.procs {
		if p.ID() == pid {
			return p
		}
	}
	return nil
}

// InjectFailure tells every other process in this runtime that p has
// failed, without waiting for failure-detection timeouts.
func (r *Runtime) InjectFailure(p *Process) {
	failed := p.ID()
	for _, q := range r.Processes() {
		if q == p || q.boot.Stopped() {
			continue
		}
		stack := q.boot.Stack
		q.boot.Node.Do(func() { stack.ReportSuspicion(failed) })
	}
}

// --- process -----------------------------------------------------------------

// Process is one workstation-resident process.
type Process struct {
	rt   *Runtime
	boot *boot.Proc
}

// ID returns the process identifier.
func (p *Process) ID() ProcessID { return p.boot.PID() }

// Addr returns the process's TCP listen address, or "" on the simulated
// substrate.
func (p *Process) Addr() string {
	type addresser interface{ Addr() string }
	if a, ok := p.boot.Node.Endpoint().(addresser); ok {
		return a.Addr()
	}
	return ""
}

// Stop halts the process gracefully (write-ahead logs are drained to
// stable storage first). Stop is idempotent.
func (p *Process) Stop() { p.boot.Stop() }

// CutTCPConnections severs every live outbound TCP connection of this
// process, as a network cut mid-frame would, and returns how many were cut.
// The transport redials on the next send; the reliability layer repairs any
// frame lost in flight. It returns 0 on the simulated substrate.
func (p *Process) CutTCPConnections() int {
	if c, ok := p.boot.Node.Endpoint().(transport.ConnCutter); ok {
		return c.CutConnections()
	}
	return 0
}

// TransportStats returns the process's TCP connection-management counters
// (zero on the simulated substrate).
func (p *Process) TransportStats() TCPStats {
	if s, ok := p.boot.Node.Endpoint().(transport.TCPStatser); ok {
		return s.TCPStats()
	}
	return TCPStats{}
}

// Stopped reports whether the process has been stopped.
func (p *Process) Stopped() bool { return p.boot.Stopped() }

// ReliabilityStats returns the process's cumulative recovery counters,
// summed over all its flat groups: retransmissions asked for and served,
// casts forwarded during view-change flushes, ABCAST bindings re-announced
// by sequencer failover, and buffers released by stability.
func (p *Process) ReliabilityStats() ReliabilityStats {
	return p.boot.Stack.ReliabilityStats()
}

// ObserveGroups installs an observer tapping every flat-group view install
// and delivery of this process (the zero GroupObserver removes it). Install
// it before creating or joining groups whose events must not be missed. The
// callbacks run on the process's actor goroutine and must not block.
func (p *Process) ObserveGroups(o GroupObserver) {
	p.boot.Stack.SetObserver(o)
}

// CreateGroup founds a flat process group with this process as its first
// member.
func (p *Process) CreateGroup(name string, cfg GroupConfig) (*Group, error) {
	return p.boot.Stack.Create(types.FlatGroup(name), p.groupDefaults(cfg))
}

// JoinGroup joins an existing flat group via any current member.
func (p *Process) JoinGroup(ctx context.Context, name string, contact ProcessID, cfg GroupConfig) (*Group, error) {
	return p.boot.Stack.Join(ctx, types.FlatGroup(name), contact, p.groupDefaults(cfg))
}

// CreateService founds a hierarchical large-group service with this process
// as its first member (and first leader-group member).
func (p *Process) CreateService(name string, cfg ServiceConfig) (*Service, error) {
	return p.boot.Host.Create(name, p.serviceDefaults(cfg))
}

// JoinService adds this process to an existing hierarchical service via any
// process already participating in it.
func (p *Process) JoinService(ctx context.Context, name string, contact ProcessID, cfg ServiceConfig) (*Service, error) {
	return p.boot.Host.Join(ctx, name, contact, p.serviceDefaults(cfg))
}

// NewServiceClient creates a client of the named hierarchical service,
// reachable through the given entry process.
func (p *Process) NewServiceClient(name string, entry ProcessID) *ServiceClient {
	return core.NewClient(p.boot.Node, name, entry)
}

// NewDirectory makes this process a name-service replica.
func (p *Process) NewDirectory(peers []ProcessID) *Directory {
	return naming.NewDirectory(p.boot.Node, peers)
}

// NewResolver creates a name-service client bound to the given directory
// replica.
func (p *Process) NewResolver(directory ProcessID) *Resolver {
	return naming.NewResolver(p.boot.Node, directory)
}

func (p *Process) groupDefaults(cfg GroupConfig) GroupConfig {
	if cfg.Resiliency == 0 && p.rt.opts.resiliency > 0 {
		cfg.Resiliency = p.rt.opts.resiliency
	}
	if cfg.Reliability == (ReliabilityConfig{}) {
		cfg.Reliability = p.rt.opts.reliability
	}
	return cfg
}

func (p *Process) serviceDefaults(cfg ServiceConfig) ServiceConfig {
	if cfg.Fanout == 0 && p.rt.opts.fanout > 0 {
		cfg.Fanout = p.rt.opts.fanout
	}
	if cfg.Resiliency == 0 && p.rt.opts.resiliency > 0 {
		cfg.Resiliency = p.rt.opts.resiliency
	}
	return cfg
}

// --- waiting -----------------------------------------------------------------

// Await blocks until cond returns true or ctx ends, re-evaluating cond at a
// small fixed interval. Conditions tied to group events should prefer
// blocking on the Group.Views and Group.Deliveries channels.
func Await(ctx context.Context, cond func() bool) error {
	if cond() {
		return nil
	}
	ticker := time.NewTicker(2 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			if cond() {
				return nil
			}
			return ctx.Err()
		case <-ticker.C:
			if cond() {
				return nil
			}
		}
	}
}
