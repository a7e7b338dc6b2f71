package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	isis "repro"
	"repro/benchmark/tracenet"
	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/transport"
	"repro/internal/types"
)

// process is what a workload needs from one workstation process.
// *isis.Process satisfies it as is; the traced run's bootProc repeats the
// facade's one-line wrappers over boot.Proc.
type process interface {
	ID() isis.ProcessID
	CreateGroup(name string, cfg isis.GroupConfig) (*isis.Group, error)
	JoinGroup(ctx context.Context, name string, contact isis.ProcessID, cfg isis.GroupConfig) (*isis.Group, error)
	CreateService(name string, cfg isis.ServiceConfig) (*isis.Service, error)
	JoinService(ctx context.Context, name string, contact isis.ProcessID, cfg isis.ServiceConfig) (*isis.Service, error)
	NewServiceClient(name string, entry isis.ProcessID) *isis.ServiceClient
	ReliabilityStats() isis.ReliabilityStats
	TransportStats() isis.TCPStats
}

// kvReplica is the part of isis.KV the kv workload drives.
type kvReplica interface {
	Put(ctx context.Context, key, value string) error
	PutAsync(key, value string)
	Applied() uint64
	Digest() uint64
	Len() int
	Group() *isis.Group
}

// deployment is one runtime: the public facade for every measured number,
// or the same stack booted on tracenet for the traced run.
type deployment interface {
	Spawn() (process, error)
	CreateKV(p process, name string, cfg isis.GroupConfig) (kvReplica, error)
	JoinKV(ctx context.Context, p process, name string, contact isis.ProcessID, cfg isis.GroupConfig) (kvReplica, error)
	// Crash halts p and tells every other process at once, so detector
	// timers stay out of the membership numbers.
	Crash(p process)
	// NetStats are the message counters at the network boundary: the
	// fabric's on netsim, the tap's on traced TCP, zero on facade TCP.
	NetStats() isis.Stats
	Shutdown()
}

// substrate selects what a deployment runs on.
type substrate struct {
	tcp      bool
	walDir   string // "" for no write-ahead log
	detector isis.DetectorConfig
}

func newDeployment(s substrate, tr *tracer) deployment {
	if tr != nil {
		return newTraced(s, tr)
	}
	opts := []isis.Option{isis.WithDetector(s.detector)}
	if s.walDir != "" {
		opts = append(opts, isis.WithWAL(s.walDir))
	}
	if s.tcp {
		return facade{isis.NewTCP(opts...)}
	}
	return facade{isis.NewSimulated(opts...)}
}

// --- the public facade ---------------------------------------------------------

type facade struct{ rt *isis.Runtime }

func (f facade) Spawn() (process, error) {
	p, err := f.rt.Spawn()
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (f facade) CreateKV(p process, name string, cfg isis.GroupConfig) (kvReplica, error) {
	return p.(*isis.Process).CreateKV(name, cfg)
}

func (f facade) JoinKV(ctx context.Context, p process, name string, contact isis.ProcessID, cfg isis.GroupConfig) (kvReplica, error) {
	return p.(*isis.Process).JoinKV(ctx, name, contact, cfg)
}

func (f facade) Crash(p process) {
	f.rt.Crash(p.(*isis.Process))
	f.rt.InjectFailure(p.(*isis.Process))
}

func (f facade) NetStats() isis.Stats { return f.rt.Stats() }
func (f facade) Shutdown()            { f.rt.Shutdown() }

// --- the traced build ------------------------------------------------------------

// traced boots the same layers as the facade (boot.Spawn is the one wiring
// both use) on a tapped network, and wraps the application callbacks so the
// tracer sees where each sampled op is applied.
type traced struct {
	s      substrate
	tr     *tracer
	net    transport.Network
	fabric *netsim.Fabric // nil on TCP

	mu    sync.Mutex
	procs []*bootProc
}

func newTraced(s substrate, tr *tracer) *traced {
	d := &traced{s: s, tr: tr}
	if s.tcp {
		d.net = tracenet.Wrap(transport.NewTCP(), tr)
	} else {
		d.fabric = netsim.New(netsim.Config{})
		d.net = tracenet.Wrap(transport.NewMemory(d.fabric), tr)
	}
	return d
}

func (d *traced) Spawn() (process, error) {
	d.mu.Lock()
	site := uint32(len(d.procs) + 1)
	d.mu.Unlock()
	pid := isis.Site(site)
	walDir := ""
	if d.s.walDir != "" {
		walDir = filepath.Join(d.s.walDir, fmt.Sprintf("site-%d", site))
	}
	bp, err := boot.Spawn(pid, d.net, d.s.detector, node.Batching{}, walDir)
	if err != nil {
		return nil, err
	}
	p := &bootProc{Proc: bp, tr: d.tr, idx: d.tr.register(pid)}
	d.mu.Lock()
	d.procs = append(d.procs, p)
	d.mu.Unlock()
	return p, nil
}

func (d *traced) live() []*bootProc {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]*bootProc(nil), d.procs...)
}

func (d *traced) Crash(p process) {
	victim := p.(*bootProc)
	if d.fabric != nil {
		d.fabric.Crash(victim.PID())
	}
	victim.Halt()
	for _, q := range d.live() {
		if q == victim || q.Stopped() {
			continue
		}
		stack := q.Stack
		q.Node.Do(func() { stack.ReportSuspicion(victim.PID()) })
	}
}

func (d *traced) NetStats() isis.Stats {
	if d.fabric != nil {
		return d.fabric.Stats()
	}
	s := d.tr.netStats()
	for _, p := range d.live() {
		s.BytesSent += p.TransportStats().BytesSent
	}
	return s
}

func (d *traced) Shutdown() {
	for _, p := range d.live() {
		p.Stop()
	}
}

// bootProc is one process of the traced build.
type bootProc struct {
	*boot.Proc
	tr  *tracer
	idx int
}

func (p *bootProc) ID() isis.ProcessID { return p.PID() }

func (p *bootProc) CreateGroup(name string, cfg isis.GroupConfig) (*isis.Group, error) {
	cfg.OnDeliver = p.tr.wrapDeliver(p.idx, cfg.OnDeliver)
	return p.Stack.Create(types.FlatGroup(name), cfg)
}

func (p *bootProc) JoinGroup(ctx context.Context, name string, contact isis.ProcessID, cfg isis.GroupConfig) (*isis.Group, error) {
	cfg.OnDeliver = p.tr.wrapDeliver(p.idx, cfg.OnDeliver)
	return p.Stack.Join(ctx, types.FlatGroup(name), contact, cfg)
}

func (p *bootProc) serviceConfig(cfg isis.ServiceConfig) isis.ServiceConfig {
	handler, onBcast := cfg.RequestHandler, cfg.OnBroadcast
	cfg.RequestHandler = func(b []byte) []byte {
		start := now()
		out := handler(b)
		p.tr.applied(p.idx, b, start)
		return out
	}
	cfg.OnBroadcast = func(b []byte) {
		start := now()
		onBcast(b)
		p.tr.applied(p.idx, b, start)
	}
	return cfg
}

func (p *bootProc) CreateService(name string, cfg isis.ServiceConfig) (*isis.Service, error) {
	return p.Host.Create(name, p.serviceConfig(cfg))
}

func (p *bootProc) JoinService(ctx context.Context, name string, contact isis.ProcessID, cfg isis.ServiceConfig) (*isis.Service, error) {
	return p.Host.Join(ctx, name, contact, p.serviceConfig(cfg))
}

func (p *bootProc) NewServiceClient(name string, entry isis.ProcessID) *isis.ServiceClient {
	return core.NewClient(p.Node, name, entry)
}

func (p *bootProc) ReliabilityStats() isis.ReliabilityStats { return p.Stack.ReliabilityStats() }

func (p *bootProc) TransportStats() isis.TCPStats {
	if s, ok := p.Node.Endpoint().(transport.TCPStatser); ok {
		return s.TCPStats()
	}
	return isis.TCPStats{}
}

// tracedKV repeats kv.go's wiring (the store is the group's state handler
// and applies every delivery) because isis.KV can only be built by the
// facade; the tracer's wrapper goes around the store's Apply.
type tracedKV struct {
	g     *isis.Group
	store *kvstore.Store
	nonce atomic.Uint64
}

func (kv *tracedKV) config(cfg isis.GroupConfig) isis.GroupConfig {
	app := cfg.OnDeliver
	cfg.State = kv.store
	cfg.OnDeliver = func(d isis.Delivery) {
		kv.store.Apply(d)
		if app != nil {
			app(d)
		}
	}
	return cfg
}

func (d *traced) CreateKV(p process, name string, cfg isis.GroupConfig) (kvReplica, error) {
	kv := &tracedKV{store: kvstore.New()}
	g, err := p.CreateGroup(name, kv.config(cfg))
	kv.g = g
	return kv, err
}

func (d *traced) JoinKV(ctx context.Context, p process, name string, contact isis.ProcessID, cfg isis.GroupConfig) (kvReplica, error) {
	kv := &tracedKV{store: kvstore.New()}
	g, err := p.JoinGroup(ctx, name, contact, kv.config(cfg))
	kv.g = g
	return kv, err
}

func (kv *tracedKV) nextNonce() uint64 {
	return uint64(kv.g.Self().Site)<<32 | kv.nonce.Add(1)
}

func (kv *tracedKV) PutAsync(key, value string) {
	kv.g.CastAsync(isis.ABCAST, kvstore.EncodeOp(kvstore.OpPut, kv.nextNonce(), key, value))
}

func (kv *tracedKV) Put(ctx context.Context, key, value string) error {
	nonce := kv.nextNonce()
	applied := kv.store.Wait(nonce)
	if err := kv.g.Cast(ctx, isis.ABCAST, kvstore.EncodeOp(kvstore.OpPut, nonce, key, value)); err != nil {
		kv.store.Forget(nonce)
		return err
	}
	select {
	case <-applied:
		return nil
	case <-ctx.Done():
		kv.store.Forget(nonce)
		return ctx.Err()
	}
}

func (kv *tracedKV) Applied() uint64    { return kv.store.Applied() }
func (kv *tracedKV) Digest() uint64     { return kv.store.Digest() }
func (kv *tracedKV) Len() int           { return kv.store.Len() }
func (kv *tracedKV) Group() *isis.Group { return kv.g }

// await polls cond every 2ms for at most timeout (never on a timed path that
// reports latency: phases signal completion through channels).
func await(timeout time.Duration, cond func() bool) bool {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return isis.Await(ctx, cond) == nil
}
