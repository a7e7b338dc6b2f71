// Package cluster is the shared harness for internal tests, benchmarks and
// the experiment driver: it spins up N simulated workstation processes on
// one in-memory fabric and provides the waiting and fault-injection helpers
// the experiments need.
//
// It is a thin adapter: all per-process wiring lives in internal/boot (the
// same bootstrap the public facade and the TCP daemon use), and cluster only
// adds fabric plumbing and indexed access. Application-level code should use
// the public isis facade instead.
package cluster

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/fdetect"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/transport"
	"repro/internal/types"
)

// Options configures a simulated cluster.
type Options struct {
	// Netsim configures the fabric (latency, loss, seed, ...).
	Netsim netsim.Config
	// Detector configures the failure detectors. The zero value disables
	// heartbeat traffic; failures are then injected explicitly.
	Detector fdetect.Config
	// WALDir, when non-empty, gives every process a write-ahead-log
	// directory (<WALDir>/site-<n>, keyed by site so a restarted site
	// recovers its predecessor's log).
	WALDir string
}

// Proc is one simulated workstation process.
type Proc struct {
	ID       types.ProcessID
	Node     *node.Node
	Detector *fdetect.Detector
	Stack    *group.Stack
	Host     *core.Host

	boot *boot.Proc
}

// Cluster is a set of simulated processes sharing one fabric.
type Cluster struct {
	opts   Options
	Fabric *netsim.Fabric
	Net    *transport.Memory
	Procs  []*Proc

	nextSite uint32
}

// New creates a cluster with n processes.
func New(n int, opts Options) (*Cluster, error) {
	c := &Cluster{
		opts:   opts,
		Fabric: netsim.New(opts.Netsim),
	}
	c.Net = transport.NewMemory(c.Fabric)
	for i := 0; i < n; i++ {
		if _, err := c.AddProcess(); err != nil {
			c.Stop()
			return nil, err
		}
	}
	return c, nil
}

// MustNew is New for tests and benchmarks that cannot proceed on error.
func MustNew(n int, opts Options) *Cluster {
	c, err := New(n, opts)
	if err != nil {
		panic(err)
	}
	return c
}

// AddProcess creates one more process on the cluster's fabric.
func (c *Cluster) AddProcess() (*Proc, error) {
	c.nextSite++
	pid := types.ProcessID{Site: types.SiteID(c.nextSite), Incarnation: 1}
	walDir := ""
	if c.opts.WALDir != "" {
		walDir = filepath.Join(c.opts.WALDir, fmt.Sprintf("site-%d", c.nextSite))
	}
	bp, err := boot.Spawn(pid, c.Net, c.opts.Detector, node.Batching{}, walDir)
	if err != nil {
		return nil, fmt.Errorf("cluster: add process %v: %w", pid, err)
	}
	p := &Proc{ID: pid, Node: bp.Node, Detector: bp.Detector, Stack: bp.Stack, Host: bp.Host, boot: bp}
	c.Procs = append(c.Procs, p)
	return p, nil
}

// Proc returns the i'th process (0-based).
func (c *Cluster) Proc(i int) *Proc { return c.Procs[i] }

// PIDs returns the process ids of all processes, in creation order.
func (c *Cluster) PIDs() []types.ProcessID {
	out := make([]types.ProcessID, len(c.Procs))
	for i, p := range c.Procs {
		out[i] = p.ID
	}
	return out
}

// Stop shuts every process down.
func (c *Cluster) Stop() {
	for _, p := range c.Procs {
		p.boot.Stop()
	}
}

// Crash simulates a workstation power failure for the i'th process: the
// fabric stops delivering to it and the node is stopped. Other processes
// discover the failure through their detectors (or an explicit
// InjectFailure).
func (c *Cluster) Crash(i int) {
	p := c.Procs[i]
	c.Fabric.Crash(p.ID)
	p.boot.Halt()
}

// InjectFailure tells every *other* live process that the i'th process has
// failed, bypassing detection timeouts. Experiments use it so measured
// membership-change costs exclude heartbeat traffic.
func (c *Cluster) InjectFailure(i int) {
	failed := c.Procs[i].ID
	for j, p := range c.Procs {
		if j == i || p.Node.Stopped() {
			continue
		}
		stack := p.Stack
		p.Node.Do(func() { stack.ReportSuspicion(failed) })
	}
}

// WaitFor polls cond until it returns true or the timeout expires.
func WaitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

// WaitForViewSize waits until the group g (as seen by the given processes)
// has exactly n members in every listed process's current view.
func WaitForViewSize(timeout time.Duration, n int, groups ...*group.Group) bool {
	return WaitFor(timeout, func() bool {
		for _, g := range groups {
			if g == nil || g.Size() != n {
				return false
			}
		}
		return true
	})
}
