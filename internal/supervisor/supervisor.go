// Package supervisor keeps a fleet of operating-system processes running —
// the groupmgr idiom: declare how many members a service needs, spawn them,
// watch their exits, and start a replacement whenever one crashes. Combined
// with the isis-node daemon's rejoin path (bumped incarnation, checkpoint
// transfer, write-ahead-log recovery) it turns a single `kill -9` from an
// outage into a blip: the supervisor restarts the slot, the replacement
// rejoins through any surviving contact, and state streams back in.
//
// The package is deliberately application-agnostic: a member is "anything
// with a command line". The fleet.go helpers specialise it to isis-node
// fleets (per-slot ports, WAL directories, incarnation counters, admin
// endpoints); the tests drive it with shell one-liners.
package supervisor

import (
	"fmt"
	"log"
	"os/exec"
	"sort"
	"sync"
	"syscall"
	"time"
)

// MemberSpec declares one supervised slot.
type MemberSpec struct {
	// Name identifies the slot in logs and lookups (e.g. "site-3").
	Name string
	// Command builds the slot's command for its next run. restarts is how
	// many times the slot has already run and died — fleet specs use it to
	// bump the -incarnation flag and to turn a founder's `-create` into a
	// rejoin after its first death.
	Command func(restarts int) *exec.Cmd
}

// Config tunes the supervisor.
type Config struct {
	// Restart re-runs crashed members (the groupmgr contract). When false
	// the supervisor only watches — a run-once harness.
	Restart bool
	// BackoffMin..BackoffMax pace restarts of a crash-looping member: a
	// member that dies within CrashLoopWindow of starting doubles its
	// delay (up to the max); one that ran longer resets to the minimum.
	// Zeros select 100ms, 5s and 10s.
	BackoffMin      time.Duration
	BackoffMax      time.Duration
	CrashLoopWindow time.Duration
	// StopGrace bounds how long Stop waits for a member to exit after
	// SIGTERM before escalating to SIGKILL. Zero selects 5s.
	StopGrace time.Duration
	// Logger receives supervision events (starts, exits, restarts). Nil
	// selects the standard logger.
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.BackoffMin <= 0 {
		c.BackoffMin = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.CrashLoopWindow <= 0 {
		c.CrashLoopWindow = 10 * time.Second
	}
	if c.StopGrace <= 0 {
		c.StopGrace = 5 * time.Second
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	return c
}

// MemberStatus is a point-in-time snapshot of one slot.
type MemberStatus struct {
	Name     string
	Running  bool
	OSPid    int // 0 when not running
	Restarts int // completed runs that ended in an exit
}

// Supervisor keeps its members running until stopped.
type Supervisor struct {
	cfg Config

	mu      sync.Mutex
	members map[string]*member
	stopped bool
	stopC   chan struct{}
}

type member struct {
	sup  *Supervisor
	spec MemberSpec
	done chan struct{} // closed when the watch goroutine exits

	mu       sync.Mutex
	cmd      *exec.Cmd // current running process, nil between runs
	restarts int
	stopping bool
}

// New creates a supervisor. Members are added with Add.
func New(cfg Config) *Supervisor {
	return &Supervisor{
		cfg:     cfg.withDefaults(),
		members: make(map[string]*member),
		stopC:   make(chan struct{}),
	}
}

// Done is closed when Stop begins — auxiliary loops (health checks, fleet
// doctors) select on it to shut down with the fleet.
func (s *Supervisor) Done() <-chan struct{} { return s.stopC }

// Add spawns a new supervised slot and starts watching it. It returns an
// error if the name is taken, the supervisor is stopped, or the first start
// fails (crashes *after* a successful start are the supervisor's job; a
// command that cannot even start is the caller's bug).
func (s *Supervisor) Add(spec MemberSpec) error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return fmt.Errorf("supervisor: stopped")
	}
	if _, ok := s.members[spec.Name]; ok {
		s.mu.Unlock()
		return fmt.Errorf("supervisor: member %q already exists", spec.Name)
	}
	m := &member{sup: s, spec: spec, done: make(chan struct{})}
	s.members[spec.Name] = m
	s.mu.Unlock()

	cmd := spec.Command(0)
	if err := m.start(cmd); err != nil {
		s.mu.Lock()
		delete(s.members, spec.Name)
		s.mu.Unlock()
		close(m.done)
		return fmt.Errorf("supervisor: start %q: %w", spec.Name, err)
	}
	go m.watch()
	return nil
}

// Status returns a snapshot of every slot, sorted by name.
func (s *Supervisor) Status() []MemberStatus {
	s.mu.Lock()
	members := make([]*member, 0, len(s.members))
	for _, m := range s.members {
		members = append(members, m)
	}
	s.mu.Unlock()
	out := make([]MemberStatus, 0, len(members))
	for _, m := range members {
		out = append(out, m.status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Running counts slots with a live process right now.
func (s *Supervisor) Running() int {
	n := 0
	for _, st := range s.Status() {
		if st.Running {
			n++
		}
	}
	return n
}

// OSPid returns the operating-system pid of a slot's current process, or 0.
func (s *Supervisor) OSPid(name string) int {
	s.mu.Lock()
	m := s.members[name]
	s.mu.Unlock()
	if m == nil {
		return 0
	}
	return m.status().OSPid
}

// Signal delivers an OS signal to a slot's current process — the chaos
// driver's lever: SIGKILL crashes it (and the supervisor replaces it),
// SIGSTOP/SIGCONT stall and resume it without an exit.
func (s *Supervisor) Signal(name string, sig syscall.Signal) error {
	pid := s.OSPid(name)
	if pid == 0 {
		return fmt.Errorf("supervisor: member %q has no running process", name)
	}
	return kill(pid, sig)
}

// Stop terminates the fleet: every member gets SIGTERM (the daemons drain
// their write-ahead logs on it), stragglers get SIGKILL after the grace
// period, and Stop returns when every watch goroutine has exited.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	if !s.stopped {
		s.stopped = true
		close(s.stopC)
	}
	members := make([]*member, 0, len(s.members))
	for _, m := range s.members {
		members = append(members, m)
	}
	s.mu.Unlock()

	for _, m := range members {
		m.beginStop()
	}
	deadline := time.Now().Add(s.cfg.StopGrace)
	for _, m := range members {
		select {
		case <-m.done:
		case <-time.After(time.Until(deadline)):
			m.kill()
			<-m.done
		}
	}
}

func (m *member) status() MemberStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := MemberStatus{Name: m.spec.Name, Restarts: m.restarts}
	if m.cmd != nil && m.cmd.Process != nil {
		st.Running = true
		st.OSPid = m.cmd.Process.Pid
	}
	return st
}

func (m *member) start(cmd *exec.Cmd) error {
	if err := cmd.Start(); err != nil {
		return err
	}
	m.mu.Lock()
	m.cmd = cmd
	// A Stop racing this start missed the fresh process; terminate it here
	// so the watch loop's Wait returns promptly.
	if m.stopping {
		_ = cmd.Process.Signal(syscall.SIGTERM)
	}
	m.mu.Unlock()
	m.sup.cfg.Logger.Printf("supervisor: %s started (os pid %d)", m.spec.Name, cmd.Process.Pid)
	return nil
}

// watch is the groupmgr loop: wait for the current run to exit, and unless
// the supervisor is stopping, build the next command and start it again.
func (m *member) watch() {
	defer close(m.done)
	backoff := m.sup.cfg.BackoffMin
	for {
		m.mu.Lock()
		cmd := m.cmd
		m.mu.Unlock()

		started := time.Now()
		err := cmd.Wait()
		uptime := time.Since(started)

		m.mu.Lock()
		m.cmd = nil
		m.restarts++
		restarts := m.restarts
		stopping := m.stopping
		m.mu.Unlock()
		if stopping {
			return
		}
		m.sup.cfg.Logger.Printf("supervisor: %s exited after %v (%v), restart #%d",
			m.spec.Name, uptime.Round(time.Millisecond), exitReason(err), restarts)
		if !m.sup.cfg.Restart {
			return
		}

		// Crash-loop pacing: a member that died young waits longer each
		// time; one that ran a while restarts promptly.
		if uptime < m.sup.cfg.CrashLoopWindow {
			backoff *= 2
			if backoff > m.sup.cfg.BackoffMax {
				backoff = m.sup.cfg.BackoffMax
			}
		} else {
			backoff = m.sup.cfg.BackoffMin
		}

		// Restart, retrying at the backoff pace until a start sticks (a
		// listen port still in TIME_WAIT resolves itself) or we're stopped.
		for {
			time.Sleep(backoff)
			m.mu.Lock()
			stopping = m.stopping
			m.mu.Unlock()
			if stopping {
				return
			}
			if err := m.start(m.spec.Command(restarts)); err == nil {
				break
			} else {
				m.sup.cfg.Logger.Printf("supervisor: %s restart failed: %v", m.spec.Name, err)
				if backoff *= 2; backoff > m.sup.cfg.BackoffMax {
					backoff = m.sup.cfg.BackoffMax
				}
			}
		}
	}
}

func exitReason(err error) string {
	if err == nil {
		return "exit 0"
	}
	return err.Error()
}

// beginStop marks the member stopping and SIGTERMs its current process (if
// any) so the daemon drains gracefully.
func (m *member) beginStop() {
	m.mu.Lock()
	m.stopping = true
	cmd := m.cmd
	m.mu.Unlock()
	if cmd != nil && cmd.Process != nil {
		_ = cmd.Process.Signal(syscall.SIGTERM)
	} else {
		// Between runs: the watch loop observes stopping before restarting.
	}
}

func (m *member) kill() {
	m.mu.Lock()
	cmd := m.cmd
	m.mu.Unlock()
	if cmd != nil && cmd.Process != nil {
		_ = cmd.Process.Kill()
	}
}
