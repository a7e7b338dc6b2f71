package core

import (
	"context"
	"fmt"

	"repro/internal/group"
	"repro/internal/types"
)

// Host is the per-process entry point for hierarchical groups. It owns the
// node-level handlers for the hierarchy's message kinds and dispatches them
// to the Agent of the named large group. One Host per process; any number of
// large groups per Host.
type Host struct {
	stack *group.Stack

	// agents is keyed by large-group name; only touched on the actor
	// goroutine.
	agents map[string]*Agent
}

// NewHost creates the host for a process and registers its handlers.
func NewHost(stack *group.Stack) *Host {
	h := &Host{stack: stack, agents: make(map[string]*Agent)}
	n := stack.Node()
	n.Handle(types.KindHJoinRequest, h.route((*Agent).onJoinRequest))
	n.Handle(types.KindHLeafReport, h.route((*Agent).onLeafReport))
	n.Handle(types.KindHJoinRedirect, h.route((*Agent).onRedirect))
	n.Handle(types.KindHRoute, h.route((*Agent).onRoute))
	n.Handle(types.KindTreeCast, h.route((*Agent).onTreeCast))
	n.Handle(types.KindTreeCastAck, h.route((*Agent).onTreeCastAck))
	n.Handle(types.KindTreeCastNak, h.route((*Agent).onTreeCastNak))
	n.Handle(types.KindTreeCastRepair, h.route((*Agent).onTreeCastRepair))
	n.Handle(types.KindHLeaderInvite, h.route((*Agent).onLeaderInvite))
	n.Handle(types.KindHLeaderUpdate, h.route((*Agent).onLeaderUpdate))
	return h
}

// Stack returns the group stack this host is bound to.
func (h *Host) Stack() *group.Stack { return h.stack }

func (h *Host) route(fn func(*Agent, *types.Message)) func(*types.Message) {
	return func(m *types.Message) {
		a, ok := h.agents[m.Group.Name]
		if !ok {
			// Requests expect an answer even when misdirected.
			if m.Corr != 0 && (m.Kind == types.KindHJoinRequest || m.Kind == types.KindHRoute) {
				_ = h.stack.Node().Reply(m, nil, types.ErrNoSuchGroup.Error())
			}
			return
		}
		fn(a, m)
	}
}

// Agent returns the local agent for a large group name, or nil.
func (h *Host) Agent(name string) *Agent {
	var a *Agent
	_ = h.stack.Node().Call(func() { a = h.agents[name] })
	return a
}

// Create founds a new large group: the local process becomes the first
// member of the first leaf subgroup and the first member of the leader
// group.
func (h *Host) Create(name string, cfg Config) (*Agent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("create large group %q: %w", name, err)
	}
	cfg = cfg.withDefaults()
	a := newAgent(h, name, cfg)

	var regErr error
	if err := h.stack.Node().Call(func() {
		if _, ok := h.agents[name]; ok {
			regErr = fmt.Errorf("create large group %q: %w", name, types.ErrRejected)
			return
		}
		h.agents[name] = a
	}); err != nil {
		return nil, err
	}
	if regErr != nil {
		return nil, regErr
	}
	if err := a.bootstrap(); err != nil {
		_ = h.stack.Node().Call(func() { delete(h.agents, name) })
		return nil, err
	}
	return a, nil
}

// Join adds the local process to an existing large group via any process
// already participating in it (typically resolved through the name
// service). It blocks until the process has been placed in a leaf subgroup.
func (h *Host) Join(ctx context.Context, name string, contact types.ProcessID, cfg Config) (*Agent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("join large group %q: %w", name, err)
	}
	cfg = cfg.withDefaults()
	a := newAgent(h, name, cfg)

	var regErr error
	if err := h.stack.Node().Call(func() {
		if _, ok := h.agents[name]; ok {
			regErr = fmt.Errorf("join large group %q: %w", name, types.ErrRejected)
			return
		}
		h.agents[name] = a
	}); err != nil {
		return nil, err
	}
	if regErr != nil {
		return nil, regErr
	}
	if err := a.joinVia(ctx, contact); err != nil {
		_ = h.stack.Node().Call(func() { delete(h.agents, name) })
		return nil, err
	}
	return a, nil
}

// remove unregisters an agent (after Leave). Actor goroutine only.
func (h *Host) remove(name string) { delete(h.agents, name) }
