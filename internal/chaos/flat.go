package chaos

import (
	"cmp"
	"context"
	"encoding/binary"

	isis "repro"
	"repro/internal/types"
)

// GroupName returns the workload group name for an ordering ("chaos-fbcast",
// "chaos-cbcast", "chaos-abcast").
func GroupName(o types.Ordering) string { return "chaos-" + o.String() }

// flatLoad is the default workload: one flat group per profile ordering,
// every slot a member of every group, and every live member multicasting in
// each group at every step. A slot's live handle is its groups, parallel to
// Profile.Orderings.
type flatLoad struct{ e *engine }

func (w *flatLoad) found(proc *isis.Process, _ *History, _ any) (any, error) {
	return w.enter(func(name string) (*isis.Group, error) { return proc.CreateGroup(name, isis.GroupConfig{}) })
}

func (w *flatLoad) rejoin(ctx context.Context, proc *isis.Process, _ *History, contact types.ProcessID) (any, error) {
	return w.enter(func(name string) (*isis.Group, error) {
		return proc.JoinGroup(ctx, name, contact, isis.GroupConfig{})
	})
}

// enter runs join for every workload group, in Profile.Orderings order.
func (w *flatLoad) enter(join func(name string) (*isis.Group, error)) (any, error) {
	groups := make([]*isis.Group, 0, len(w.e.p.Orderings))
	for _, o := range w.e.p.Orderings {
		g, err := join(GroupName(o))
		if err != nil {
			return nil, err
		}
		groups = append(groups, g)
	}
	return groups, nil
}

func (w *flatLoad) converge(ctx context.Context) error {
	for _, o := range w.e.occupants() {
		for _, g := range o.live.([]*isis.Group) {
			if err := isis.Await(ctx, func() bool { return g.Size() == w.e.p.Nodes }); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *flatLoad) ops(step int) {
	for _, o := range w.e.occupants() {
		site := uint32(o.proc.ID().Site)
		for gi, g := range o.live.([]*isis.Group) {
			ord := w.e.p.Orderings[gi]
			for k := 0; k < w.e.p.CastsPerStep; k++ {
				g.CastAsync(ord, castPayload(site, ord, step, k))
				w.e.res.CastsIssued++
			}
		}
	}
}

// settle waits for the event stream to go quiet, cancels the joins still in
// flight and waits them out, then waits for quiet again.
func (w *flatLoad) settle() {
	e := w.e
	first := quiesce(e.rec.eventCounts, nil, e.p)
	e.cancel()
	e.wait()
	if v := cmp.Or(first, quiesce(e.rec.eventCounts, nil, e.p)); v != nil {
		e.vios.report(*v)
	}
}

func (w *flatLoad) grade([]*History) map[string]types.Ordering {
	orderings := make(map[string]types.Ordering, len(w.e.p.Orderings))
	for _, o := range w.e.p.Orderings {
		orderings[types.FlatGroup(GroupName(o)).Key()] = o
	}
	return orderings
}

// castPayload builds the deterministic workload payload for one cast.
func castPayload(site uint32, o types.Ordering, step, k int) []byte {
	b := make([]byte, 13)
	binary.BigEndian.PutUint32(b[0:], site)
	b[4] = byte(o)
	binary.BigEndian.PutUint32(b[5:], uint32(step))
	binary.BigEndian.PutUint32(b[9:], uint32(k))
	return b
}
