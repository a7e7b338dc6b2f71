// Package treecast implements the planning and bookkeeping of the
// tree-structured large-scale broadcast the paper sketches in "Other work":
// when communication with *all* members of a large group is unavoidable, the
// broadcast tree is mapped onto the hierarchical group organisation so that
// no process has to contact more than roughly fanout destinations.
//
// This package is pure logic: Plan computes the forwarding tree from the
// leader's leaf list, and Aggregator tracks the acknowledgements a forwarder
// owes its parent. The network wiring (sending KindTreeCast/KindTreeCastAck
// messages) lives in internal/core.
package treecast

import (
	"fmt"

	"repro/internal/types"
)

// Stage is one forwarding stage of a tree broadcast: the representative
// (first contact) of Leaf delivers the payload inside its own leaf subgroup
// and forwards the broadcast to the representatives of its child stages.
type Stage struct {
	// Leaf is the leaf subgroup this stage is responsible for.
	Leaf types.GroupID
	// Contacts are the known members of that leaf (coordinator first); the
	// first reachable contact is the stage's representative.
	Contacts []types.ProcessID
	// Children are the stages this representative forwards to.
	Children []*Stage
}

// LeafDescriptor is the minimal information Plan needs about one leaf.
type LeafDescriptor struct {
	ID       types.GroupID
	Contacts []types.ProcessID
	Size     int
}

// Plan builds the forwarding tree over the given leaves with the given
// fanout bound: a complete max(2, fanout-1)-ary tree in leaf-list order
// (stage i forwards to stages i·a+1 … i·a+a, heap layout). Every leaf
// appears in exactly one stage, and no stage forwards to more than
// max(2, fanout-1) child stages — so with its own leaf-internal delivery a
// representative contacts at most fanout destinations (the paper's bound),
// at the usual logarithmic depth.
//
// The earlier repeated-chunking construction violated the bound: chunk heads
// that survived into the next round accumulated the children of every round
// they headed, so a 9-leaf fanout-3 plan had the root forwarding to 4 stages.
func Plan(leaves []LeafDescriptor, fanout int) (*Stage, error) {
	if len(leaves) == 0 {
		return nil, fmt.Errorf("treecast: no leaves to broadcast to: %w", types.ErrNoSuchGroup)
	}
	arity := fanout - 1
	if arity < 2 {
		arity = 2
	}
	stages := make([]*Stage, len(leaves))
	for i, l := range leaves {
		stages[i] = &Stage{Leaf: l.ID, Contacts: types.CopyProcesses(l.Contacts)}
	}
	for i := range stages {
		lo := i*arity + 1
		if lo >= len(stages) {
			break
		}
		hi := lo + arity
		if hi > len(stages) {
			hi = len(stages)
		}
		stages[i].Children = stages[lo:hi]
	}
	return stages[0], nil
}

// CountStages returns the total number of stages (= leaves) in the plan.
func CountStages(root *Stage) int {
	if root == nil {
		return 0
	}
	n := 1
	for _, c := range root.Children {
		n += CountStages(c)
	}
	return n
}

// MaxForwardFanout returns the largest number of child stages any single
// stage forwards to — the quantity the fanout parameter is meant to bound.
func MaxForwardFanout(root *Stage) int {
	if root == nil {
		return 0
	}
	max := len(root.Children)
	for _, c := range root.Children {
		if f := MaxForwardFanout(c); f > max {
			max = f
		}
	}
	return max
}

// Depth returns the number of forwarding hops from the root stage to the
// deepest stage (0 when the root has no children).
func Depth(root *Stage) int {
	if root == nil || len(root.Children) == 0 {
		return 0
	}
	max := 0
	for _, c := range root.Children {
		if d := Depth(c); d > max {
			max = d
		}
	}
	return max + 1
}

// Leaves returns the leaf group ids covered by the plan, in forwarding
// order. Every leaf of the large group must appear exactly once.
func Leaves(root *Stage) []types.GroupID {
	if root == nil {
		return nil
	}
	out := []types.GroupID{root.Leaf}
	for _, c := range root.Children {
		out = append(out, Leaves(c)...)
	}
	return out
}

// Encode serialises a plan subtree for inclusion in a KindTreeCast message.
func Encode(root *Stage) []byte {
	return AppendEncode(make([]byte, 0, EncodedSize(root)), root)
}

// EncodedSize is the length of root's encoding: a present flag, then the
// stages depth first, every integer in 8 bytes.
func EncodedSize(root *Stage) int {
	if root == nil {
		return 8
	}
	return 8 + stageSize(root)
}

// stageSize counts a stage's path length, name (length and bytes), path,
// contact count, contacts (three integers each) and child count, then its
// children.
func stageSize(s *Stage) int {
	n := 8 + 8 + len(s.Leaf.Name) + 8*len(s.Leaf.Path) + 8 + 24*len(s.Contacts) + 8
	for _, c := range s.Children {
		n += stageSize(c)
	}
	return n
}

// AppendEncode appends root's encoding (Encode's format) to b and returns
// the extended buffer.
func AppendEncode(b []byte, root *Stage) []byte {
	if root == nil {
		return types.EncodeUint64(b, 0)
	}
	return appendStage(types.EncodeUint64(b, 1), root)
}

func appendStage(b []byte, s *Stage) []byte {
	b = types.EncodeUint64(b, uint64(len(s.Leaf.Path)))
	b = types.EncodeString(b, s.Leaf.Name)
	for _, p := range s.Leaf.Path {
		b = types.EncodeUint64(b, uint64(p))
	}
	b = types.EncodeUint64(b, uint64(len(s.Contacts)))
	for _, c := range s.Contacts {
		b = types.EncodeUint64(b, uint64(c.Site))
		b = types.EncodeUint64(b, uint64(c.Incarnation))
		b = types.EncodeUint64(b, uint64(c.Index))
	}
	b = types.EncodeUint64(b, uint64(len(s.Children)))
	for _, c := range s.Children {
		b = appendStage(b, c)
	}
	return b
}

// Decode parses a plan serialised with Encode.
func Decode(b []byte) (*Stage, error) {
	present, b, ok := types.DecodeUint64(b)
	if !ok {
		return nil, fmt.Errorf("treecast: decode header: %w", types.ErrRejected)
	}
	if present == 0 {
		return nil, nil
	}
	s, _, err := decodeStage(b)
	return s, err
}

func decodeStage(b []byte) (*Stage, []byte, error) {
	fail := func(what string) (*Stage, []byte, error) {
		return nil, b, fmt.Errorf("treecast: decode %s: %w", what, types.ErrRejected)
	}
	nPath, b, ok := types.DecodeUint64(b)
	if !ok {
		return fail("path len")
	}
	name, b, ok := types.DecodeString(b)
	if !ok {
		return fail("name")
	}
	path := make([]uint32, 0, min(nPath, uint64(len(b))))
	for i := uint64(0); i < nPath; i++ {
		var p uint64
		p, b, ok = types.DecodeUint64(b)
		if !ok {
			return fail("path")
		}
		path = append(path, uint32(p))
	}
	nContacts, b, ok := types.DecodeUint64(b)
	if !ok {
		return fail("contact count")
	}
	contacts := make([]types.ProcessID, 0, min(nContacts, uint64(len(b))))
	for i := uint64(0); i < nContacts; i++ {
		var site, inc, idx uint64
		site, b, ok = types.DecodeUint64(b)
		if !ok {
			return fail("contact site")
		}
		inc, b, ok = types.DecodeUint64(b)
		if !ok {
			return fail("contact inc")
		}
		idx, b, ok = types.DecodeUint64(b)
		if !ok {
			return fail("contact index")
		}
		contacts = append(contacts, types.ProcessID{Site: types.SiteID(site), Incarnation: uint32(inc), Index: uint32(idx)})
	}
	nChildren, b, ok := types.DecodeUint64(b)
	if !ok {
		return fail("child count")
	}
	s := &Stage{Leaf: types.LeafGroup(name, path...), Contacts: contacts}
	for i := uint64(0); i < nChildren; i++ {
		var child *Stage
		var err error
		child, b, err = decodeStage(b)
		if err != nil {
			return nil, b, err
		}
		s.Children = append(s.Children, child)
	}
	return s, b, nil
}

// Aggregator tracks the acknowledgements one forwarding stage owes its
// parent: the stage's own leaf-internal delivery plus one acknowledgement
// per child stage. When everything it is responsible for has acknowledged,
// the stage acks upward.
type Aggregator struct {
	// Corr is the broadcast's correlation id.
	Corr uint64
	// Parent is the process to acknowledge to (nil for the initiator).
	Parent types.ProcessID

	needLocal    bool
	children     map[string]bool // leaf key -> still outstanding
	coveredTotal int             // members covered by acknowledged subtrees + own leaf
}

// NewAggregator creates the bookkeeping for one stage of one broadcast.
func NewAggregator(corr uint64, parent types.ProcessID, children []*Stage) *Aggregator {
	a := &Aggregator{Corr: corr, Parent: parent, needLocal: true, children: make(map[string]bool, len(children))}
	for _, c := range children {
		a.children[c.Leaf.Key()] = true
	}
	return a
}

// LocalDone records that the stage's own leaf-internal delivery completed,
// covering the given number of members. It reports whether the stage is now
// fully acknowledged.
func (a *Aggregator) LocalDone(members int) bool {
	if a.needLocal {
		a.needLocal = false
		a.coveredTotal += members
	}
	return a.Done()
}

// ChildDone records an acknowledgement from the child stage responsible for
// the given leaf, covering the given number of members, and reports whether
// the stage is now fully acknowledged.
func (a *Aggregator) ChildDone(leaf types.GroupID, members int) bool {
	if a.children[leaf.Key()] {
		delete(a.children, leaf.Key())
		a.coveredTotal += members
	}
	return a.Done()
}

// ChildFailed removes a child stage from the outstanding set without
// counting any coverage (used when every contact of a subtree is
// unreachable). It reports whether the stage is now fully acknowledged.
func (a *Aggregator) ChildFailed(leaf types.GroupID) bool {
	delete(a.children, leaf.Key())
	return a.Done()
}

// Done reports whether all acknowledgements have arrived.
func (a *Aggregator) Done() bool { return !a.needLocal && len(a.children) == 0 }

// Covered returns the number of large-group members covered by the
// acknowledged subtrees so far.
func (a *Aggregator) Covered() int { return a.coveredTotal }

// Outstanding returns the number of child acknowledgements still missing.
func (a *Aggregator) Outstanding() int { return len(a.children) }

// ChildOutstanding reports whether the child stage responsible for the given
// leaf has neither acknowledged nor been failed — the set the forwarder's
// retry timer re-sends to.
func (a *Aggregator) ChildOutstanding(leaf types.GroupID) bool { return a.children[leaf.Key()] }
