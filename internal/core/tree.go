package core

import (
	"fmt"
	"sort"

	"repro/internal/types"
)

// LeafInfo is the leader group's record of one leaf subgroup: its identity,
// its current size, and a small set of contact processes (its coordinator
// first) used for routing and for the tree-structured broadcast. The leader
// never records the full member list of a leaf — that is the point of the
// hierarchy.
type LeafInfo struct {
	ID       types.GroupID
	Size     int
	Contacts []types.ProcessID
}

// Clone returns a deep copy.
func (l LeafInfo) Clone() LeafInfo {
	return LeafInfo{ID: l.ID, Size: l.Size, Contacts: types.CopyProcesses(l.Contacts)}
}

// Coordinator returns the leaf's first contact (its coordinator), or the nil
// process when no contact is known.
func (l LeafInfo) Coordinator() types.ProcessID {
	if len(l.Contacts) == 0 {
		return types.NilProcess
	}
	return l.Contacts[0]
}

// Tree is the leader group's replicated picture of a large group: the list
// of leaf subgroups plus the fanout bound. The branch structure is derived
// deterministically from the leaf list (leaves are chunked into groups of at
// most Fanout, recursively), so replicating the leaf list replicates the
// whole subgroup tree.
type Tree struct {
	Name   string
	Fanout int
	Leaves []LeafInfo

	nextOrdinal uint32
}

// NewTree creates an empty tree for a large group.
func NewTree(name string, fanout int) *Tree {
	if fanout < 2 {
		fanout = 2
	}
	return &Tree{Name: name, Fanout: fanout}
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	c := &Tree{Name: t.Name, Fanout: t.Fanout, nextOrdinal: t.nextOrdinal}
	c.Leaves = make([]LeafInfo, len(t.Leaves))
	for i, l := range t.Leaves {
		c.Leaves[i] = l.Clone()
	}
	return c
}

// TotalMembers returns the sum of the recorded leaf sizes — the size of the
// large group as far as the leader knows.
func (t *Tree) TotalMembers() int {
	n := 0
	for _, l := range t.Leaves {
		n += l.Size
	}
	return n
}

// LeafCount returns the number of leaf subgroups.
func (t *Tree) LeafCount() int { return len(t.Leaves) }

// AddLeaf creates a new leaf descriptor (initially with the given founder as
// sole member and contact) and returns it.
func (t *Tree) AddLeaf(founder types.ProcessID) LeafInfo {
	id := types.LeafGroup(t.Name, t.nextOrdinal)
	t.nextOrdinal++
	info := LeafInfo{ID: id, Size: 1, Contacts: []types.ProcessID{founder}}
	t.Leaves = append(t.Leaves, info)
	return info.Clone()
}

// FoundedBy returns the leaf whose coordinator (first contact) is p.
func (t *Tree) FoundedBy(p types.ProcessID) (LeafInfo, bool) {
	for _, l := range t.Leaves {
		if len(l.Contacts) > 0 && l.Contacts[0] == p {
			return l.Clone(), true
		}
	}
	return LeafInfo{}, false
}

// RemoveLeaf deletes a leaf descriptor (total failure or merge completion).
// It reports whether the leaf was present.
func (t *Tree) RemoveLeaf(id types.GroupID) bool {
	for i, l := range t.Leaves {
		if l.ID.Equal(id) {
			t.Leaves = append(t.Leaves[:i], t.Leaves[i+1:]...)
			return true
		}
	}
	return false
}

// Lookup returns the descriptor of a leaf by id.
func (t *Tree) Lookup(id types.GroupID) (LeafInfo, bool) {
	for _, l := range t.Leaves {
		if l.ID.Equal(id) {
			return l.Clone(), true
		}
	}
	return LeafInfo{}, false
}

// Update records a leaf's current size and contacts (from a leaf report).
// Unknown leaves are added, which makes reports idempotent and lets a new
// leader member rebuild state from incoming reports after a leader failure.
func (t *Tree) Update(id types.GroupID, size int, contacts []types.ProcessID) {
	for i := range t.Leaves {
		if t.Leaves[i].ID.Equal(id) {
			t.Leaves[i].Size = size
			t.Leaves[i].Contacts = types.CopyProcesses(contacts)
			return
		}
	}
	t.Leaves = append(t.Leaves, LeafInfo{ID: id, Size: size, Contacts: types.CopyProcesses(contacts)})
	// Keep nextOrdinal ahead of any externally observed ordinal.
	if len(id.Path) > 0 && id.Path[len(id.Path)-1] >= t.nextOrdinal {
		t.nextOrdinal = id.Path[len(id.Path)-1] + 1
	}
}

// Place chooses the leaf a joining process should be sent to: the smallest
// leaf, breaking ties by ordinal. ok is false when the tree has no leaves.
func (t *Tree) Place() (LeafInfo, bool) {
	if len(t.Leaves) == 0 {
		return LeafInfo{}, false
	}
	best := 0
	for i := 1; i < len(t.Leaves); i++ {
		if t.Leaves[i].Size < t.Leaves[best].Size {
			best = i
		}
	}
	return t.Leaves[best].Clone(), true
}

// PickForRequest chooses a leaf to serve a request. Requests are spread by
// the caller-provided key (for example a per-client counter), giving
// round-robin balance without shared state.
func (t *Tree) PickForRequest(key uint64) (LeafInfo, bool) {
	if len(t.Leaves) == 0 {
		return LeafInfo{}, false
	}
	// Only leaves with at least one contact can serve.
	candidates := make([]int, 0, len(t.Leaves))
	for i, l := range t.Leaves {
		if len(l.Contacts) > 0 {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return LeafInfo{}, false
	}
	return t.Leaves[candidates[int(key%uint64(len(candidates)))]].Clone(), true
}

// Siblings returns the other leaves, smallest first — used to choose a merge
// target for an undersized leaf.
func (t *Tree) Siblings(id types.GroupID) []LeafInfo {
	out := make([]LeafInfo, 0, len(t.Leaves))
	for _, l := range t.Leaves {
		if !l.ID.Equal(id) {
			out = append(out, l.Clone())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Size < out[j].Size })
	return out
}

// --- derived branch structure -------------------------------------------------

// BranchView is the membership of one derived branch subgroup: the ids of
// its children (leaves or other branches), never individual processes. The
// storage experiment (E6) measures exactly these lists.
type BranchView struct {
	ID       types.GroupID
	Children []types.GroupID
}

// StorageSize estimates the bytes a leader process spends storing this
// branch view, charged the same way member.View.StorageSize charges flat
// views.
func (b BranchView) StorageSize() int {
	n := len(b.ID.Name) + 1 + 4*len(b.ID.Path) + 8
	for _, c := range b.Children {
		n += len(c.Name) + 1 + 4*len(c.Path)
	}
	return n
}

// BranchViews derives the branch subgroup structure from the leaf list:
// leaves are grouped under branch nodes of at most Fanout children,
// recursively, until a single root branch remains. A tree with at most
// Fanout leaves has just the root branch.
func (t *Tree) BranchViews() []BranchView {
	ids := make([]types.GroupID, len(t.Leaves))
	for i, l := range t.Leaves {
		ids[i] = l.ID
	}
	var out []BranchView
	level := 0
	for {
		if len(ids) <= t.Fanout {
			out = append(out, BranchView{ID: types.BranchGroup(t.Name), Children: ids})
			return out
		}
		var next []types.GroupID
		for i := 0; i < len(ids); i += t.Fanout {
			end := i + t.Fanout
			if end > len(ids) {
				end = len(ids)
			}
			branchID := types.BranchGroup(t.Name, uint32(level), uint32(i/t.Fanout))
			out = append(out, BranchView{ID: branchID, Children: append([]types.GroupID(nil), ids[i:end]...)})
			next = append(next, branchID)
		}
		ids = next
		level++
	}
}

// Depth returns the number of forwarding levels between the root and the
// leaves in the derived branch structure (0 when the group has at most
// Fanout leaves).
func (t *Tree) Depth() int {
	n := len(t.Leaves)
	depth := 0
	for n > t.Fanout {
		n = (n + t.Fanout - 1) / t.Fanout
		depth++
	}
	return depth
}

// --- invariant checking --------------------------------------------------------

// CheckInvariants verifies the structural invariants the paper requires:
// every branch has at most Fanout children, every leaf appears exactly once
// in the derived structure, and leaf sizes are non-negative. It returns nil
// when all hold.
func (t *Tree) CheckInvariants() error {
	seen := make(map[string]bool)
	for _, l := range t.Leaves {
		if l.Size < 0 {
			return fmt.Errorf("core: leaf %s has negative size %d", l.ID, l.Size)
		}
		if seen[l.ID.Key()] {
			return fmt.Errorf("core: leaf %s appears twice", l.ID)
		}
		seen[l.ID.Key()] = true
	}
	leafRefs := make(map[string]int)
	for _, bv := range t.BranchViews() {
		if len(bv.Children) > t.Fanout {
			return fmt.Errorf("core: branch %s has %d children (fanout %d)", bv.ID, len(bv.Children), t.Fanout)
		}
		for _, c := range bv.Children {
			if c.Kind == types.KindLeaf {
				leafRefs[c.Key()]++
			}
		}
	}
	for _, l := range t.Leaves {
		if leafRefs[l.ID.Key()] != 1 {
			return fmt.Errorf("core: leaf %s referenced %d times in branch views", l.ID, leafRefs[l.ID.Key()])
		}
	}
	return nil
}

// --- wire encoding --------------------------------------------------------------

// Encode serialises the tree for the leader group's checkpoint and for
// handing routing plans to clients.
func (t *Tree) Encode() []byte {
	b := types.EncodeString(nil, t.Name)
	b = types.EncodeUint64(b, uint64(t.Fanout))
	b = types.EncodeUint64(b, uint64(t.nextOrdinal))
	b = types.EncodeUint64(b, uint64(len(t.Leaves)))
	for _, l := range t.Leaves {
		b = encodePath(b, l.ID.Path)
		b = types.EncodeUint64(b, uint64(l.Size))
		b = encodePIDs(b, l.Contacts)
	}
	return b
}

// DecodeTree parses a tree serialised with Encode.
func DecodeTree(b []byte) (*Tree, error) {
	fail := func(what string) (*Tree, error) {
		return nil, fmt.Errorf("core: decode tree %s: %w", what, types.ErrRejected)
	}
	name, b, ok := types.DecodeString(b)
	if !ok {
		return fail("name")
	}
	fanout, b, ok := types.DecodeUint64(b)
	if !ok {
		return fail("fanout")
	}
	next, b, ok := types.DecodeUint64(b)
	if !ok {
		return fail("ordinal")
	}
	nLeaves, b, ok := types.DecodeUint64(b)
	if !ok {
		return fail("leaf count")
	}
	t := &Tree{Name: name, Fanout: int(fanout), nextOrdinal: uint32(next)}
	for i := uint64(0); i < nLeaves; i++ {
		var path []uint32
		path, b, ok = decodePath(b)
		if !ok {
			return fail("path")
		}
		var size uint64
		size, b, ok = types.DecodeUint64(b)
		if !ok {
			return fail("size")
		}
		var contacts []types.ProcessID
		contacts, b, ok = decodePIDs(b)
		if !ok {
			return fail("contacts")
		}
		t.Leaves = append(t.Leaves, LeafInfo{ID: types.LeafGroup(name, path...), Size: int(size), Contacts: contacts})
	}
	return t, nil
}
