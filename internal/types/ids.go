// Package types defines the identifiers, message envelope and error
// taxonomy shared by every layer of the ISIS reproduction.
//
// The naming follows the 1989 paper: processes live on sites
// (workstations), are collected into process groups, and each group moves
// through a sequence of views. Hierarchical ("large") groups additionally
// have subgroup identifiers for their leaf and branch components.
package types

import (
	"fmt"
	"sort"
	"strconv"
)

// SiteID identifies a workstation (a machine on the network). In the
// in-memory simulation each simulated workstation gets its own SiteID; with
// the TCP transport a SiteID corresponds to one isis-node daemon.
type SiteID uint32

// ProcessID uniquely identifies a process for the lifetime of the system.
// It mirrors the ISIS address structure: the site the process runs on, the
// incarnation number of that site (so a rebooted workstation never reuses
// addresses), and a per-site process index.
type ProcessID struct {
	Site        SiteID
	Incarnation uint32
	Index       uint32
}

// NilProcess is the zero ProcessID, used to mean "no process".
var NilProcess ProcessID

// IsNil reports whether p is the zero ProcessID.
func (p ProcessID) IsNil() bool { return p == NilProcess }

// String renders the process id in the site/incarnation:index form used in
// logs and test failure messages, e.g. "p3.1:0".
func (p ProcessID) String() string {
	return fmt.Sprintf("p%d.%d:%d", p.Site, p.Incarnation, p.Index)
}

// Less imposes a total order on process ids. The order is used wherever a
// deterministic choice among members is needed (for example ranking members
// by age within a view when join timestamps tie).
func (p ProcessID) Less(q ProcessID) bool {
	if p.Site != q.Site {
		return p.Site < q.Site
	}
	if p.Incarnation != q.Incarnation {
		return p.Incarnation < q.Incarnation
	}
	return p.Index < q.Index
}

// GroupID identifies a process group. Flat groups and the leaf/branch/leader
// components of a large group all carry GroupIDs; the Kind field
// distinguishes them so misdirected traffic is detected early.
type GroupID struct {
	// Name is the application-visible group name, e.g. "quotes".
	Name string
	// Kind says which structural role this group plays.
	Kind GroupKind
	// Path locates a subgroup inside a large group's tree. It is empty for
	// flat groups and for the root branch of a large group. Each element is
	// the child ordinal chosen when the subgroup was created, so paths are
	// stable across view changes.
	Path []uint32
}

// GroupKind is the structural role of a group.
type GroupKind uint8

const (
	// KindFlat is an ordinary small group (the only kind in 1989 ISIS).
	KindFlat GroupKind = iota
	// KindLeaf is a leaf subgroup of a large group; its members are
	// processes.
	KindLeaf
	// KindBranch is an interior subgroup of a large group; its "members" are
	// child subgroups, not processes.
	KindBranch
	// KindLeader is the small resilient group that manages a branch group's
	// view.
	KindLeader
)

// String returns a short human-readable kind name.
func (k GroupKind) String() string {
	switch k {
	case KindFlat:
		return "flat"
	case KindLeaf:
		return "leaf"
	case KindBranch:
		return "branch"
	case KindLeader:
		return "leader"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// FlatGroup returns the GroupID of a flat group with the given name.
func FlatGroup(name string) GroupID { return GroupID{Name: name, Kind: KindFlat} }

// LeafGroup returns the GroupID of the leaf subgroup of the named large
// group at the given tree path.
func LeafGroup(name string, path ...uint32) GroupID {
	return GroupID{Name: name, Kind: KindLeaf, Path: append([]uint32(nil), path...)}
}

// BranchGroup returns the GroupID of the branch subgroup of the named large
// group at the given tree path. The root branch has an empty path.
func BranchGroup(name string, path ...uint32) GroupID {
	return GroupID{Name: name, Kind: KindBranch, Path: append([]uint32(nil), path...)}
}

// LeaderGroup returns the GroupID of the leader group managing the branch at
// the given path of the named large group.
func LeaderGroup(name string, path ...uint32) GroupID {
	return GroupID{Name: name, Kind: KindLeader, Path: append([]uint32(nil), path...)}
}

// String renders the group id, e.g. "quotes[leaf:0.2]".
func (g GroupID) String() string {
	if g.Kind == KindFlat && len(g.Path) == 0 {
		return g.Name
	}
	var buf [64]byte
	return string(g.AppendKey(buf[:0]))
}

// Key returns a map-key representation of the group id. GroupID itself is
// not comparable because of the Path slice, so protocol state tables index
// by Key().
func (g GroupID) Key() string { return g.String() }

// AppendKey appends Key() to b. A table keyed by Key() can be read without
// allocating the key: groups[string(gid.AppendKey(buf[:0]))].
func (g GroupID) AppendKey(b []byte) []byte {
	b = append(b, g.Name...)
	if g.Kind == KindFlat && len(g.Path) == 0 {
		return b
	}
	b = append(b, '[')
	b = append(b, g.Kind.String()...)
	b = append(b, ':')
	for i, p := range g.Path {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(p), 10)
	}
	return append(b, ']')
}

// Equal reports whether two group ids identify the same group.
func (g GroupID) Equal(o GroupID) bool {
	if g.Name != o.Name || g.Kind != o.Kind || len(g.Path) != len(o.Path) {
		return false
	}
	for i := range g.Path {
		if g.Path[i] != o.Path[i] {
			return false
		}
	}
	return true
}

// Child returns the GroupID of the i'th child subgroup of a branch group,
// with the given kind (KindLeaf or KindBranch).
func (g GroupID) Child(kind GroupKind, i uint32) GroupID {
	return GroupID{Name: g.Name, Kind: kind, Path: append(append([]uint32(nil), g.Path...), i)}
}

// Parent returns the GroupID of the parent branch of a subgroup and true,
// or the zero GroupID and false when called on a root or flat group.
func (g GroupID) Parent() (GroupID, bool) {
	if len(g.Path) == 0 || g.Kind == KindFlat {
		return GroupID{}, false
	}
	return GroupID{Name: g.Name, Kind: KindBranch, Path: append([]uint32(nil), g.Path[:len(g.Path)-1]...)}, true
}

// Depth returns the depth of the subgroup in the large-group tree; the root
// branch has depth 0.
func (g GroupID) Depth() int { return len(g.Path) }

// ViewID identifies one view (membership epoch) of a group. Views are
// numbered consecutively from 1 as membership changes are installed.
type ViewID uint64

// MsgID identifies a multicast within a group: the view in which it was
// initiated, the sender, and the sender's per-group sequence number.
type MsgID struct {
	Sender ProcessID
	Seq    uint64
}

// String renders the message id, e.g. "p1.0:0/17".
func (m MsgID) String() string { return fmt.Sprintf("%s/%d", m.Sender, m.Seq) }

// SortProcesses sorts a slice of process ids in place into canonical order
// and returns it.
func SortProcesses(ps []ProcessID) []ProcessID {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Less(ps[j]) })
	return ps
}

// ContainsProcess reports whether ps contains p.
func ContainsProcess(ps []ProcessID, p ProcessID) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}

// RemoveProcess returns a copy of ps with every occurrence of p removed.
func RemoveProcess(ps []ProcessID, p ProcessID) []ProcessID {
	out := make([]ProcessID, 0, len(ps))
	for _, q := range ps {
		if q != p {
			out = append(out, q)
		}
	}
	return out
}

// CopyProcesses returns a copy of ps.
func CopyProcesses(ps []ProcessID) []ProcessID {
	return append([]ProcessID(nil), ps...)
}
