package types

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestProcessIDString(t *testing.T) {
	p := ProcessID{Site: 3, Incarnation: 1, Index: 7}
	if got, want := p.String(), "p3.1:7"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if !NilProcess.IsNil() {
		t.Error("NilProcess.IsNil() = false, want true")
	}
	if p.IsNil() {
		t.Error("non-zero ProcessID reported nil")
	}
}

func TestProcessIDLessIsStrictTotalOrder(t *testing.T) {
	ps := []ProcessID{
		{Site: 1, Incarnation: 0, Index: 0},
		{Site: 1, Incarnation: 0, Index: 1},
		{Site: 1, Incarnation: 2, Index: 0},
		{Site: 2, Incarnation: 0, Index: 0},
	}
	for i := range ps {
		if ps[i].Less(ps[i]) {
			t.Errorf("%v.Less(itself) = true", ps[i])
		}
		for j := range ps {
			if i < j && !ps[i].Less(ps[j]) {
				t.Errorf("expected %v < %v", ps[i], ps[j])
			}
			if i > j && ps[i].Less(ps[j]) {
				t.Errorf("did not expect %v < %v", ps[i], ps[j])
			}
		}
	}
}

func TestProcessIDLessAntisymmetric(t *testing.T) {
	f := func(a, b ProcessID) bool {
		if a == b {
			return !a.Less(b) && !b.Less(a)
		}
		return a.Less(b) != b.Less(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGroupIDStringAndKey(t *testing.T) {
	flat := FlatGroup("quotes")
	if got := flat.String(); got != "quotes" {
		t.Errorf("flat String() = %q", got)
	}
	leaf := LeafGroup("quotes", 0, 2)
	if got := leaf.String(); got != "quotes[leaf:0.2]" {
		t.Errorf("leaf String() = %q", got)
	}
	if leaf.Key() == flat.Key() {
		t.Error("distinct groups share a Key")
	}
	branch := BranchGroup("quotes")
	leader := LeaderGroup("quotes")
	if branch.Key() == leader.Key() {
		t.Error("branch and leader of the same path share a Key")
	}
}

// fmtGroupKey is the fmt-based rendering String() and Key() used before they
// were rebuilt on strconv. WAL file names and chaos history keys are made of
// these strings, so the output must stay byte-identical.
func fmtGroupKey(g GroupID) string {
	if g.Kind == KindFlat && len(g.Path) == 0 {
		return g.Name
	}
	parts := make([]string, len(g.Path))
	for i, p := range g.Path {
		parts[i] = fmt.Sprintf("%d", p)
	}
	return fmt.Sprintf("%s[%s:%s]", g.Name, g.Kind, strings.Join(parts, "."))
}

func TestGroupIDKeyMatchesFmtRendering(t *testing.T) {
	long := strings.Repeat("n", 100) // outgrows the stack buffer
	paths := [][]uint32{nil, {0}, {7}, {0, 2}, {1, 0, 4294967295, 10}, {9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}}
	for _, name := range []string{"", "quotes", "chaos-svc", "a[b:c]", long} {
		for kind := KindFlat; kind <= KindLeader+1; kind++ {
			for _, path := range paths {
				g := GroupID{Name: name, Kind: kind, Path: path}
				want := fmtGroupKey(g)
				if got := g.String(); got != want {
					t.Errorf("String() = %q, want %q", got, want)
				}
				if got := g.Key(); got != want {
					t.Errorf("Key() = %q, want %q", got, want)
				}
				if got := string(g.AppendKey([]byte("x"))); got != "x"+want {
					t.Errorf("AppendKey = %q, want %q", got, "x"+want)
				}
			}
		}
	}
	for _, g := range []GroupID{FlatGroup("q"), LeafGroup("q", 0, 2), BranchGroup("q"), BranchGroup("q", 3), LeaderGroup("q"), LeaderGroup("q", 1, 1)} {
		if got, want := g.Key(), fmtGroupKey(g); got != want {
			t.Errorf("Key() = %q, want %q", got, want)
		}
	}
}

func TestGroupIDKeyAllocations(t *testing.T) {
	leaf := LeafGroup("quotes", 0, 2)
	if n := testing.AllocsPerRun(100, func() { _ = leaf.Key() }); n > 1 {
		t.Errorf("leaf Key() allocates %v times, want at most 1", n)
	}
	table := map[string]int{leaf.Key(): 1}
	if n := testing.AllocsPerRun(100, func() {
		var buf [64]byte
		if table[string(leaf.AppendKey(buf[:0]))] != 1 {
			t.Fatal("AppendKey lookup missed")
		}
	}); n != 0 {
		t.Errorf("AppendKey lookup allocates %v times, want 0", n)
	}
}

func TestGroupIDEqual(t *testing.T) {
	a := LeafGroup("g", 1, 2)
	b := LeafGroup("g", 1, 2)
	c := LeafGroup("g", 1, 3)
	d := BranchGroup("g", 1, 2)
	if !a.Equal(b) {
		t.Error("identical leaf ids not Equal")
	}
	if a.Equal(c) {
		t.Error("different paths reported Equal")
	}
	if a.Equal(d) {
		t.Error("different kinds reported Equal")
	}
}

func TestGroupIDChildParent(t *testing.T) {
	root := BranchGroup("svc")
	child := root.Child(KindLeaf, 3)
	if got := child.String(); got != "svc[leaf:3]" {
		t.Errorf("child = %q", got)
	}
	parent, ok := child.Parent()
	if !ok {
		t.Fatal("child.Parent() reported no parent")
	}
	if !parent.Equal(root) {
		t.Errorf("parent = %v, want %v", parent, root)
	}
	if _, ok := root.Parent(); ok {
		t.Error("root branch reported a parent")
	}
	if _, ok := FlatGroup("x").Parent(); ok {
		t.Error("flat group reported a parent")
	}
	if child.Depth() != 1 || root.Depth() != 0 {
		t.Errorf("depths = %d, %d; want 1, 0", child.Depth(), root.Depth())
	}
}

func TestGroupIDChildDoesNotAliasParentPath(t *testing.T) {
	root := BranchGroup("svc", 1)
	a := root.Child(KindBranch, 0)
	_ = root.Child(KindBranch, 9)
	if a.Path[len(a.Path)-1] != 0 {
		t.Errorf("sibling creation mutated earlier child path: %v", a.Path)
	}
}

func TestProcessSliceHelpers(t *testing.T) {
	a := ProcessID{Site: 1}
	b := ProcessID{Site: 2}
	c := ProcessID{Site: 3}
	ps := []ProcessID{c, a, b}
	SortProcesses(ps)
	if ps[0] != a || ps[1] != b || ps[2] != c {
		t.Errorf("SortProcesses = %v", ps)
	}
	if !ContainsProcess(ps, b) {
		t.Error("ContainsProcess missed an element")
	}
	if ContainsProcess(ps, ProcessID{Site: 9}) {
		t.Error("ContainsProcess found a missing element")
	}
	removed := RemoveProcess(ps, b)
	if len(removed) != 2 || ContainsProcess(removed, b) {
		t.Errorf("RemoveProcess = %v", removed)
	}
	if len(ps) != 3 {
		t.Error("RemoveProcess mutated its input")
	}
	cp := CopyProcesses(ps)
	cp[0] = ProcessID{Site: 99}
	if ps[0] == cp[0] {
		t.Error("CopyProcesses returned an aliased slice")
	}
}

func TestMessageCloneIsDeep(t *testing.T) {
	m := &Message{
		Kind:     KindCast,
		From:     ProcessID{Site: 1},
		Group:    LeafGroup("g", 4),
		VT:       []uint64{1, 2, 3},
		Path:     []uint32{7},
		Payload:  []byte("hello"),
		Ordering: Causal,
	}
	c := m.Clone()
	c.VT[0] = 99
	c.Payload[0] = 'X'
	c.Path[0] = 9
	c.Group.Path[0] = 8
	if m.VT[0] != 1 || m.Payload[0] != 'h' || m.Path[0] != 7 || m.Group.Path[0] != 4 {
		t.Errorf("Clone aliased underlying slices: %+v", m)
	}
}

func TestMessageWireSizeGrowsWithPayload(t *testing.T) {
	small := &Message{Kind: KindCast, Payload: []byte("x")}
	big := &Message{Kind: KindCast, Payload: make([]byte, 1024)}
	if small.WireSize() >= big.WireSize() {
		t.Errorf("WireSize small=%d big=%d", small.WireSize(), big.WireSize())
	}
	withVT := &Message{Kind: KindCast, VT: make([]uint64, 100)}
	if withVT.WireSize() <= small.WireSize() {
		t.Error("WireSize does not account for vector timestamps")
	}
}

func TestKindAndOrderingStrings(t *testing.T) {
	if KindCast.String() != "cast" {
		t.Errorf("KindCast.String() = %q", KindCast.String())
	}
	if Kind(9999).String() == "" {
		t.Error("unknown Kind produced empty string")
	}
	cases := map[Ordering]string{FIFO: "fbcast", Causal: "cbcast", Total: "abcast", Unordered: "unordered"}
	for o, want := range cases {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), want)
		}
	}
	if GroupKind(42).String() == "" || Ordering(42).String() == "" {
		t.Error("unknown enum produced empty string")
	}
}

// retiredKinds are the numbers message.go keeps as _ placeholders.
var retiredKinds = map[Kind]bool{4: true, 17: true, 18: true, 19: true, 20: true, 26: true}

// TestKindNumbersPinned: wal records and state snapshots store Kind
// numerically on disk, so a surviving kind must never be renumbered.
func TestKindNumbersPinned(t *testing.T) {
	pinned := map[Kind]uint16{
		KindInvalid: 0, KindRequest: 1, KindReply: 2, KindCast: 3, KindOrder: 5,
		KindHeartbeat: 6, KindHeartbeatAck: 7,
		KindJoinRequest: 8, KindLeaveRequest: 9, KindViewPropose: 10, KindViewFlushAck: 11,
		KindViewInstall: 12, KindStateTransfer: 13,
		KindHJoinRequest: 14, KindHJoinRedirect: 15, KindHLeafReport: 16,
		KindHRoute: 21, KindHRouteReply: 22, KindTreeCast: 23, KindTreeCastAck: 24,
		KindNameLookup: 25, KindNameRegister: 27,
		KindLockRequest: 28, KindLockGrant: 29, KindLockRelease: 30,
		KindTxnPrepare: 31, KindTxnVote: 32, KindTxnDecision: 33,
		KindTaskAssign: 34, KindTaskResult: 35,
		KindNak: 36, KindNakOrder: 37, KindStability: 38, KindViewNak: 39,
		KindTreeCastNak: 40, KindTreeCastRepair: 41, KindHLeaderInvite: 42, KindHLeaderUpdate: 43,
		KindStateOffer: 44, KindStateChunk: 45, KindStateNak: 46,
	}
	for k, want := range pinned {
		if uint16(k) != want {
			t.Errorf("%s = %d, want %d", k, uint16(k), want)
		}
	}
	if len(pinned)+len(retiredKinds) != int(kindEnd) {
		t.Errorf("%d pinned + %d retired kinds, but %d are declared: pin the new kind here", len(pinned), len(retiredKinds), kindEnd)
	}
}

// TestEveryDeclaredKindIsNamed fails when a kind is added without a name.
func TestEveryDeclaredKindIsNamed(t *testing.T) {
	for k := KindInvalid; k < kindEnd; k++ {
		unnamed := strings.HasPrefix(k.String(), "kind(")
		if unnamed != retiredKinds[k] {
			t.Errorf("Kind(%d).String() = %q, retired = %t", uint16(k), k.String(), retiredKinds[k])
		}
	}
}

func TestKindStringDoesNotAllocate(t *testing.T) {
	var sink string
	if n := testing.AllocsPerRun(100, func() {
		for k := KindInvalid; k < kindEnd; k++ {
			if !retiredKinds[k] {
				sink = k.String()
			}
		}
	}); n != 0 {
		t.Errorf("Kind.String() allocates %.1f times per pass over the declared kinds", n)
	}
	_ = sink
}

func TestEncodeDecodeHelpers(t *testing.T) {
	b := EncodeUint64(nil, 42)
	b = EncodeString(b, "hello")
	b = EncodeUint64(b, 7)

	v, rest, ok := DecodeUint64(b)
	if !ok || v != 42 {
		t.Fatalf("DecodeUint64 = %d, %v", v, ok)
	}
	s, rest, ok := DecodeString(rest)
	if !ok || s != "hello" {
		t.Fatalf("DecodeString = %q, %v", s, ok)
	}
	v2, rest, ok := DecodeUint64(rest)
	if !ok || v2 != 7 || len(rest) != 0 {
		t.Fatalf("trailing DecodeUint64 = %d, rest=%d, %v", v2, len(rest), ok)
	}

	if _, _, ok := DecodeUint64([]byte{1, 2}); ok {
		t.Error("DecodeUint64 accepted a short buffer")
	}
	if _, _, ok := DecodeString(EncodeUint64(nil, 100)); ok {
		t.Error("DecodeString accepted a truncated string")
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	f := func(v uint64, s string) bool {
		b := EncodeString(EncodeUint64(nil, v), s)
		got, rest, ok := DecodeUint64(b)
		if !ok || got != v {
			return false
		}
		gs, rest, ok := DecodeString(rest)
		return ok && gs == s && len(rest) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
