package core

import (
	"math"
	"time"

	"repro/internal/group"
	"repro/internal/treecast"
	"repro/internal/types"
)

// Config parameterises one large group, following the paper's three
// quantities: size is whatever the group grows to, fanout bounds how many
// destinations any process communicates with directly, and resiliency is the
// number of members that must hold critical state / acknowledge an
// operation.
type Config struct {
	// Fanout bounds direct communication (leaf size target and branch
	// arity). Default 8.
	Fanout int
	// Resiliency is the number of replicas/acknowledgements required for an
	// operation to be considered safe. Default 3.
	Resiliency int
	// MinLeafSize is the size below which a leaf is merged into a sibling.
	// Default max(Resiliency, 2).
	MinLeafSize int
	// MaxLeafSize is the size above which a leaf is split. Default Fanout.
	MaxLeafSize int
	// LeaderSize is the target size of the resilient leader group.
	// Default Resiliency.
	LeaderSize int

	// Ordering is the delivery order used for intra-leaf multicasts issued
	// by the hierarchy (cohort copies of requests and their results,
	// broadcast delivery). Default FIFO, matching the coordinator-cohort tool.
	Ordering types.Ordering

	// RequestHandler is the service logic run by a leaf coordinator for each
	// routed request. Required on member processes of a service that accepts
	// requests; it runs on the actor goroutine and must not block.
	RequestHandler func(payload []byte) []byte

	// OnBroadcast is invoked on every member for each whole-group
	// (tree-structured) broadcast delivered to its leaf. Runs on the actor
	// goroutine. The payload aliases the record the member buffers for
	// repairs: it is read-only, and may be retained as it is.
	OnBroadcast func(payload []byte)

	// OnLeafDeliver is invoked for application-level leaf multicasts
	// (Agent.LeafCast). Runs on the actor goroutine.
	OnLeafDeliver func(from types.ProcessID, payload []byte)

	// State is the application's durable-state hook for this service member.
	// Its snapshot rides inside each leaf checkpoint next to the hierarchy's
	// own recovery state, so a member joining or relocating between leaves
	// restores application state along with the treecast watermarks. Handlers
	// that also implement group.StateApplier get write-ahead-log-recovered
	// application leaf casts through Apply (hierarchy-internal traffic is
	// never replayed to the application).
	State group.StateHandler

	// OpTimeout bounds internal blocking operations (relocations, tree
	// broadcast acknowledgement waits). Default 5s.
	OpTimeout time.Duration

	// RecoveryInterval is the period of the per-agent hierarchy recovery
	// timer driving treecast stage retries and gap NAKs. Default 25ms.
	RecoveryInterval time.Duration
	// NakTicks is how many recovery ticks a gap in the tree-broadcast
	// sequence must persist before this member NAKs for the missing records.
	// NAKs are staggered by leaf rank, so the leaf coordinator usually
	// repairs the gap for the whole leaf before anyone else asks. Default 2.
	NakTicks int
	// StageRetryTicks is how many recovery ticks pass between re-sends of an
	// unacknowledged treecast stage (each re-send rotates to the leaf's next
	// contact, which is what recovers from a black-holed representative).
	// Default 4.
	StageRetryTicks int
	// StageRetries caps how many times a forwarder re-sends one stage before
	// giving the subtree up (it still acknowledges partial coverage upward,
	// and the NAK path keeps repairing members that come back). -1 disables
	// stage retries entirely — directed tests use it to isolate the NAK
	// path. Default 3.
	StageRetries int
}

func (c Config) withDefaults() Config {
	if c.Fanout <= 1 {
		c.Fanout = 8
	}
	if c.Resiliency <= 0 {
		c.Resiliency = 3
	}
	if c.Resiliency > c.Fanout {
		c.Resiliency = c.Fanout
	}
	if c.MinLeafSize <= 0 {
		c.MinLeafSize = c.Resiliency
		if c.MinLeafSize < 2 {
			c.MinLeafSize = 2
		}
	}
	if c.MaxLeafSize <= 0 {
		c.MaxLeafSize = c.Fanout
	}
	if c.MaxLeafSize < c.MinLeafSize {
		c.MaxLeafSize = c.MinLeafSize
	}
	if c.LeaderSize <= 0 {
		c.LeaderSize = c.Resiliency
	}
	if c.Ordering == types.Unordered {
		// The zero value would deliver leaf casts in arrival order, which
		// breaks the per-sender FIFO prefix the hierarchy's consumers (and
		// the chaos checkers) rely on under reordering faults.
		c.Ordering = types.FIFO
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 5 * time.Second
	}
	if c.RecoveryInterval <= 0 {
		c.RecoveryInterval = 25 * time.Millisecond
	}
	if c.NakTicks <= 0 {
		c.NakTicks = 2
	}
	if c.StageRetryTicks <= 0 {
		c.StageRetryTicks = 4
	}
	if c.StageRetries == 0 {
		c.StageRetries = 3
	}
	return c
}

// Validate reports configuration errors a caller should fix rather than
// have silently adjusted.
func (c Config) Validate() error {
	if c.Fanout != 0 && c.Resiliency > c.Fanout {
		return types.ErrBadConfig
	}
	if c.MinLeafSize != 0 && c.MaxLeafSize != 0 && c.MinLeafSize > c.MaxLeafSize {
		return types.ErrBadConfig
	}
	return nil
}

// --- leaf-cast envelope --------------------------------------------------------
//
// The hierarchy multiplexes several uses onto ordinary leaf-group
// multicasts. A one-byte tag plus a correlation id distinguishes them. The
// leader group's tree inputs ride the same envelope. Tag values are stored in
// write-ahead logs (leafState.Apply, leaderState.Apply replay them), so a
// retired value is never reused.

type leafCastTag byte

const (
	_               leafCastTag = 1 + iota // retired
	_                                      // retired
	tagBroadcast                           // whole-group tree broadcast record
	tagAppCast                             // application-level leaf multicast
	tagLeaderUpdate                        // refreshed leader contacts relayed leaf-wide
	tagPlace                               // leader group: a joiner to place
	tagReport                              // leader group: a leaf report to apply
	tagCohort                              // coordinator-cohort copy: a request and its result
)

// leafCastHeader is the envelope's size before its payload: the tag and the
// correlation id.
const leafCastHeader = 1 + 8

func encodeLeafCast(tag leafCastTag, corr uint64, payload []byte) []byte {
	b := make([]byte, 0, leafCastHeader+len(payload))
	b = append(b, byte(tag))
	b = types.EncodeUint64(b, corr)
	return append(b, payload...)
}

func decodeLeafCast(b []byte) (tag leafCastTag, corr uint64, payload []byte, ok bool) {
	if len(b) < 1 {
		return 0, 0, nil, false
	}
	tag = leafCastTag(b[0])
	corr, rest, ok := types.DecodeUint64(b[1:])
	if !ok {
		return 0, 0, nil, false
	}
	return tag, corr, rest, true
}

// encodeCohortCopy builds, in one allocation, the leaf cast that gives a
// leaf a record of one request coordinator-cohort style: the request's
// correlation id, the request (length-prefixed) and the result.
func encodeCohortCopy(corr uint64, request, result []byte) []byte {
	b := make([]byte, 0, leafCastHeader+8+len(request)+len(result))
	b = append(b, byte(tagCohort))
	b = types.EncodeUint64(b, corr)
	b = types.EncodeUint64(b, uint64(len(request)))
	b = append(b, request...)
	return append(b, result...)
}

// decodeCohortCopy splits a tagCohort envelope's payload into the request
// and its result. Both alias payload.
func decodeCohortCopy(payload []byte) (request, result []byte, ok bool) {
	n, rest, ok := types.DecodeUint64(payload)
	if !ok || n > uint64(len(rest)) {
		return nil, nil, false
	}
	return rest[:n], rest[n:], true
}

// --- tree broadcast record ------------------------------------------------------

// record is one whole-group broadcast as tracked by the hierarchy recovery
// layer. Origin (the initiating leader coordinator) and Seq give each
// broadcast the dense per-origin numbering the reliability tracker needs for
// duplicate filtering and gap NAKs; Floor is the origin's cumulative
// stability watermark — every current leaf has acknowledged records
// 1..Floor — which lets every member prune its retransmit buffer. The
// record rides inside stage frames, inside the tagBroadcast leaf casts, and
// verbatim in KindTreeCastRepair retransmissions, so a member can dedup and
// repair no matter which path a copy arrived by.
//
// A record is encoded once: the initiator seals it (sealRecord), and
// decodeRecord keeps the bytes it decoded, so encodeRecord hands out those
// bytes instead of building new ones. The bytes are frozen: the tracker
// buffers them and every frame, leaf cast and repair copies out of them, so
// nothing writes into them. decodeRecord's input must be frozen too — a
// received stage frame or repair (the fabric copies them per receiver, TCP
// decodes into fresh storage), a group delivery (frozen) or a private copy.
type record struct {
	Origin  types.ProcessID
	Seq     uint64
	Floor   uint64
	Payload []byte
	wire    []byte // the encoding, once known; Payload aliases its tail
}

// recordHeader is a record's size before its payload: origin (site,
// incarnation, index), seq and floor.
const recordHeader = 5 * 8

func encodeRecord(r record) []byte {
	if r.wire != nil {
		return r.wire
	}
	b := make([]byte, 0, recordHeader+len(r.Payload))
	b = encodePID(b, r.Origin)
	b = types.EncodeUint64(b, r.Seq)
	b = types.EncodeUint64(b, r.Floor)
	return append(b, r.Payload...)
}

// sealRecord encodes a fresh record once; every later use of it reuses the
// bytes. Its payload then aliases the encoding, not the caller's buffer.
func sealRecord(r record) record {
	r.wire = encodeRecord(r)
	r.Payload = r.wire[recordHeader:]
	return r
}

func decodeRecord(b []byte) (record, bool) {
	var r record
	origin, rest, ok := decodePID(b)
	if !ok {
		return r, false
	}
	seq, rest, ok := types.DecodeUint64(rest)
	if !ok {
		return r, false
	}
	floor, rest, ok := types.DecodeUint64(rest)
	if !ok {
		return r, false
	}
	r.Origin, r.Seq, r.Floor, r.Payload, r.wire = origin, seq, floor, rest, b
	return r, true
}

// --- stage frame ----------------------------------------------------------------

// A stage frame's payload is the child's plan (treecast.Encode's format,
// length-prefixed) followed by the record. encodeStageFrame writes the plan
// straight into one presized buffer.

func encodeStageFrame(plan *treecast.Stage, rec record) []byte {
	wire := encodeRecord(rec)
	n := treecast.EncodedSize(plan)
	b := make([]byte, 0, 8+n+len(wire))
	b = types.EncodeUint64(b, uint64(n))
	b = treecast.AppendEncode(b, plan)
	return append(b, wire...)
}

// decodeStageFrame splits a stage frame into its plan and record.
func decodeStageFrame(b []byte) (*treecast.Stage, record, bool) {
	n, rest, ok := types.DecodeUint64(b)
	if !ok || n > uint64(len(rest)) {
		return nil, record{}, false
	}
	plan, err := treecast.Decode(rest[:n])
	if err != nil || plan == nil {
		return nil, record{}, false
	}
	rec, ok := decodeRecord(rest[n:])
	return plan, rec, ok
}

// --- placement encoding --------------------------------------------------------

// placement tells a process which leaf to join or found: the leader's answer
// to a join request and, unasked and without the leader fields, the
// directive that moves a member during a split or merge.
type placement struct {
	Create         bool // true: found a new leaf; false: join an existing one
	Leaf           types.GroupID
	Contacts       []types.ProcessID
	AlsoLeader     bool
	LeaderContacts []types.ProcessID
}

func encodePlacement(p placement) []byte {
	b := []byte{0}
	if p.Create {
		b[0] = 1
	}
	b = encodeGroupID(b, p.Leaf)
	b = encodePIDs(b, p.Contacts)
	if p.AlsoLeader {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return encodePIDs(b, p.LeaderContacts)
}

func decodePlacement(b []byte) (placement, bool) {
	var p placement
	if len(b) < 1 {
		return p, false
	}
	p.Create = b[0] == 1
	b = b[1:]
	var ok bool
	p.Leaf, b, ok = decodeGroupID(b)
	if !ok {
		return p, false
	}
	p.Contacts, b, ok = decodePIDs(b)
	if !ok {
		return p, false
	}
	if len(b) < 1 {
		return p, false
	}
	p.AlsoLeader = b[0] == 1
	b = b[1:]
	p.LeaderContacts, _, ok = decodePIDs(b)
	return p, ok
}

// --- leaf report encoding -------------------------------------------------------

// leafReport is sent by a leaf coordinator to the leader group whenever the
// leaf's view changes. Members is bounded by the leaf size, so the message
// stays small regardless of how large the whole service grows.
type leafReport struct {
	Leaf    types.GroupID
	Members []types.ProcessID
}

func encodeLeafReport(r leafReport) []byte {
	b := encodeGroupID(nil, r.Leaf)
	return encodePIDs(b, r.Members)
}

func decodeLeafReport(b []byte) (leafReport, bool) {
	var r leafReport
	var ok bool
	r.Leaf, b, ok = decodeGroupID(b)
	if !ok {
		return r, false
	}
	r.Members, _, ok = decodePIDs(b)
	return r, ok
}

// --- tree input encoding ----------------------------------------------------------

// A leader-group tree input rides the leaf-cast envelope: tagPlace or
// tagReport, the casting member's input id as the correlation, and a leaf
// report as the body. A placement names its joiner as the report's only
// member.

func decodeTreeInput(b []byte) (tag leafCastTag, id uint64, r leafReport, ok bool) {
	tag, id, body, ok := decodeLeafCast(b)
	if !ok || tag != tagPlace && tag != tagReport {
		return 0, 0, r, false
	}
	r, ok = decodeLeafReport(body)
	return tag, id, r, ok && (tag == tagReport || len(r.Members) == 1)
}

// --- shared low-level codecs ----------------------------------------------------
//
// Counts come off the wire, so every preallocation is capped at the bytes
// left: an absurd count fails on the missing bytes instead of panicking in
// make.

func encodeGroupID(b []byte, g types.GroupID) []byte {
	b = types.EncodeString(b, g.Name)
	b = types.EncodeUint64(b, uint64(g.Kind))
	return encodePath(b, g.Path)
}

func decodeGroupID(b []byte) (types.GroupID, []byte, bool) {
	name, b, ok := types.DecodeString(b)
	if !ok {
		return types.GroupID{}, b, false
	}
	kind, b, ok := types.DecodeUint64(b)
	if !ok {
		return types.GroupID{}, b, false
	}
	path, b, ok := decodePath(b)
	if !ok {
		return types.GroupID{}, b, false
	}
	return types.GroupID{Name: name, Kind: types.GroupKind(kind), Path: path}, b, true
}

func encodePath(b []byte, path []uint32) []byte {
	b = types.EncodeUint64(b, uint64(len(path)))
	for _, p := range path {
		b = types.EncodeUint64(b, uint64(p))
	}
	return b
}

func decodePath(b []byte) ([]uint32, []byte, bool) {
	n, b, ok := types.DecodeUint64(b)
	if !ok {
		return nil, b, false
	}
	path := make([]uint32, 0, min(n, uint64(len(b))))
	for i := uint64(0); i < n; i++ {
		var p uint64
		p, b, ok = types.DecodeUint64(b)
		if !ok {
			return nil, b, false
		}
		path = append(path, uint32(p))
	}
	return path, b, true
}

func encodePID(b []byte, p types.ProcessID) []byte {
	b = types.EncodeUint64(b, uint64(p.Site))
	b = types.EncodeUint64(b, uint64(p.Incarnation))
	return types.EncodeUint64(b, uint64(p.Index))
}

// decodePID rejects a field wider than its 32 bits: a truncated one would
// name another process than its bytes, and a decoded record hands its bytes
// on as they arrived (decodeRecord).
func decodePID(b []byte) (types.ProcessID, []byte, bool) {
	site, b, ok := types.DecodeUint64(b)
	if !ok || site > math.MaxUint32 {
		return types.ProcessID{}, b, false
	}
	inc, b, ok := types.DecodeUint64(b)
	if !ok || inc > math.MaxUint32 {
		return types.ProcessID{}, b, false
	}
	idx, b, ok := types.DecodeUint64(b)
	if !ok || idx > math.MaxUint32 {
		return types.ProcessID{}, b, false
	}
	return types.ProcessID{Site: types.SiteID(site), Incarnation: uint32(inc), Index: uint32(idx)}, b, true
}

func encodePIDs(b []byte, ps []types.ProcessID) []byte {
	b = types.EncodeUint64(b, uint64(len(ps)))
	for _, p := range ps {
		b = encodePID(b, p)
	}
	return b
}

func decodePIDs(b []byte) ([]types.ProcessID, []byte, bool) {
	n, b, ok := types.DecodeUint64(b)
	if !ok {
		return nil, b, false
	}
	out := make([]types.ProcessID, 0, min(n, uint64(len(b))))
	for i := uint64(0); i < n; i++ {
		var p types.ProcessID
		p, b, ok = decodePID(b)
		if !ok {
			return nil, b, false
		}
		out = append(out, p)
	}
	return out, b, true
}
