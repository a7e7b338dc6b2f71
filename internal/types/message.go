package types

import (
	"encoding/binary"
	"fmt"
)

// Kind enumerates the protocol-level message kinds exchanged between
// processes. Application payloads ride inside Request/Reply/Cast messages;
// everything else is internal to the membership, ordering, failure-detection
// and hierarchy protocols.
type Kind uint16

// Retired kinds keep their numbers as _ placeholders: wal records and
// KindStateTransfer snapshots store Kind numerically on disk.
const (
	KindInvalid Kind = iota

	// Point-to-point application traffic.
	KindRequest // RPC request expecting a KindReply
	KindReply   // RPC reply

	// Group multicast data path.
	KindCast  // ordered multicast payload (FIFO/causal/total per header)
	_         // 4: retired (per-cast acknowledgement)
	KindOrder // sequencer order announcement for ABCAST

	// Failure detection.
	KindHeartbeat
	KindHeartbeatAck

	// Group membership (GBCAST-style flush protocol).
	KindJoinRequest
	KindLeaveRequest
	KindViewPropose
	KindViewFlushAck
	KindViewInstall
	KindStateTransfer

	// Hierarchical group management.
	KindHJoinRequest  // ask the leader group to place a process in a leaf
	KindHJoinRedirect // leader's placement decision
	KindHLeafReport   // leaf -> leader status report (size, load)
	_                 // 17: retired (leaf-failed escalation)
	_                 // 18: retired (split instruction)
	_                 // 19: retired (merge instruction)
	_                 // 20: retired (branch view update)
	KindHRoute        // client request routed through the hierarchy
	KindHRouteReply   // reply to a routed request
	KindTreeCast      // tree-structured whole-group broadcast stage
	KindTreeCastAck   // aggregated acknowledgement travelling back up
	KindNameLookup    // naming service query
	_                 // 26: retired (naming service response)
	KindNameRegister  // naming service registration

	// Toolkit protocols.
	KindLockRequest
	KindLockGrant
	KindLockRelease
	KindTxnPrepare
	KindTxnVote
	KindTxnDecision
	KindTaskAssign
	KindTaskResult

	// Reliability layer (message stability, NAK/retransmit, recovery).
	KindNak       // receiver asks a holder to retransmit missing casts
	KindNakOrder  // ABCAST member asks for order announcements it is missing
	KindStability // stability report (per-sender receive watermarks): the cumulative acknowledgement
	KindViewNak   // wedged member asks for a view install it never received

	// Hierarchy recovery (treecast stability, NAK/retransmit across leaves).
	KindTreeCastNak    // leaf member asks a holder for missing tree broadcasts
	KindTreeCastRepair // retransmitted tree-broadcast record answering a NAK
	KindHLeaderInvite  // leader coordinator recruits a member into the leader group
	KindHLeaderUpdate  // leader coordinator pushes fresh leader contacts to the leaves

	// Durable state: streaming view-consistent checkpoint transfer.
	KindStateOffer // holder announces a checkpoint for a view (size, chunking, digest)
	KindStateChunk // one checkpoint chunk (Seq carries the chunk index)
	KindStateNak   // joiner asks a holder for missing chunks or a fresh offer

	kindEnd // one past the last declared kind
)

// kindNames is indexed by Kind; retired numbers stay empty.
var kindNames = [kindEnd]string{
	KindInvalid: "invalid", KindRequest: "request", KindReply: "reply",
	KindCast: "cast", KindOrder: "order",
	KindHeartbeat: "heartbeat", KindHeartbeatAck: "heartbeat-ack",
	KindJoinRequest: "join", KindLeaveRequest: "leave",
	KindViewPropose: "view-propose", KindViewFlushAck: "view-flush-ack",
	KindViewInstall: "view-install", KindStateTransfer: "state-transfer",
	KindHJoinRequest: "hjoin", KindHJoinRedirect: "hjoin-redirect",
	KindHLeafReport: "hleaf-report",
	KindHRoute:      "hroute", KindHRouteReply: "hroute-reply",
	KindTreeCast: "treecast", KindTreeCastAck: "treecast-ack",
	KindNameLookup: "name-lookup", KindNameRegister: "name-register",
	KindLockRequest: "lock-request", KindLockGrant: "lock-grant", KindLockRelease: "lock-release",
	KindTxnPrepare: "txn-prepare", KindTxnVote: "txn-vote", KindTxnDecision: "txn-decision",
	KindTaskAssign: "task-assign", KindTaskResult: "task-result",
	KindNak: "nak", KindNakOrder: "nak-order", KindStability: "stability",
	KindViewNak:     "view-nak",
	KindTreeCastNak: "treecast-nak", KindTreeCastRepair: "treecast-repair",
	KindHLeaderInvite: "hleader-invite", KindHLeaderUpdate: "hleader-update",
	KindStateOffer: "state-offer", KindStateChunk: "state-chunk", KindStateNak: "state-nak",
}

// String returns the symbolic name of the kind for logs and tests.
func (k Kind) String() string {
	if k < kindEnd && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint16(k))
}

// Ordering selects the delivery-order guarantee requested for a multicast,
// matching the ISIS broadcast primitives.
type Ordering uint8

const (
	// Unordered delivers as messages arrive (no holdback).
	Unordered Ordering = iota
	// FIFO (FBCAST) delivers messages from each sender in send order.
	FIFO
	// Causal (CBCAST) delivers respecting potential causality.
	Causal
	// Total (ABCAST) delivers in a single agreed order at all members.
	Total
)

// String returns the ISIS primitive name for the ordering.
func (o Ordering) String() string {
	switch o {
	case Unordered:
		return "unordered"
	case FIFO:
		return "fbcast"
	case Causal:
		return "cbcast"
	case Total:
		return "abcast"
	default:
		return fmt.Sprintf("ordering(%d)", uint8(o))
	}
}

// Message is the envelope carried by every transport. One struct is shared
// by all protocols; unused fields are left at their zero values. Keeping a
// single concrete type (rather than per-protocol structs) keeps the
// transports and the fabric's accounting simple and lets the whole envelope
// be sized for the storage experiments.
type Message struct {
	// Kind says which protocol handler should process the message.
	Kind Kind

	// From and To are the sending and receiving processes. To is the
	// concrete destination of this copy of the message even when the message
	// logically addresses a group. A frozen multicast shared by every
	// receiver of the memory transport (see Stamp) leaves To unset.
	From ProcessID
	To   ProcessID

	// Group is the group the message concerns, when any.
	Group GroupID
	// View is the view of Group in which the sender initiated the message.
	View ViewID

	// ID is the multicast identity (sender + per-group sequence) for
	// KindCast messages and anything else that needs per-sender sequencing.
	ID MsgID
	// Ordering is the delivery guarantee requested for KindCast.
	Ordering Ordering
	// Seq is the agreed total-order sequence number (ABCAST order
	// announcements and sequenced casts).
	Seq uint64
	// VT is the sender's vector timestamp for causal delivery. Indexed by
	// member rank in the sending view.
	VT []uint64

	// Corr correlates requests with replies (RPC) and protocol rounds with
	// their acknowledgements. It is unique per originating process.
	Corr uint64
	// ReplyTo is the process a reply should be sent to when it differs from
	// From (for example when a coordinator answers on behalf of a group).
	ReplyTo ProcessID

	// Hop counts forwarding stages (tree broadcast, hierarchical routing).
	Hop uint8
	// TTL bounds forwarding to protect against routing loops.
	TTL uint8

	// Path carries a subgroup path for hierarchy management messages.
	Path []uint32

	// Payload is the opaque application or protocol body.
	Payload []byte

	// Stab piggybacks the sender's per-sender contiguous receive watermarks
	// for Group/View on outgoing casts and acks. Receivers aggregate the
	// reports of every member into a stability watermark (the minimum): a
	// cast below it is held by every member and can be dropped from
	// retransmit buffers and duplicate-suppression state. Absent (nil) on
	// messages that carry no report.
	Stab []StabEntry
	// StabOrd is the sender's delivered ABCAST prefix plus one (so zero
	// means "no report"), piggybacked with Stab. The minimum across members
	// bounds the total-order engine's delivered bookkeeping.
	StabOrd uint64

	// Err carries an error string on negative replies.
	Err string

	// frozen links a per-destination envelope back to the frozen message
	// it was stamped from (see Stamp); nil on every other envelope.
	frozen *Message
}

// StabEntry is one per-sender receive watermark inside a stability report:
// the reporting process has contiguously received Sender's casts 1..Seq in
// the current view.
type StabEntry struct {
	Sender ProcessID
	Seq    uint64
}

// SeqBinding is one ABCAST order binding: the agreed slot Seq is occupied by
// the cast identified by ID. Flush acknowledgements and sequencer-failover
// re-announcements carry lists of these.
type SeqBinding struct {
	Seq uint64
	ID  MsgID
}

// WireSize returns an estimate of the encoded size of the message in bytes.
// The fabric uses it for byte accounting and the storage experiment (E6)
// uses the same arithmetic for view sizes, so flat and hierarchical stacks
// are charged identically.
func (m *Message) WireSize() int {
	const fixed = 2 + // kind
		12 + 12 + // from, to
		8 + // view
		12 + 8 + // msg id
		1 + // ordering
		8 + // seq
		8 + // corr
		12 + // reply-to
		1 + 1 // hop, ttl
	n := fixed
	n += len(m.Group.Name) + 1 + 4*len(m.Group.Path)
	n += 8 * len(m.VT)
	n += 4 * len(m.Path)
	n += len(m.Payload)
	n += 20 * len(m.Stab) // per entry: ProcessID (12) + watermark (8)
	n += 8                // StabOrd
	n += len(m.Err)
	return n
}

// Clone returns a deep copy of the message: a private envelope and private
// arrays, linked to no frozen message.
func (m *Message) Clone() *Message {
	c := *m
	c.frozen = nil
	c.CopyArrays()
	return &c
}

// Stamp copies m into env, addressed to to, and links env back to m. The
// node outbox stamps every destination's envelope of a message it holds
// this way: such a message is frozen — no field and no array of it changes
// again, for the sender or for anyone it reaches — so a transport that
// delivers in memory may hand every receiver m itself (see Frozen).
func (m *Message) Stamp(env *Message, to ProcessID) {
	*env = *m
	env.To = to
	env.frozen = m
}

// Frozen returns the frozen message m was stamped from, or nil when m is
// not a stamped envelope.
func (m *Message) Frozen() *Message { return m.frozen }

// CopyArrays replaces every array the message carries (VT, Path, Payload,
// Stab, Group.Path) with a private copy, leaving the scalars alone. The
// memory transport calls it on the envelope it delivers for every kind
// whose arrays the sender may still own (Request and Reply payloads can be
// an application's buffer).
func (m *Message) CopyArrays() {
	if m.VT != nil {
		m.VT = append([]uint64(nil), m.VT...)
	}
	if m.Path != nil {
		m.Path = append([]uint32(nil), m.Path...)
	}
	if m.Payload != nil {
		m.Payload = append([]byte(nil), m.Payload...)
	}
	if m.Stab != nil {
		m.Stab = append([]StabEntry(nil), m.Stab...)
	}
	if m.Group.Path != nil {
		m.Group.Path = append([]uint32(nil), m.Group.Path...)
	}
}

// String renders a compact description of the message for logs.
func (m *Message) String() string {
	return fmt.Sprintf("%s %s->%s group=%s view=%d id=%s corr=%d len=%d",
		m.Kind, m.From, m.To, m.Group, m.View, m.ID, m.Corr, len(m.Payload))
}

// EncodeUint64 appends v to b in big-endian order. Small helper shared by
// payload encoders across packages so they do not each pull in
// encoding/binary boilerplate.
func EncodeUint64(b []byte, v uint64) []byte {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], v)
	return append(b, tmp[:]...)
}

// DecodeUint64 reads a big-endian uint64 from the front of b, returning the
// value and the remaining bytes. It returns ok=false when b is too short.
func DecodeUint64(b []byte) (v uint64, rest []byte, ok bool) {
	if len(b) < 8 {
		return 0, b, false
	}
	return binary.BigEndian.Uint64(b[:8]), b[8:], true
}

// EncodeString appends a length-prefixed string to b.
func EncodeString(b []byte, s string) []byte {
	b = EncodeUint64(b, uint64(len(s)))
	return append(b, s...)
}

// DecodeString reads a length-prefixed string from the front of b.
func DecodeString(b []byte) (s string, rest []byte, ok bool) {
	n, rest, ok := DecodeUint64(b)
	if !ok || uint64(len(rest)) < n {
		return "", b, false
	}
	return string(rest[:n]), rest[n:], true
}
