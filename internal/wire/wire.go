// Package wire is the hand-rolled binary codec for transport frames: the
// encoding the TCP transport puts on the wire.
//
// A reflective, self-describing encoding is expensive in exactly the way the
// hot path cannot afford: every frame re-transmits type metadata, every
// encode walks the struct reflectively, and every decode allocates. The wire
// codec instead fixes the layout at compile time — a fixed-width per-message
// header for the fields every message carries, varint-length-prefixed
// sections for the optional ones — so encoding is a straight append into a
// caller-owned buffer (zero allocations steady-state) and decoding is a
// bounds-checked linear scan that can reuse a Decoder's buffers frame over
// frame.
//
// # Frame layout
//
//	version  u8   — FormatVersion; decoders reject anything else
//	flags    u8   — bit 0: hello section present
//	[hello]       — ProcessID (12 bytes) + uvarint addr length + addr bytes
//	count    uvarint
//	count × message
//
// # Message layout
//
//	kind     u16 big-endian
//	flags    u8   — presence bits, see msgFlag* below
//	from     ProcessID (3 × u32 big-endian: site, incarnation, index)
//	to       ProcessID
//	id       ProcessID + uvarint seq
//	ordering u8
//	hop,ttl  u8 + u8
//	view     uvarint
//	seq      uvarint
//	corr     uvarint
//	stabOrd  uvarint
//	[group]    u8 kind + uvarint name length + name + uvarint path count + uvarint × count
//	[replyTo]  ProcessID
//	[vt]       uvarint count + uvarint × count
//	[path]     uvarint count + uvarint × count
//	[payload]  uvarint length + bytes
//	[stab]     uvarint count + count × (ProcessID + uvarint)
//	[err]      uvarint length + bytes
//
// Empty optional sections are encoded as an unset presence bit and decode
// to nil/zero values; the codec does not distinguish nil from empty slices
// (neither does any protocol layer).
//
// The frame's 4-byte big-endian length prefix is written by the transport,
// not by this package, so the codec can also be used on frames that arrive
// fully delimited (tests, fuzzing, the simulated substrate's conformance
// suite).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/types"
)

// FormatVersion is the frame format version emitted by AppendFrame and the
// only version Decode accepts.
const FormatVersion = 1

// MaxFrameBytes bounds the encoded payload length of one frame so a corrupt
// or hostile header can never force an arbitrarily large allocation.
const MaxFrameBytes = 64 << 20

// Frame is one decoded transmission unit: a batch of messages plus the
// optional hello metadata the TCP transport uses for return-route discovery.
type Frame struct {
	Msgs      []*types.Message
	HelloFrom types.ProcessID
	HelloAddr string
}

// Frame flags.
const frameFlagHello = 1 << 0

// Per-message presence bits.
const (
	msgFlagGroup = 1 << iota
	msgFlagReplyTo
	msgFlagVT
	msgFlagPath
	msgFlagPayload
	msgFlagStab
	msgFlagErr
)

// ErrTruncated reports a frame that ends mid-field.
var ErrTruncated = errors.New("wire: truncated frame")

// ErrMalformed reports a structurally invalid frame (bad version, a length
// that exceeds the remaining bytes, a varint overflow).
var ErrMalformed = errors.New("wire: malformed frame")

// ErrFrameTooLarge reports an encoded frame exceeding MaxFrameBytes.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// --- encoding -----------------------------------------------------------------

// AppendFrame appends the encoded frame (without any length prefix) to dst
// and returns the extended slice. helloAddr == "" omits the hello section.
// Encoding never fails: every Message field combination is representable.
func AppendFrame(dst []byte, msgs []*types.Message, helloFrom types.ProcessID, helloAddr string) []byte {
	flags := byte(0)
	if helloAddr != "" || !helloFrom.IsNil() {
		flags |= frameFlagHello
	}
	dst = append(dst, FormatVersion, flags)
	if flags&frameFlagHello != 0 {
		dst = appendPID(dst, helloFrom)
		dst = binary.AppendUvarint(dst, uint64(len(helloAddr)))
		dst = append(dst, helloAddr...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(msgs)))
	for _, m := range msgs {
		dst = AppendMessage(dst, m)
	}
	return dst
}

// AppendMessage appends the encoding of one message to dst.
func AppendMessage(dst []byte, m *types.Message) []byte {
	flags := byte(0)
	hasGroup := m.Group.Name != "" || m.Group.Kind != 0 || len(m.Group.Path) > 0
	if hasGroup {
		flags |= msgFlagGroup
	}
	if !m.ReplyTo.IsNil() {
		flags |= msgFlagReplyTo
	}
	if len(m.VT) > 0 {
		flags |= msgFlagVT
	}
	if len(m.Path) > 0 {
		flags |= msgFlagPath
	}
	if len(m.Payload) > 0 {
		flags |= msgFlagPayload
	}
	if len(m.Stab) > 0 {
		flags |= msgFlagStab
	}
	if m.Err != "" {
		flags |= msgFlagErr
	}

	dst = append(dst, byte(m.Kind>>8), byte(m.Kind), flags)
	dst = appendPID(dst, m.From)
	dst = appendPID(dst, m.To)
	dst = appendPID(dst, m.ID.Sender)
	dst = binary.AppendUvarint(dst, m.ID.Seq)
	dst = append(dst, byte(m.Ordering), m.Hop, m.TTL)
	dst = binary.AppendUvarint(dst, uint64(m.View))
	dst = binary.AppendUvarint(dst, m.Seq)
	dst = binary.AppendUvarint(dst, m.Corr)
	dst = binary.AppendUvarint(dst, m.StabOrd)

	if hasGroup {
		dst = append(dst, byte(m.Group.Kind))
		dst = binary.AppendUvarint(dst, uint64(len(m.Group.Name)))
		dst = append(dst, m.Group.Name...)
		dst = binary.AppendUvarint(dst, uint64(len(m.Group.Path)))
		for _, p := range m.Group.Path {
			dst = binary.AppendUvarint(dst, uint64(p))
		}
	}
	if flags&msgFlagReplyTo != 0 {
		dst = appendPID(dst, m.ReplyTo)
	}
	if flags&msgFlagVT != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(m.VT)))
		for _, v := range m.VT {
			dst = binary.AppendUvarint(dst, v)
		}
	}
	if flags&msgFlagPath != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(m.Path)))
		for _, p := range m.Path {
			dst = binary.AppendUvarint(dst, uint64(p))
		}
	}
	if flags&msgFlagPayload != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(m.Payload)))
		dst = append(dst, m.Payload...)
	}
	if flags&msgFlagStab != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(m.Stab)))
		for _, e := range m.Stab {
			dst = appendPID(dst, e.Sender)
			dst = binary.AppendUvarint(dst, e.Seq)
		}
	}
	if flags&msgFlagErr != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(m.Err)))
		dst = append(dst, m.Err...)
	}
	return dst
}

func appendPID(dst []byte, p types.ProcessID) []byte {
	return binary.BigEndian.AppendUint32(
		binary.BigEndian.AppendUint32(
			binary.BigEndian.AppendUint32(dst, uint32(p.Site)), p.Incarnation), p.Index)
}

// --- decoding -----------------------------------------------------------------

// Decoder decodes frames into reusable storage: the messages (and their
// payload, timestamp and watermark slices) returned by Decode are valid only
// until the next Decode call on the same Decoder. Steady state — same frame
// shape over and over — a Decoder performs zero allocations. Use the
// package-level DecodeFrame when the caller keeps the messages (it hands out
// freshly allocated storage).
type Decoder struct {
	block []types.Message
	ptrs  []*types.Message
	// names interns group names so steady-state decoding does not allocate a
	// fresh string per message (every cast carries its group's name). The
	// cache is bounded; a stream with pathologically many distinct names just
	// falls back to allocating.
	names map[string]string
}

// maxInternedNames bounds the Decoder's group-name cache.
const maxInternedNames = 1024

func (d *Decoder) internName(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := d.names[string(b)]; ok { // no alloc: map lookup by []byte key
		return s
	}
	s := string(b)
	if len(d.names) < maxInternedNames {
		if d.names == nil {
			d.names = make(map[string]string)
		}
		d.names[s] = s
	}
	return s
}

// Decode parses one encoded frame into the Decoder's reusable storage. The
// input must be exactly one frame; a frame followed by trailing garbage is
// rejected as malformed (frames are delimited by the transport's length
// prefix, so trailing bytes mean a framing bug, not a second frame).
func (d *Decoder) Decode(b []byte) (Frame, error) {
	return d.decode(b, true)
}

// DecodeOwned parses one encoded frame into freshly allocated storage the
// caller keeps, while still reusing the Decoder's group-name intern cache.
// The TCP read loop uses it with one Decoder per connection: decoded frames
// cross a channel into the receiving process's actor loop (unbounded
// lifetime, so their storage cannot be recycled), but the group names —
// repeated on every message of a connection's lifetime — are shared.
func (d *Decoder) DecodeOwned(b []byte) (Frame, error) {
	return d.decode(b, false)
}

func (d *Decoder) decode(b []byte, reuse bool) (Frame, error) {
	if len(b) > MaxFrameBytes {
		return Frame{}, ErrFrameTooLarge
	}
	if len(b) < 2 {
		return Frame{}, ErrTruncated
	}
	if b[0] != FormatVersion {
		return Frame{}, fmt.Errorf("%w: version %d", ErrMalformed, b[0])
	}
	flags := b[1]
	if flags&^byte(frameFlagHello) != 0 {
		return Frame{}, fmt.Errorf("%w: unknown frame flags %#x", ErrMalformed, flags)
	}
	b = b[2:]

	var f Frame
	var err error
	if flags&frameFlagHello != 0 {
		if f.HelloFrom, b, err = readPID(b); err != nil {
			return Frame{}, err
		}
		var addr []byte
		if addr, b, err = readBytes(b); err != nil {
			return Frame{}, err
		}
		f.HelloAddr = string(addr)
	}
	count, b, err := readUvarint(b)
	if err != nil {
		return Frame{}, err
	}
	// Every message costs at least minMsgBytes, so a count claiming more
	// messages than the remaining bytes could hold is malformed — checked
	// before allocation so a hostile header cannot force one.
	const minMsgBytes = 3 + 3*12 + 3 + 5 // header + three pids + ordering/hop/ttl + varints
	if count > uint64(len(b)/minMsgBytes)+1 {
		return Frame{}, fmt.Errorf("%w: count %d exceeds frame size", ErrMalformed, count)
	}
	n := int(count)
	var block []types.Message
	var ptrs []*types.Message
	if reuse {
		if cap(d.block) < n {
			d.block = make([]types.Message, n)
			d.ptrs = make([]*types.Message, n)
		}
		block, ptrs = d.block[:n], d.ptrs[:n]
		d.block, d.ptrs = block, ptrs
	} else {
		block = make([]types.Message, n)
		ptrs = make([]*types.Message, n)
	}
	for i := 0; i < n; i++ {
		if b, err = d.decodeMessage(b, &block[i]); err != nil {
			return Frame{}, err
		}
		ptrs[i] = &block[i]
	}
	if len(b) != 0 {
		return Frame{}, fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(b))
	}
	if n > 0 {
		f.Msgs = ptrs
	}
	return f, nil
}

// DecodeFrame decodes one frame into freshly allocated storage the caller
// owns, with no state carried across calls. Long-lived streams should hold
// a Decoder instead (Decode for transient frames, DecodeOwned for frames
// that outlive the next call).
func DecodeFrame(b []byte) (Frame, error) {
	var d Decoder
	return d.DecodeOwned(b)
}

// decodeMessage parses one message into m, reusing m's slice capacity where
// possible (m retains buffers across Decoder reuse; a zero Message simply
// allocates). Every field is (re)assigned, so a recycled m never leaks state
// from a previous frame.
func (d *Decoder) decodeMessage(b []byte, m *types.Message) ([]byte, error) {
	if len(b) < 3 {
		return b, ErrTruncated
	}
	m.Kind = types.Kind(uint16(b[0])<<8 | uint16(b[1]))
	flags := b[2]
	b = b[3:]

	var err error
	if m.From, b, err = readPID(b); err != nil {
		return b, err
	}
	if m.To, b, err = readPID(b); err != nil {
		return b, err
	}
	if m.ID.Sender, b, err = readPID(b); err != nil {
		return b, err
	}
	if m.ID.Seq, b, err = readUvarint(b); err != nil {
		return b, err
	}
	if len(b) < 3 {
		return b, ErrTruncated
	}
	m.Ordering = types.Ordering(b[0])
	m.Hop, m.TTL = b[1], b[2]
	b = b[3:]
	var view uint64
	if view, b, err = readUvarint(b); err != nil {
		return b, err
	}
	m.View = types.ViewID(view)
	if m.Seq, b, err = readUvarint(b); err != nil {
		return b, err
	}
	if m.Corr, b, err = readUvarint(b); err != nil {
		return b, err
	}
	if m.StabOrd, b, err = readUvarint(b); err != nil {
		return b, err
	}

	m.Group = types.GroupID{}
	if flags&msgFlagGroup != 0 {
		if len(b) < 1 {
			return b, ErrTruncated
		}
		m.Group.Kind = types.GroupKind(b[0])
		b = b[1:]
		var name []byte
		if name, b, err = readBytes(b); err != nil {
			return b, err
		}
		m.Group.Name = d.internName(name)
		var pn uint64
		if pn, b, err = readCount(b, 1); err != nil {
			return b, err
		}
		if pn > 0 {
			m.Group.Path = make([]uint32, pn)
			for i := range m.Group.Path {
				var v uint64
				if v, b, err = readUvarint(b); err != nil {
					return b, err
				}
				if v > 0xffffffff {
					return b, fmt.Errorf("%w: group path element overflow", ErrMalformed)
				}
				m.Group.Path[i] = uint32(v)
			}
		}
	}

	m.ReplyTo = types.ProcessID{}
	if flags&msgFlagReplyTo != 0 {
		if m.ReplyTo, b, err = readPID(b); err != nil {
			return b, err
		}
	}

	if flags&msgFlagVT != 0 {
		var n uint64
		if n, b, err = readCount(b, 1); err != nil {
			return b, err
		}
		m.VT = growU64(m.VT, int(n))
		for i := range m.VT {
			if m.VT[i], b, err = readUvarint(b); err != nil {
				return b, err
			}
		}
	} else {
		m.VT = nil
	}

	m.Path = nil
	if flags&msgFlagPath != 0 {
		var n uint64
		if n, b, err = readCount(b, 1); err != nil {
			return b, err
		}
		m.Path = make([]uint32, n)
		for i := range m.Path {
			var v uint64
			if v, b, err = readUvarint(b); err != nil {
				return b, err
			}
			if v > 0xffffffff {
				return b, fmt.Errorf("%w: path element overflow", ErrMalformed)
			}
			m.Path[i] = uint32(v)
		}
	}

	if flags&msgFlagPayload != 0 {
		var p []byte
		if p, b, err = readBytes(b); err != nil {
			return b, err
		}
		m.Payload = append(m.Payload[:0], p...)
	} else {
		m.Payload = nil
	}

	if flags&msgFlagStab != 0 {
		var n uint64
		if n, b, err = readCount(b, 13); err != nil {
			return b, err
		}
		m.Stab = growStab(m.Stab, int(n))
		for i := range m.Stab {
			if m.Stab[i].Sender, b, err = readPID(b); err != nil {
				return b, err
			}
			if m.Stab[i].Seq, b, err = readUvarint(b); err != nil {
				return b, err
			}
		}
	} else {
		m.Stab = nil
	}

	if flags&msgFlagErr != 0 {
		var e []byte
		if e, b, err = readBytes(b); err != nil {
			return b, err
		}
		m.Err = string(e)
	} else {
		m.Err = ""
	}
	return b, nil
}

// growU64 returns s resized to n elements, reusing capacity. Reuse is safe
// because the only recycled Messages are a Decoder's own block, whose
// previous contents expired at this Decode call by contract.
func growU64(s []uint64, n int) []uint64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]uint64, n)
}

func growStab(s []types.StabEntry, n int) []types.StabEntry {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]types.StabEntry, n)
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		if n == 0 {
			return 0, b, ErrTruncated
		}
		return 0, b, fmt.Errorf("%w: varint overflow", ErrMalformed)
	}
	return v, b[n:], nil
}

// readCount reads an element count and rejects counts that could not fit in
// the remaining bytes at elemSize bytes per element — the pre-allocation
// guard for attacker-controlled lengths.
func readCount(b []byte, elemSize int) (uint64, []byte, error) {
	n, rest, err := readUvarint(b)
	if err != nil {
		return 0, b, err
	}
	if n > uint64(len(rest)/elemSize)+1 {
		return 0, b, fmt.Errorf("%w: count %d exceeds remaining %d bytes", ErrMalformed, n, len(rest))
	}
	return n, rest, nil
}

func readBytes(b []byte) ([]byte, []byte, error) {
	n, rest, err := readUvarint(b)
	if err != nil {
		return nil, b, err
	}
	if n > uint64(len(rest)) {
		return nil, b, fmt.Errorf("%w: length %d exceeds remaining %d bytes", ErrMalformed, n, len(rest))
	}
	return rest[:n], rest[n:], nil
}

func readPID(b []byte) (types.ProcessID, []byte, error) {
	if len(b) < 12 {
		return types.ProcessID{}, b, ErrTruncated
	}
	p := types.ProcessID{
		Site:        types.SiteID(binary.BigEndian.Uint32(b)),
		Incarnation: binary.BigEndian.Uint32(b[4:]),
		Index:       binary.BigEndian.Uint32(b[8:]),
	}
	return p, b[12:], nil
}
