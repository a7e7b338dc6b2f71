package group

import (
	"hash/fnv"

	"repro/internal/types"
)

// This file is the durable-state subsystem of a flat group: the StateHandler
// contract, the view-consistent checkpoint every ready member captures at
// install time, and the streaming chunked transfer that hands a checkpoint to
// joining members.
//
// The protocol leans on virtual synchrony for its correctness argument: at
// install(V) every survivor has delivered exactly the closing views' casts up
// to the flush's delivery cut, so a snapshot captured at that moment is a
// deterministic point in the delivery order — "everything before V, nothing
// from V on". A joiner of V holds its application deliveries (all from views
// >= V, it was never in an earlier one) until a checkpoint arrives, restores,
// and then applies the held tail: checkpoint + tail composes exactly-once.
// Because every ready survivor captures the same cut, any of them can serve
// the transfer, and a coordinator crash mid-transfer just rotates the joiner's
// NAKs to the next holder. All functions run on the node's actor goroutine.

// StateHandler is the application state hook of a group membership: Snapshot
// serializes the current state, Restore replaces it with a checkpoint captured
// by another member (or recovered from the write-ahead log). Both run on the
// node's actor goroutine and must not block; Snapshot is called at view
// installs, Restore once per join (and once at Create when a WAL is
// recovered).
type StateHandler interface {
	Snapshot() ([]byte, error)
	Restore([]byte) error
}

// StateApplier is optionally implemented by a StateHandler that can replay
// individual deliveries into its state. The write-ahead-log recovery path
// prefers Apply over the group's OnDeliver callback, so recovery does not
// re-trigger application side effects wired into OnDeliver.
type StateApplier interface {
	Apply(Delivery)
}

// StateTransferStats counts the durable-state machinery's work on one group:
// transfer traffic on both sides, restores, held-delivery accounting and WAL
// activity.
type StateTransferStats struct {
	OffersSent     uint64 // checkpoint offers sent to joiners
	OffersReceived uint64 // offers received while awaiting state
	ChunksSent     uint64 // checkpoint chunks sent (initial push + NAK answers)
	ChunksReceived uint64 // fresh chunks accepted into the transfer buffer
	NaksSent       uint64 // state NAKs sent (missing chunks or want-offer)
	Restores       uint64 // completed transfers (Restore invoked)
	Restarts       uint64 // transfers restarted on a different checkpoint
	HeldApplied    uint64 // deliveries held during transfer, applied after it
	HeldDropped    uint64 // held deliveries superseded by the checkpoint
	GraceReleases  uint64 // transfers abandoned by the StateGrace timeout
	SnapshotBytes  uint64 // bytes of the most recent captured checkpoint
	WALAppends     uint64 // delivery records appended to the WAL
	WALWrites      uint64 // write(2) calls that put appended records in the WAL
	WALCompactions uint64 // WAL snapshot rewrites
}

// checkpoint is one captured snapshot, chunked for transfer, held by a ready
// member so it can serve any joiner of the view it was captured at.
type checkpoint struct {
	view      types.ViewID
	data      []byte
	digest    uint64
	chunkSize int
	none      bool // handler absent or failed: joiners proceed stateless
}

func (c *checkpoint) chunks() int {
	if c.none || len(c.data) == 0 {
		return 0
	}
	return (len(c.data) + c.chunkSize - 1) / c.chunkSize
}

func (c *checkpoint) chunk(i int) []byte {
	lo := i * c.chunkSize
	if lo >= len(c.data) {
		return nil
	}
	hi := lo + c.chunkSize
	if hi > len(c.data) {
		hi = len(c.data)
	}
	return c.data[lo:hi]
}

// stateXfer is a joining member's transfer in progress: which checkpoint it
// locked onto (holder + digest), the chunks received so far, and the held
// application deliveries released once the restore completes.
type stateXfer struct {
	minView   types.ViewID    // first view that included this member
	holder    types.ProcessID // sender of the locked offer; NAK target
	offerView types.ViewID    // view the locked checkpoint was captured at
	digest    uint64
	total     int
	chunkSize int
	buf       [][]byte // received chunks, nil = missing
	got       int
	locked    bool // an offer has been accepted
	none      bool
	lastGot   int // progress marker for the NAK tick
	offerRR   int // rotation cursor for want-offer NAKs
}

func (x *stateXfer) complete() bool {
	return x.locked && (x.none || x.got == len(x.buf))
}

// stateDigest is the checkpoint identity used to lock a transfer to one
// holder's snapshot (handlers need not be deterministic across members, so
// chunks from different holders must never be mixed).
func stateDigest(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b)
	return h.Sum64()
}

// --- offer / chunk / NAK payload codecs ---------------------------------------

const (
	stateFlagNone      = 1 << 0 // offer carries no state; proceed stateless
	stateFlagWantOffer = 1 << 1 // NAK asks for a fresh offer, not chunks
)

// encodeOffer: [flags][total][chunkSize][digest]. The checkpoint's view rides
// in the message's View field.
func encodeOffer(c *checkpoint) []byte {
	var flags uint64
	if c.none {
		flags |= stateFlagNone
	}
	b := types.EncodeUint64(nil, flags)
	b = types.EncodeUint64(b, uint64(len(c.data)))
	b = types.EncodeUint64(b, uint64(c.chunkSize))
	return types.EncodeUint64(b, c.digest)
}

func decodeOffer(b []byte) (flags, total, chunkSize, digest uint64, ok bool) {
	if flags, b, ok = types.DecodeUint64(b); !ok {
		return
	}
	if total, b, ok = types.DecodeUint64(b); !ok {
		return
	}
	if chunkSize, b, ok = types.DecodeUint64(b); !ok {
		return
	}
	digest, _, ok = types.DecodeUint64(b)
	return
}

// encodeChunk: [digest][data]. The chunk index rides in the message's Seq
// field, the checkpoint's view in View.
func encodeChunk(digest uint64, data []byte) []byte {
	b := types.EncodeUint64(nil, digest)
	return append(b, data...)
}

func decodeChunk(b []byte) (digest uint64, data []byte, ok bool) {
	digest, data, ok = types.DecodeUint64(b)
	return
}

// encodeStateNak: [flags][digest][nranges]{lo hi}... — chunk-index ranges the
// joiner is missing from the checkpoint identified by digest (+View).
func encodeStateNak(flags, digest uint64, ranges [][2]uint64) []byte {
	b := types.EncodeUint64(nil, flags)
	b = types.EncodeUint64(b, digest)
	b = types.EncodeUint64(b, uint64(len(ranges)))
	for _, r := range ranges {
		b = types.EncodeUint64(b, r[0])
		b = types.EncodeUint64(b, r[1])
	}
	return b
}

func decodeStateNak(b []byte) (flags, digest uint64, ranges [][2]uint64, ok bool) {
	if flags, b, ok = types.DecodeUint64(b); !ok {
		return
	}
	if digest, b, ok = types.DecodeUint64(b); !ok {
		return
	}
	var n uint64
	if n, b, ok = types.DecodeUint64(b); !ok {
		return
	}
	if n > uint64(len(b)/16)+1 {
		return 0, 0, nil, false
	}
	for i := uint64(0); i < n; i++ {
		var lo, hi uint64
		if lo, b, ok = types.DecodeUint64(b); !ok {
			return
		}
		if hi, b, ok = types.DecodeUint64(b); !ok {
			return
		}
		ranges = append(ranges, [2]uint64{lo, hi})
	}
	return flags, digest, ranges, true
}

// --- holder side --------------------------------------------------------------

// captureCheckpoint snapshots the application state at a view install. Only
// ready members capture (a member still awaiting its own transfer would
// checkpoint a hole), and the capture replaces the previous checkpoint: within
// one group there is exactly one current cut.
func (g *Group) captureCheckpoint(v types.ViewID) {
	if g.state == nil || !g.stateReady {
		return
	}
	data, err := g.state.Snapshot()
	if err != nil {
		g.ckpt = &checkpoint{view: v, none: true, chunkSize: g.cfg.StateChunkBytes}
		return
	}
	g.ckpt = &checkpoint{
		view:      v,
		data:      data,
		digest:    stateDigest(data),
		chunkSize: g.cfg.StateChunkBytes,
	}
	g.stateStats.SnapshotBytes = uint64(len(data))
	g.walCompactMaybe(v, data)
}

// sendCheckpoint streams the current checkpoint to one joiner: the offer
// (announcing view, size, chunking and digest) followed by every chunk. Lost
// pieces are recovered by the joiner's NAKs.
func (g *Group) sendCheckpoint(to types.ProcessID) {
	c := g.ckpt
	if c == nil {
		return
	}
	_ = g.stack.node.Send(to, &types.Message{
		Kind:    types.KindStateOffer,
		Group:   g.id,
		View:    c.view,
		Seq:     uint64(c.chunks()),
		Payload: encodeOffer(c),
	})
	g.stateStats.OffersSent++
	g.sendChunks(to, c, 0, uint64(c.chunks()))
}

// sendChunks transmits the chunk-index range [lo, hi) of checkpoint c.
func (g *Group) sendChunks(to types.ProcessID, c *checkpoint, lo, hi uint64) {
	n := uint64(c.chunks())
	if hi > n {
		hi = n
	}
	for i := lo; i < hi; i++ {
		_ = g.stack.node.Send(to, &types.Message{
			Kind:    types.KindStateChunk,
			Group:   g.id,
			View:    c.view,
			Seq:     i,
			Payload: encodeChunk(c.digest, c.chunk(int(i))),
		})
		g.stateStats.ChunksSent++
	}
}

// onStateNak answers a joiner's state NAK: requested chunks when the NAK names
// our current checkpoint, a fresh offer when it asks for one or names a
// checkpoint we no longer hold (the joiner re-locks onto ours).
func (g *Group) onStateNak(m *types.Message) {
	if g.closed || !g.joined || !g.stateReady || g.ckpt == nil {
		return
	}
	flags, digest, ranges, ok := decodeStateNak(m.Payload)
	if !ok {
		return
	}
	if flags&stateFlagWantOffer != 0 || digest != g.ckpt.digest || m.View != g.ckpt.view {
		g.sendCheckpoint(m.From)
		return
	}
	budget := uint64(maxRetransmit)
	for _, r := range ranges {
		if budget == 0 {
			break
		}
		hi := r[1] + 1
		if hi-r[0] > budget {
			hi = r[0] + budget
		}
		g.sendChunks(m.From, g.ckpt, r[0], hi)
		budget -= hi - r[0]
	}
}

// --- joiner side --------------------------------------------------------------

// beginStateTransfer arms the joiner's transfer state at its first install:
// application deliveries are held from here on, and the grace timer bounds how
// long the group may stall stateless if no holder ever answers.
func (g *Group) beginStateTransfer(v types.ViewID) {
	g.awaitingState = true
	g.xfer = &stateXfer{minView: v}
	g.stack.node.After(g.cfg.StateGrace, func() {
		if g.awaitingState && g.xfer != nil && g.xfer.minView == v {
			g.stateStats.GraceReleases++
			g.finishStateTransfer(nil, 0, false)
		}
	})
	// Replay offers and chunks that raced ahead of our install.
	early := g.earlyState
	g.earlyState = nil
	for _, m := range early {
		switch m.Kind {
		case types.KindStateOffer:
			g.onStateOffer(m)
		case types.KindStateChunk:
			g.onStateChunk(m)
		case types.KindStateTransfer:
			g.onStateTransfer(m)
		}
	}
}

// onStateOffer accepts (or re-locks onto) a checkpoint offer while awaiting
// state. Offers for views before the joiner's first view cannot exist for it
// and are dropped; a second offer with the same identity only updates the NAK
// target, while a different checkpoint restarts the transfer — holders
// re-capture at every install, and Snapshot need not be deterministic, so
// chunks from different checkpoints never mix.
func (g *Group) onStateOffer(m *types.Message) {
	if g.state == nil || g.closed {
		return
	}
	if !g.joined {
		g.earlyState = append(g.earlyState, m)
		return
	}
	if !g.awaitingState || g.xfer == nil || m.View < g.xfer.minView {
		return
	}
	flags, total, chunkSize, digest, ok := decodeOffer(m.Payload)
	if !ok || total > maxStateSnapshot ||
		(flags&stateFlagNone == 0 && (chunkSize == 0 || chunkSize > uint64(maxStateChunk))) {
		return
	}
	g.stateStats.OffersReceived++
	x := g.xfer
	if x.locked {
		if digest == x.digest && m.View == x.offerView {
			x.holder = m.From // same checkpoint, possibly a new holder
			return
		}
		if m.View < x.offerView {
			return // stale offer for an older checkpoint than the locked one
		}
		g.stateStats.Restarts++
	}
	x.locked = true
	x.holder = m.From
	x.offerView = m.View
	x.digest = digest
	x.total = int(total)
	x.chunkSize = int(chunkSize)
	x.none = flags&stateFlagNone != 0
	x.got, x.lastGot = 0, 0
	if x.none {
		x.buf = nil
		g.finishStateTransfer(nil, m.View, true)
		return
	}
	n := 0
	if total > 0 {
		n = int((total + chunkSize - 1) / chunkSize)
	}
	x.buf = make([][]byte, n)
	if n == 0 {
		g.finishStateTransfer(nil, m.View, true)
	}
}

// maxStateChunk bounds the chunk size a joiner accepts from an offer and
// maxStateSnapshot the total checkpoint size, so a corrupt offer cannot force
// a huge allocation. The chunk bound is far below the transport frame limits.
const (
	maxStateChunk    = 1 << 20
	maxStateSnapshot = 1 << 30
)

func (g *Group) onStateChunk(m *types.Message) {
	if g.state == nil || g.closed {
		return
	}
	if !g.joined {
		g.earlyState = append(g.earlyState, m)
		return
	}
	x := g.xfer
	if !g.awaitingState || x == nil || !x.locked || x.none {
		return
	}
	digest, data, ok := decodeChunk(m.Payload)
	if !ok || digest != x.digest || m.View != x.offerView {
		return
	}
	i := int(m.Seq)
	if i < 0 || i >= len(x.buf) || x.buf[i] != nil {
		return
	}
	x.buf[i] = append([]byte(nil), data...)
	x.got++
	g.stateStats.ChunksReceived++
	if x.complete() {
		g.assembleAndRestore()
	}
}

// assembleAndRestore concatenates the completed transfer buffer, verifies the
// digest, and hands the checkpoint to the application. A digest mismatch
// (possible only through corruption, never through mixing — chunks are
// digest-locked) restarts the transfer.
func (g *Group) assembleAndRestore() {
	x := g.xfer
	data := make([]byte, 0, x.total)
	for _, c := range x.buf {
		data = append(data, c...)
	}
	if len(data) != x.total || stateDigest(data) != x.digest {
		x.locked = false // re-lock on the next offer
		x.buf, x.got, x.lastGot = nil, 0, 0
		g.stateStats.Restarts++
		return
	}
	g.finishStateTransfer(data, x.offerView, true)
}

// finishStateTransfer ends the joiner's awaiting-state phase: restore the
// checkpoint (when one arrived), release the held deliveries — dropping those
// the checkpoint already covers — and start durable logging from the restored
// point. restored=false is the grace path: no checkpoint ever arrived, the
// member proceeds with whatever it held (exactly the pre-transfer semantics).
func (g *Group) finishStateTransfer(data []byte, snapView types.ViewID, restored bool) {
	g.awaitingState = false
	g.xfer = nil
	if restored {
		if err := g.state.Restore(data); err != nil {
			restored = false // state unknown; apply everything held
		} else {
			g.stateStats.Restores++
		}
	}
	g.stateReady = true
	held := g.held
	g.held = nil
	if g.wal != nil && restored {
		g.walSnapshot(snapView, data)
	}
	for i := range held {
		d := &held[i]
		if restored && d.View < snapView {
			// The checkpoint was captured at snapView's install: it already
			// contains every delivery of earlier views. Applying them again
			// would double-apply.
			g.stateStats.HeldDropped++
			continue
		}
		g.stateStats.HeldApplied++
		if g.cfg.OnDeliver != nil {
			g.cfg.OnDeliver(*d)
		}
		g.walAppend(d)
	}
	// The member is ready but mid-view: its state is no install-consistent
	// cut, so it captures its first checkpoint at the next install.
}

// stateXferTick drives the joiner's recovery: with no offer locked it asks a
// rotating live member for one; with a transfer stalled it NAKs the missing
// chunk ranges from the locked holder (rotating away when the holder is
// suspected — the coordinator-crash failover path).
func (g *Group) stateXferTick() {
	x := g.xfer
	if x == nil {
		return
	}
	if x.locked && !x.none {
		if x.got > x.lastGot {
			x.lastGot = x.got // progress since last tick; let it flow
			return
		}
		target := x.holder
		if target.IsNil() || g.suspected[target] || !g.view.Contains(target) {
			x.locked = false // holder gone: fall through to want-offer rotation
		} else {
			var ranges [][2]uint64
			run := -1
			for i, c := range x.buf {
				if c == nil {
					if run < 0 {
						run = i
					}
					continue
				}
				if run >= 0 {
					ranges = append(ranges, [2]uint64{uint64(run), uint64(i - 1)})
					run = -1
				}
			}
			if run >= 0 {
				ranges = append(ranges, [2]uint64{uint64(run), uint64(len(x.buf) - 1)})
			}
			if len(ranges) == 0 {
				return
			}
			if len(ranges) > 16 {
				ranges = ranges[:16]
			}
			_ = g.stack.node.Send(target, &types.Message{
				Kind:    types.KindStateNak,
				Group:   g.id,
				View:    x.offerView,
				Payload: encodeStateNak(0, x.digest, ranges),
			})
			g.stateStats.NaksSent++
			return
		}
	}
	if !x.locked {
		self := g.stack.node.PID()
		var candidates []types.ProcessID
		for _, p := range g.view.Members {
			if p != self && !g.suspected[p] {
				candidates = append(candidates, p)
			}
		}
		if len(candidates) == 0 {
			return
		}
		target := candidates[x.offerRR%len(candidates)]
		x.offerRR++
		_ = g.stack.node.Send(target, &types.Message{
			Kind:    types.KindStateNak,
			Group:   g.id,
			View:    g.view.ID,
			Payload: encodeStateNak(stateFlagWantOffer, 0, nil),
		})
		g.stateStats.NaksSent++
	}
}

// stateOnInstall runs the durable-state work of every view install: survivors
// re-capture the checkpoint at the new cut, a joining member arms its
// transfer, and the flush coordinator streams the checkpoint to the members
// the install added.
func (g *Group) stateOnInstall(v types.ViewID, wasJoined bool) {
	if g.state == nil {
		g.pendingOffers = nil
		return
	}
	if !wasJoined && !g.stateReady && !g.awaitingState {
		g.beginStateTransfer(v)
	}
	g.captureCheckpoint(v)
	offers := g.pendingOffers
	g.pendingOffers = nil
	if g.ckpt != nil {
		for _, p := range offers {
			g.sendCheckpoint(p)
		}
	}
}

// StateStats returns the group's durable-state counters. Safe from any
// goroutine.
func (g *Group) StateStats() StateTransferStats {
	var s StateTransferStats
	_ = g.stack.node.Call(func() {
		s = g.stateStats
		if g.wal != nil {
			s.WALWrites += g.wal.Writes()
		}
	})
	return s
}
