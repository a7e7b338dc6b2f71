// Package order implements the delivery-ordering engines behind the ISIS
// broadcast primitives: FBCAST (FIFO), CBCAST (causal) and ABCAST (total
// order). The engines are pure state machines — they hold back messages
// until the ordering rule allows delivery and return the messages that
// became deliverable — so they can be unit- and property-tested without any
// networking, and the group layer simply feeds them inbound messages.
//
// All engines are per-group and per-view: the group layer creates fresh
// engines when a new view is installed (the view-change flush guarantees
// nothing from the previous view is still outstanding).
package order

import (
	"sort"

	"repro/internal/types"
	"repro/internal/vclock"
)

// Engine is the interface shared by the three ordering engines. An engine
// reads the messages it is given and never writes one: a delivered envelope
// may be shared by the sender and every receiver.
//
// The slice Add and AddBatch return (and Total's AddData and AddOrder) is
// the engine's own release buffer, reused by every call: it is valid until
// the engine's next call, which clears it before releasing anything, so a
// caller iterates it at once and never calls back into the same engine
// while doing so. Copy it to keep it. The caller may clear it once done, so
// an engine that then goes quiet pins no delivered message.
type Engine interface {
	// Add offers an inbound cast to the engine and returns the messages
	// (possibly including earlier held-back ones) that are now deliverable,
	// in delivery order.
	Add(msg *types.Message) []*types.Message
	// AddBatch offers a whole batch frame of inbound casts and returns
	// everything that became deliverable, in delivery order, computed in
	// one pass: the holdback structures are updated for the batch and
	// released once, instead of paying one release scan per message. The
	// released set and the engine's ordering guarantee are exactly those
	// of per-message Add calls; for FIFO and Total the delivery sequence
	// is also identical, while Causal may interleave *concurrent*
	// messages differently than per-message feeding would (any such
	// interleaving is equally causally valid — CBCAST never promised an
	// order between concurrent messages, and different members observe
	// different ones anyway).
	AddBatch(msgs []*types.Message) []*types.Message
	// Pending returns how many messages are currently held back.
	Pending() int
}

// --- FBCAST -----------------------------------------------------------------

// FIFO delivers messages from each sender in the order they were sent.
// Messages carry a per-sender sequence number in msg.ID.Seq starting at 1
// within the view.
type FIFO struct {
	next map[types.ProcessID]uint64 // next expected seq per sender
	hold map[types.ProcessID]map[uint64]*types.Message
	out  []*types.Message // release buffer (see Engine)
}

// NewFIFO returns an empty FBCAST engine.
func NewFIFO() *FIFO {
	return &FIFO{
		next: make(map[types.ProcessID]uint64),
		hold: make(map[types.ProcessID]map[uint64]*types.Message),
	}
}

// Add implements Engine.
func (f *FIFO) Add(msg *types.Message) []*types.Message {
	out := reuse(&f.out)
	if f.insert(msg) { // else a duplicate or stale
		out = f.drainFrom(msg.ID.Sender, out)
	}
	f.out = out
	return out
}

// AddBatch implements Engine. FIFO release is already constant-amortized
// per message, so the batch form simply shares the release buffer across
// the whole frame (keeping the exact cross-sender interleaving of
// per-message Add); the savings for FIFO traffic come from the group layer
// doing its bookkeeping once per batch.
func (f *FIFO) AddBatch(msgs []*types.Message) []*types.Message {
	out := reuse(&f.out)
	for _, msg := range msgs {
		sender := msg.ID.Sender
		// Fast path for the common case — the batch arrives in order and
		// nothing is held back — so a well-formed frame releases without
		// touching the holdback maps at all.
		if msg.ID.Seq == f.next[sender] && len(f.hold[sender]) == 0 {
			f.next[sender]++
			out = append(out, msg)
			continue
		}
		if !f.insert(msg) {
			continue
		}
		out = f.drainFrom(sender, out)
	}
	f.out = out
	return out
}

// insert places msg into the holdback structure, reporting false for
// duplicates and stale retransmissions.
func (f *FIFO) insert(msg *types.Message) bool {
	sender := msg.ID.Sender
	if f.next[sender] == 0 {
		f.next[sender] = 1
	}
	if msg.ID.Seq < f.next[sender] {
		return false
	}
	if f.hold[sender] == nil {
		f.hold[sender] = make(map[uint64]*types.Message)
	}
	f.hold[sender][msg.ID.Seq] = msg
	return true
}

// drainFrom appends every now-contiguous message from sender to out.
func (f *FIFO) drainFrom(sender types.ProcessID, out []*types.Message) []*types.Message {
	hold := f.hold[sender]
	for {
		m, ok := hold[f.next[sender]]
		if !ok {
			return out
		}
		delete(hold, f.next[sender])
		f.next[sender]++
		out = append(out, m)
	}
}

// Pending implements Engine.
func (f *FIFO) Pending() int {
	n := 0
	for _, m := range f.hold {
		n += len(m)
	}
	return n
}

// NextFrom returns the next expected sequence number from a sender (1 if
// nothing has been delivered yet). The membership flush uses it to describe
// how much of each sender's traffic this process has seen.
func (f *FIFO) NextFrom(p types.ProcessID) uint64 {
	if n := f.next[p]; n > 0 {
		return n
	}
	return 1
}

// --- CBCAST -----------------------------------------------------------------

// Causal delivers messages respecting potential causality, using vector
// timestamps indexed by member rank within the view.
type Causal struct {
	ranks map[types.ProcessID]int // member -> rank in the view
	local vclock.VC               // delivered counts per rank
	hold  []*types.Message
	out   []*types.Message // release buffer (see Engine)
}

// NewCausal returns a CBCAST engine for a view whose members (in rank
// order) are given.
func NewCausal(members []types.ProcessID) *Causal {
	ranks := make(map[types.ProcessID]int, len(members))
	for i, m := range members {
		ranks[m] = i
	}
	return &Causal{ranks: ranks, local: vclock.New(len(members))}
}

// Clock returns a copy of the engine's delivered-clock. The group layer
// stamps outgoing casts with it (after ticking the sender's own entry).
func (c *Causal) Clock() vclock.VC { return c.local.Copy() }

// Rank returns the rank of a member in this view, or -1.
func (c *Causal) Rank(p types.ProcessID) int {
	if r, ok := c.ranks[p]; ok {
		return r
	}
	return -1
}

// Add implements Engine.
func (c *Causal) Add(msg *types.Message) []*types.Message {
	if c.stale(msg) {
		return nil
	}
	c.hold = append(c.hold, msg)
	return c.release()
}

// AddBatch implements Engine: the whole batch joins the holdback queue and
// the deliverability fixpoint runs once over everything.
func (c *Causal) AddBatch(msgs []*types.Message) []*types.Message {
	for _, m := range msgs {
		if !c.stale(m) {
			c.hold = append(c.hold, m)
		}
	}
	return c.release()
}

// stale reports whether msg was already delivered (its sender's component
// of the delivered-clock has reached the message's own tick) — i.e. it is a
// network duplicate or a retransmission. Without this check a duplicate
// could never satisfy Deliverable (its VT[rank] equals, not exceeds, the
// delivered count) and would sit in the holdback queue for the life of the
// view, growing release()'s rescan cost with every duplicated cast.
func (c *Causal) stale(m *types.Message) bool {
	rank := c.Rank(m.ID.Sender)
	if rank < 0 || rank >= len(m.VT) {
		return false // unknown sender / malformed VT: release() handles it
	}
	return m.VT[rank] <= c.Delivered(rank)
}

// release runs the deliverability fixpoint over the holdback queue.
func (c *Causal) release() []*types.Message {
	out := reuse(&c.out)
	for {
		progressed := false
		for i, m := range c.hold {
			if m == nil {
				continue
			}
			rank := c.Rank(m.ID.Sender)
			if rank < 0 {
				// Sender unknown in this view (should not happen after a
				// correct flush); drop it rather than wedging the queue.
				c.hold[i] = nil
				progressed = true
				continue
			}
			if vclock.Deliverable(vclock.VC(m.VT), rank, c.local) {
				if len(m.VT) > len(c.local) {
					c.local = c.local.Resize(len(m.VT))
				}
				c.local[rank] = m.VT[rank]
				c.local.Merge(vclock.VC(m.VT))
				out = append(out, m)
				c.hold[i] = nil
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	// Compact the holdback slice.
	compacted := c.hold[:0]
	for _, m := range c.hold {
		if m != nil {
			compacted = append(compacted, m)
		}
	}
	c.hold = compacted
	c.out = out
	return out
}

// Pending implements Engine.
func (c *Causal) Pending() int { return len(c.hold) }

// Delivered returns the number of messages delivered from the member with
// the given rank.
func (c *Causal) Delivered(rank int) uint64 {
	if rank < 0 || rank >= len(c.local) {
		return 0
	}
	return c.local[rank]
}

// --- ABCAST -----------------------------------------------------------------

// Total delivers messages in a single agreed order. A sequencer (the view
// coordinator in this implementation) assigns consecutive sequence numbers
// starting at 1; data and order announcements may arrive in any relative
// order. The engine is duplicate-proof: a message id is filed against at
// most one agreed slot and delivered at most once, no matter how often the
// network re-delivers its data or its announcement (the chaos harness's
// duplication injection exercises exactly this).
type Total struct {
	nextSeq uint64                         // next sequence number to deliver
	byID    map[types.MsgID]*types.Message // data waiting for an order
	order   map[uint64]types.MsgID         // seq -> message id (from sequencer)
	ready   map[uint64]*types.Message      // seq -> data, both parts present
	ordered map[types.MsgID]uint64         // undelivered id -> its agreed slot
	// done maps every retained delivered id to its agreed slot. It lets the
	// sequencer refuse to assign a second agreed slot to a late network
	// duplicate. With the reliability layer's receive-side duplicate filter
	// upstream (a cast below the stability watermark can never reach the
	// engine again), ids whose slots every member has delivered are safe to
	// forget: SetStable prunes done and the binding log to the unstable
	// suffix, making the engine's memory O(unstable) instead of O(messages
	// delivered per view).
	done map[types.MsgID]uint64
	// log records the delivered binding history slot by slot — log[i] is
	// the id delivered at slot logBase+1+i — so flush acknowledgements and
	// order NAK answers can re-supply bindings a slower member is missing.
	// Pruned by SetStable together with done.
	log     []types.MsgID
	logBase uint64           // slot of log[0] minus one
	out     []*types.Message // release buffer (see Engine)
}

// NewTotal returns an ABCAST engine.
func NewTotal() *Total {
	return &Total{
		nextSeq: 1,
		byID:    make(map[types.MsgID]*types.Message),
		order:   make(map[uint64]types.MsgID),
		ready:   make(map[uint64]*types.Message),
		ordered: make(map[types.MsgID]uint64),
		done:    make(map[types.MsgID]uint64),
	}
}

// Add implements Engine for the data part of an ABCAST. If the message
// already carries its agreed sequence number (msg.Seq != 0, the case when
// the sequencer itself multicasts), it behaves as AddData+AddOrder.
func (t *Total) Add(msg *types.Message) []*types.Message {
	t.insert(msg)
	return t.drain()
}

// AddBatch implements Engine: every data message (sequenced or not) is
// filed first and the ready queue is drained once.
func (t *Total) AddBatch(msgs []*types.Message) []*types.Message {
	for _, m := range msgs {
		t.insert(m)
	}
	return t.drain()
}

// insert files one data message without draining.
func (t *Total) insert(msg *types.Message) {
	if _, dup := t.done[msg.ID]; dup {
		return // duplicate of an already delivered message
	}
	if slot, bound := t.ordered[msg.ID]; bound {
		// The id's binding is already known. If its data is still missing —
		// the announcement arrived first, which happens for sequencer-
		// stamped casts too when a failover re-announcement or an order-NAK
		// answer beats the retransmitted data — file the data against the
		// waiting slot; otherwise this is a duplicate copy.
		if id, waiting := t.order[slot]; waiting && id == msg.ID {
			t.ready[slot] = msg
			delete(t.order, slot)
		}
		return
	}
	t.byID[msg.ID] = msg
	if msg.Seq != 0 {
		t.insertOrder(msg.Seq, msg.ID)
	}
}

// insertOrder files one order announcement without draining.
func (t *Total) insertOrder(seq uint64, id types.MsgID) {
	if seq < t.nextSeq {
		return // stale announcement
	}
	if _, delivered := t.done[id]; delivered {
		return // the id already had its (single) agreed slot
	}
	if _, bound := t.ordered[id]; bound {
		return // the id already has its (single) agreed slot
	}
	t.ordered[id] = seq
	if m, ok := t.byID[id]; ok {
		t.ready[seq] = m
		delete(t.byID, id)
	} else {
		t.order[seq] = id
	}
}

// AddData offers the data part of an ABCAST.
func (t *Total) AddData(msg *types.Message) []*types.Message {
	t.insert(msg)
	return t.drain()
}

// AddOrder records the sequencer's order announcement for a message id.
func (t *Total) AddOrder(seq uint64, id types.MsgID) []*types.Message {
	t.insertOrder(seq, id)
	return t.drain()
}

// drain releases the ready messages in slot order. It writes nothing into
// them: a delivered envelope may be shared with the sender and every other
// receiver, so its agreed slot is the engine's to tell (Slot), not a field
// to stamp.
func (t *Total) drain() []*types.Message {
	out := reuse(&t.out)
	for {
		m, ok := t.ready[t.nextSeq]
		if !ok {
			break
		}
		delete(t.ready, t.nextSeq)
		t.done[m.ID] = t.nextSeq
		if len(t.log) == 0 {
			t.logBase = t.nextSeq - 1
		}
		t.log = append(t.log, m.ID)
		delete(t.ordered, m.ID)
		out = append(out, m)
		t.nextSeq++
	}
	t.out = out
	return out
}

// Slot returns the agreed slot at which the engine delivered the message
// id, or 0 when it has not delivered the id or SetStable has since pruned
// it. The group layer reads a delivery's slot here, and stamps it into the
// private copy a retransmission of a held cast is sent in.
func (t *Total) Slot(id types.MsgID) uint64 { return t.done[id] }

// Bound returns the agreed slot bound to a message id the engine has not
// delivered yet, or 0 when it knows no binding for it.
func (t *Total) Bound(id types.MsgID) uint64 { return t.ordered[id] }

// Awaiting returns the ids bound to slots at or below upTo whose data the
// engine does not hold yet: the casts a member must still obtain to deliver
// that prefix.
func (t *Total) Awaiting(upTo uint64) []types.MsgID {
	var out []types.MsgID
	for seq, id := range t.order {
		if seq <= upTo {
			out = append(out, id)
		}
	}
	return out
}

// Ordered reports whether an agreed slot has already been assigned to the
// message id (sequenced, or already delivered). The sequencer consults it so
// a network-duplicated cast can never be sequenced twice.
func (t *Total) Ordered(id types.MsgID) bool {
	if _, bound := t.ordered[id]; bound {
		return true
	}
	_, delivered := t.done[id]
	return delivered
}

// SetStable prunes the delivered bookkeeping (done map and binding log) to
// slots above ord, the group-wide stable ABCAST prefix: every member has
// delivered 1..ord, so no member can ever need those bindings again, and —
// because the reliability layer's receive-side duplicate filter rejects any
// further copy of a stable cast before it reaches the engine — forgetting
// their ids cannot re-open the double-sequencing hole.
func (t *Total) SetStable(ord uint64) {
	if ord <= t.logBase {
		return
	}
	if max := t.logBase + uint64(len(t.log)); ord > max {
		ord = max
	}
	n := ord - t.logBase
	for _, id := range t.log[:n] {
		delete(t.done, id)
	}
	// Compact in place: the log's capacity settles at the widest unstable
	// window and pruning allocates nothing.
	t.log = t.log[:copy(t.log, t.log[n:])]
	t.logBase = ord
}

// Bindings returns every binding the engine knows with slot > from, in slot
// order: first the retained delivered history (the log), then undelivered
// slots whose order announcement (and possibly data) has arrived. Flush
// acknowledgements and order-NAK answers use it to re-supply bindings to
// members that missed announcements.
func (t *Total) Bindings(from uint64) []types.SeqBinding {
	var out []types.SeqBinding
	start := from
	if start < t.logBase {
		start = t.logBase
	}
	for i := start - t.logBase; i < uint64(len(t.log)); i++ {
		out = append(out, types.SeqBinding{Seq: t.logBase + 1 + i, ID: t.log[i]})
	}
	for seq, id := range t.order {
		if seq > from {
			out = append(out, types.SeqBinding{Seq: seq, ID: id})
		}
	}
	for seq, m := range t.ready {
		if seq > from {
			out = append(out, types.SeqBinding{Seq: seq, ID: m.ID})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// UnorderedIDs returns the ids of casts the engine holds data for with no
// agreed slot yet — the casts a failed sequencer never announced, which the
// new coordinator assigns fresh slots during failover.
func (t *Total) UnorderedIDs() []types.MsgID {
	out := make([]types.MsgID, 0, len(t.byID))
	for id := range t.byID {
		out = append(out, id)
	}
	return Sorted(out)
}

// Retained returns the sizes of the delivered bookkeeping (done map and
// binding log) — the O(unstable) quantity SetStable bounds.
func (t *Total) Retained() (done, log int) { return len(t.done), len(t.log) }

// Pending implements Engine.
func (t *Total) Pending() int { return len(t.byID) + len(t.ready) }

// NextSeq returns the next sequence number the engine expects to deliver.
func (t *Total) NextSeq() uint64 { return t.nextSeq }

// Sequencer is the sender-side helper used by the view coordinator to assign
// the agreed order.
type Sequencer struct {
	next uint64
}

// NewSequencer returns a sequencer whose first assignment is 1.
func NewSequencer() *Sequencer { return &Sequencer{next: 1} }

// Assign returns the next sequence number.
func (s *Sequencer) Assign() uint64 {
	n := s.next
	s.next++
	return n
}

// Assigned returns how many sequence numbers have been handed out.
func (s *Sequencer) Assigned() uint64 { return s.next - 1 }

// --- helpers ----------------------------------------------------------------

// reuse empties an engine's release buffer for the next call, dropping the
// pointers the previous call released so the buffer pins no delivered
// message.
func reuse(buf *[]*types.Message) []*types.Message {
	clear(*buf)
	return (*buf)[:0]
}

// Sorted returns the message ids of a batch sorted by (sender, seq); used by
// tests to compare delivery orders deterministically.
func Sorted(ids []types.MsgID) []types.MsgID {
	out := append([]types.MsgID(nil), ids...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sender != out[j].Sender {
			return out[i].Sender.Less(out[j].Sender)
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}
