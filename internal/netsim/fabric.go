// Package netsim simulates the network of workstations the paper targets.
//
// The Fabric is the measurement substrate for every experiment: it carries
// each point-to-point message between simulated processes, applies a latency
// model, injects loss and partitions on demand, and counts messages, bytes
// and per-process destinations. Because both the flat ("existing ISIS")
// stack and the hierarchical stack send every message through the same
// Fabric, the comparisons reported in EXPERIMENTS.md measure exactly the
// quantities the paper reasons about — number of messages, number of
// destinations, and who has to do work — rather than artifacts of either
// implementation.
//
// The unit of transmission is a frame: one or more messages from one sender
// to one destination, delivered as a single unit (SendBatch). Frames model
// the batched wire encoding of the real TCP transport, so the simulated and
// real substrates amortize per-send overhead the same way. Message-level
// accounting (MessagesSent, PerKind, ...) is unaffected by how messages are
// framed; FramesSent records the amortization separately.
package netsim

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/types"
)

// Config describes the simulated LAN.
type Config struct {
	// BaseLatency is the one-way delivery latency applied to every message.
	// Zero means deliver as fast as the scheduler allows (the default for
	// unit tests and message-count experiments).
	BaseLatency time.Duration
	// Jitter adds a uniformly distributed extra delay in [0, Jitter).
	Jitter time.Duration
	// LossRate is the probability in [0,1) that a message is silently
	// dropped. The in-memory transport is reliable when LossRate is zero.
	LossRate float64
	// DupRate is the probability in [0,1) that a multicast data-path
	// message (cast, stability report, order announcement) is delivered twice,
	// modelling a network-level duplicate. Protocol messages are never
	// duplicated: the membership and RPC layers assume at-most-once links,
	// while the ordering engines are required to tolerate duplicates — the
	// chaos harness injects them to prove it.
	DupRate float64
	// ReorderRate is the probability in [0,1) that a multicast data-path
	// message is pulled out of its frame and delivered late (after up to
	// ReorderDelay), breaking per-pair FIFO arrival for the data path the
	// way a multi-path network would.
	ReorderRate float64
	// ReorderDelay caps the extra delay applied to reordered messages.
	// Zero selects 1ms.
	ReorderDelay time.Duration
	// Seed seeds the fabric's private random source so experiments are
	// reproducible. Zero selects a fixed default seed.
	Seed int64
	// QueueLen is the per-process inbound queue length, counted in frames
	// (a frame is one batched send; an unbatched send is a frame of one).
	// Zero selects a large default. When a queue overflows the frame's
	// messages are counted as dropped (models an overloaded workstation).
	QueueLen int
	// PerHopCost is the synthetic processing cost charged per delivered
	// message when computing the simulated latency figures reported by the
	// workload experiments. It does not delay real goroutines.
	PerHopCost time.Duration
}

// DefaultConfig returns the configuration used by most tests: instantaneous,
// lossless delivery with accounting enabled.
func DefaultConfig() Config {
	return Config{QueueLen: 4096}
}

// Packet is one message in flight, as seen by the fabric.
type Packet struct {
	From types.ProcessID
	To   types.ProcessID
	Msg  *types.Message
	// Size is the wire size charged for the packet.
	Size int
}

// FaultKind enumerates the fault-injection primitives the fabric supports.
type FaultKind uint8

const (
	// FaultCrash marks a process as crashed (queue discarded, sends to it
	// dropped) until it is attached again.
	FaultCrash FaultKind = 1 + iota
	// FaultPartition assigns a process to a partition; processes in
	// different partitions cannot exchange messages.
	FaultPartition
	// FaultHeal returns every process to partition 0.
	FaultHeal
	// FaultLoss sets the random message-loss rate (Rate; zero ends a burst).
	FaultLoss
	// FaultDelay sets the latency model (Base, Jitter; zeros end a burst).
	FaultDelay
	// FaultDuplicate sets the data-path duplication rate (Rate).
	FaultDuplicate
	// FaultReorder sets the data-path reordering rate (Rate) and the extra
	// delay cap for reordered messages (Base).
	FaultReorder
)

// String returns the symbolic fault name for logs and reports.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultPartition:
		return "partition"
	case FaultHeal:
		return "heal"
	case FaultLoss:
		return "loss"
	case FaultDelay:
		return "delay"
	case FaultDuplicate:
		return "duplicate"
	case FaultReorder:
		return "reorder"
	default:
		return fmt.Sprintf("fault(%d)", uint8(k))
	}
}

// FaultEvent is one fault-injection action. The chaos harness compiles a
// scenario into a plan of FaultEvents; Inject applies one to the fabric and
// records it in the fault log carried by Stats, stamping At with the offset
// from fabric creation so a run's fault history can be read back next to its
// message counters.
type FaultEvent struct {
	// Step is the scenario timeline position that scheduled the event (an
	// annotation for logs; the fabric does not interpret it).
	Step int
	// Kind selects the fault primitive.
	Kind FaultKind
	// Proc is the target process for FaultCrash and FaultPartition.
	Proc types.ProcessID
	// Partition is the partition id for FaultPartition.
	Partition int
	// Rate parameterises FaultLoss, FaultDuplicate and FaultReorder.
	Rate float64
	// Base and Jitter parameterise FaultDelay; Base also carries the extra
	// delay cap for FaultReorder.
	Base   time.Duration
	Jitter time.Duration
	// At is stamped by the fabric when the event is applied: the offset
	// from fabric creation.
	At time.Duration
}

// String renders the event for logs.
func (e FaultEvent) String() string {
	switch e.Kind {
	case FaultCrash:
		return fmt.Sprintf("step %d: crash %v", e.Step, e.Proc)
	case FaultPartition:
		return fmt.Sprintf("step %d: partition %v -> side %d", e.Step, e.Proc, e.Partition)
	case FaultHeal:
		return fmt.Sprintf("step %d: heal partitions", e.Step)
	case FaultLoss:
		return fmt.Sprintf("step %d: loss rate %.3f", e.Step, e.Rate)
	case FaultDelay:
		return fmt.Sprintf("step %d: delay base=%v jitter=%v", e.Step, e.Base, e.Jitter)
	case FaultDuplicate:
		return fmt.Sprintf("step %d: duplication rate %.3f", e.Step, e.Rate)
	case FaultReorder:
		return fmt.Sprintf("step %d: reorder rate %.3f delay=%v", e.Step, e.Rate, e.Base)
	default:
		return fmt.Sprintf("step %d: %s", e.Step, e.Kind)
	}
}

// Stats is a snapshot of the fabric's counters.
type Stats struct {
	// MessagesSent counts every send attempt, including dropped ones.
	MessagesSent uint64
	// MessagesDelivered counts messages handed to a destination queue.
	MessagesDelivered uint64
	// MessagesDropped counts losses (random loss, partitions, crashed or
	// unknown destinations, queue overflow).
	MessagesDropped uint64
	// FramesSent counts transmission units: one per Send, one per
	// SendBatch regardless of batch size. MessagesSent/FramesSent is the
	// batching amortization factor.
	FramesSent uint64
	// MessagesDuplicated counts data-path messages the fabric delivered a
	// second time because of duplication injection. Duplicates are not
	// charged to MessagesSent or BytesSent (the sender paid once) but do
	// count as deliveries when they reach a queue.
	MessagesDuplicated uint64
	// MessagesReordered counts data-path messages pulled out of their frame
	// and delivered late because of reordering injection.
	MessagesReordered uint64
	// BytesSent is the total wire size of all send attempts.
	BytesSent uint64
	// StabilitySent counts cumulative watermark reports (KindStability), a
	// run's acknowledgement overhead. It is also present in PerKind; the
	// dedicated counter exists so experiments read it without a map lookup.
	StabilitySent uint64
	// PerKind breaks MessagesSent down by protocol message kind.
	PerKind map[types.Kind]uint64
	// PerSender counts send attempts per originating process.
	PerSender map[types.ProcessID]uint64
	// PerReceiver counts deliveries per destination process.
	PerReceiver map[types.ProcessID]uint64
	// Faults is the fault-event log: every fault injected since the last
	// ResetStats, in application order, with At stamped relative to fabric
	// creation. Chaos reports print it next to the counters so a failing
	// seed's fault history is visible without re-running the scenario.
	Faults []FaultEvent
}

// Fabric is the simulated network. It is safe for concurrent use.
type Fabric struct {
	start time.Time

	mu         sync.Mutex
	cfg        Config // LossRate/DupRate/ReorderRate/latency are runtime-mutable
	rng        *rand.Rand
	procs      map[types.ProcessID]*port
	partitions map[types.ProcessID]int // partition id per process; default 0
	crashed    map[types.ProcessID]bool
	dropRules  []dropEntry
	dropSeq    uint64
	fanout     map[types.ProcessID]map[types.ProcessID]struct{}

	stats   Stats
	watcher func(Packet) // optional tap for tests/trace
}

// DropRule selectively drops matching packets; used for fault injection in
// tests (for example "drop all view-install messages to p3").
type DropRule func(Packet) bool

// dropEntry pairs an installed rule with the identity its remove function
// holds onto. Removal compacts the slice, so rules are matched by id rather
// than by index — indexes shift as other rules are removed.
type dropEntry struct {
	id   uint64
	rule DropRule
}

// port is the receive side of one attached process. The queue carries
// frames: the batched unit of transmission (a plain Send is a frame of one).
type port struct {
	queue chan []*types.Message
}

// New creates a fabric with the given configuration.
func New(cfg Config) *Fabric {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 4096
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x15150451
	}
	return &Fabric{
		start:      time.Now(),
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(seed)),
		procs:      make(map[types.ProcessID]*port),
		partitions: make(map[types.ProcessID]int),
		crashed:    make(map[types.ProcessID]bool),
		fanout:     make(map[types.ProcessID]map[types.ProcessID]struct{}),
		stats: Stats{
			PerKind:     make(map[types.Kind]uint64),
			PerSender:   make(map[types.ProcessID]uint64),
			PerReceiver: make(map[types.ProcessID]uint64),
		},
	}
}

// Config returns the fabric's configuration (a snapshot: the fault knobs —
// loss, duplication, reordering, latency — are runtime-mutable via Inject).
func (f *Fabric) Config() Config {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cfg
}

// Attach registers a process and returns its inbound frame channel. It is
// an error to attach the same process twice.
func (f *Fabric) Attach(p types.ProcessID) (<-chan []*types.Message, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.procs[p]; ok {
		return nil, fmt.Errorf("netsim: attach %v: %w", p, types.ErrRejected)
	}
	pt := &port{queue: make(chan []*types.Message, f.cfg.QueueLen)}
	f.procs[p] = pt
	delete(f.crashed, p)
	return pt.queue, nil
}

// Detach removes a process from the network (clean shutdown). Messages in
// its queue are discarded.
func (f *Fabric) Detach(p types.ProcessID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.procs, p)
	delete(f.partitions, p)
}

// Crash marks a process as crashed: its queue stops accepting messages and
// existing queued messages are lost, modelling a workstation power failure.
// The process stays crashed until Attach is called again for a new
// incarnation.
func (f *Fabric) Crash(p types.ProcessID) {
	f.Inject(FaultEvent{Kind: FaultCrash, Proc: p})
}

// Crashed reports whether p has been crashed.
func (f *Fabric) Crashed(p types.ProcessID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed[p]
}

// SetPartition assigns a process to a partition. Processes in different
// partitions cannot exchange messages. All processes start in partition 0.
func (f *Fabric) SetPartition(p types.ProcessID, partition int) {
	f.Inject(FaultEvent{Kind: FaultPartition, Proc: p, Partition: partition})
}

// HealPartitions returns every process to partition 0.
func (f *Fabric) HealPartitions() {
	f.Inject(FaultEvent{Kind: FaultHeal})
}

// SetLossRate changes the random message-loss probability at runtime (chaos
// loss bursts). Zero restores reliable delivery.
func (f *Fabric) SetLossRate(rate float64) {
	f.Inject(FaultEvent{Kind: FaultLoss, Rate: rate})
}

// SetLatency changes the latency model at runtime (chaos delay bursts).
// Zeros restore instantaneous delivery.
func (f *Fabric) SetLatency(base, jitter time.Duration) {
	f.Inject(FaultEvent{Kind: FaultDelay, Base: base, Jitter: jitter})
}

// SetDuplication changes the data-path duplication probability at runtime.
func (f *Fabric) SetDuplication(rate float64) {
	f.Inject(FaultEvent{Kind: FaultDuplicate, Rate: rate})
}

// SetReordering changes the data-path reordering probability and the extra
// delay cap applied to reordered messages at runtime.
func (f *Fabric) SetReordering(rate float64, delay time.Duration) {
	f.Inject(FaultEvent{Kind: FaultReorder, Rate: rate, Base: delay})
}

// Inject applies one fault event to the fabric and appends it to the fault
// log in Stats. All fault-injection entry points (Crash, SetPartition, the
// Set* mutators and the chaos harness's compiled plans) funnel through here,
// so the log is a complete record of the faults a run experienced.
func (f *Fabric) Inject(ev FaultEvent) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch ev.Kind {
	case FaultCrash:
		f.crashed[ev.Proc] = true
		delete(f.procs, ev.Proc)
	case FaultPartition:
		f.partitions[ev.Proc] = ev.Partition
	case FaultHeal:
		f.partitions = make(map[types.ProcessID]int)
	case FaultLoss:
		f.cfg.LossRate = ev.Rate
	case FaultDelay:
		f.cfg.BaseLatency, f.cfg.Jitter = ev.Base, ev.Jitter
	case FaultDuplicate:
		f.cfg.DupRate = ev.Rate
	case FaultReorder:
		f.cfg.ReorderRate, f.cfg.ReorderDelay = ev.Rate, ev.Base
	default:
		return // unknown kinds are not applied and not logged
	}
	ev.At = time.Since(f.start)
	f.stats.Faults = append(f.stats.Faults, ev)
}

// AddDropRule installs a fault-injection rule and returns a function that
// removes it. Removal is safe while packets are in flight and while other
// rules are being removed in any order: rules are identified by id, not by
// slice index, and the remove function is idempotent.
func (f *Fabric) AddDropRule(rule DropRule) (remove func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dropSeq++
	id := f.dropSeq
	f.dropRules = append(f.dropRules, dropEntry{id: id, rule: rule})
	return func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		for i, e := range f.dropRules {
			if e.id == id {
				f.dropRules = append(f.dropRules[:i], f.dropRules[i+1:]...)
				return
			}
		}
	}
}

// Watch installs a tap invoked (synchronously, under no lock) for every
// send attempt. The packet's Msg is the sender's, borrowed for the call: a
// tap that keeps it must Clone it. Passing nil removes the tap.
func (f *Fabric) Watch(w func(Packet)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.watcher = w
}

// Send carries one message from msg.From to msg.To as a frame of one. It
// never blocks the caller beyond the (optional) latency model: delivery into
// the destination queue happens either inline (zero latency) or on a timer
// goroutine.
func (f *Fabric) Send(msg *types.Message) error {
	return f.SendBatch([]*types.Message{msg})
}

// SendBatch carries a frame — one or more messages sharing a sender and a
// destination (msgs[0] routes the whole frame) — under a single accounting
// pass and a single queue operation at the receiver. Message-level counters
// are charged per message exactly as for individual Sends, but the
// per-sender, per-kind and fanout map updates are hoisted to one update per
// frame, which is where the simulated substrate's batching speedup comes
// from. Random loss and drop rules filter individual messages out of the
// frame; crashed/unknown/partitioned destinations drop the frame whole and
// return the error an individual Send would have returned.
func (f *Fabric) SendBatch(msgs []*types.Message) error {
	if len(msgs) == 0 {
		return nil
	}
	to, from := msgs[0].To, msgs[0].From

	f.mu.Lock()
	// Packets are only materialised when someone looks at them.
	needPkts := f.watcher != nil || len(f.dropRules) > 0
	var pkts []Packet
	if needPkts {
		pkts = make([]Packet, len(msgs))
		for i, m := range msgs {
			pkts[i] = Packet{From: m.From, To: m.To, Msg: m, Size: m.WireSize()}
		}
	}

	f.stats.FramesSent++
	f.stats.MessagesSent += uint64(len(msgs))
	f.stats.PerSender[from] += uint64(len(msgs))
	set, ok := f.fanout[from]
	if !ok {
		set = make(map[types.ProcessID]struct{})
		f.fanout[from] = set
	}
	set[to] = struct{}{}
	var kindRun types.Kind
	var kindN uint64
	addKindRun := func() {
		f.stats.PerKind[kindRun] += kindN
		if kindRun == types.KindStability {
			f.stats.StabilitySent += kindN
		}
	}
	for i, m := range msgs {
		if pkts != nil {
			f.stats.BytesSent += uint64(pkts[i].Size) // WireSize already computed
		} else {
			f.stats.BytesSent += uint64(m.WireSize())
		}
		if m.Kind == kindRun {
			kindN++
			continue
		}
		if kindN > 0 {
			addKindRun()
		}
		kindRun, kindN = m.Kind, 1
	}
	addKindRun()
	watcher := f.watcher

	// Destination checks apply to the frame as a whole.
	dst, ok := f.procs[to]
	crashed := f.crashed[to]
	partitioned := f.partitions[from] != f.partitions[to]
	var dropErr error
	switch {
	case crashed:
		dropErr = types.ErrCrashed
	case !ok:
		dropErr = types.ErrNoSuchProcess
	case partitioned:
		dropErr = types.ErrPartitioned
	}
	// Loss and drop rules apply per message: a lossy link can lose part of
	// a frame, like packets of one burst on Ethernet.
	var kept []*types.Message
	if dropErr == nil {
		kept = msgs
		if f.cfg.LossRate > 0 || len(f.dropRules) > 0 {
			kept = make([]*types.Message, 0, len(msgs))
			for i, m := range msgs {
				lost := f.cfg.LossRate > 0 && f.rng.Float64() < f.cfg.LossRate
				if !lost && pkts != nil {
					for _, e := range f.dropRules {
						if e.rule(pkts[i]) {
							lost = true
							break
						}
					}
				}
				if lost {
					f.stats.MessagesDropped++
				} else {
					kept = append(kept, m)
				}
			}
		}
	} else {
		f.stats.MessagesDropped += uint64(len(msgs))
	}
	// Duplication and reordering apply per message, to the multicast data
	// path only (casts, stability reports, order announcements): the ordering
	// engines must tolerate both, while the membership and RPC protocols
	// assume per-pair FIFO at-most-once links. A duplicated message is
	// delivered a second time in its own frame; a reordered message is
	// pulled out of the frame and delivered late.
	var dups []*types.Message
	var delayed []*types.Message
	var delayedBy []time.Duration
	if dropErr == nil && len(kept) > 0 && (f.cfg.DupRate > 0 || f.cfg.ReorderRate > 0) {
		filtered := make([]*types.Message, 0, len(kept))
		for _, m := range kept {
			if !dataPathKind(m.Kind) {
				filtered = append(filtered, m)
				continue
			}
			if f.cfg.DupRate > 0 && f.rng.Float64() < f.cfg.DupRate {
				f.stats.MessagesDuplicated++
				dups = append(dups, m)
			}
			if f.cfg.ReorderRate > 0 && f.rng.Float64() < f.cfg.ReorderRate {
				f.stats.MessagesReordered++
				maxDelay := f.cfg.ReorderDelay
				if maxDelay <= 0 {
					maxDelay = time.Millisecond
				}
				extra := maxDelay/2 + time.Duration(f.rng.Int63n(int64(maxDelay/2+1)))
				delayed = append(delayed, m)
				delayedBy = append(delayedBy, extra)
				continue
			}
			filtered = append(filtered, m)
		}
		kept = filtered
	}
	var delay time.Duration
	if len(kept) > 0 || len(dups) > 0 || len(delayed) > 0 {
		delay = f.cfg.BaseLatency
		if f.cfg.Jitter > 0 {
			delay += time.Duration(f.rng.Int63n(int64(f.cfg.Jitter)))
		}
	}
	f.mu.Unlock()

	if watcher != nil {
		for i := range pkts {
			watcher(pkts[i])
		}
	}
	if dropErr != nil {
		return dropErr
	}

	if len(kept) > 0 {
		f.transmit(dst, to, kept, delay)
	}
	for _, m := range dups {
		f.transmit(dst, to, []*types.Message{m}, delay)
	}
	for i, m := range delayed {
		f.transmit(dst, to, []*types.Message{m}, delay+delayedBy[i])
	}
	// Silent loss of the whole frame: the sender gets no error, like UDP on
	// Ethernet.
	return nil
}

// dataPathKind reports whether a message kind belongs to the multicast data
// path, the only traffic duplication and reordering injection applies to.
// It mirrors the node outbox's batchable set.
func dataPathKind(k types.Kind) bool {
	switch k {
	case types.KindCast, types.KindOrder, types.KindStability:
		return true
	}
	return false
}

// transmit clones one frame and delivers it into dst's queue after delay.
// Cloning at send time means the receiver can never observe sender-side
// mutation, and the caller's batch slice is free for reuse the moment
// SendBatch returns.
func (f *Fabric) transmit(dst *port, to types.ProcessID, msgs []*types.Message, delay time.Duration) {
	frame := types.CloneFrame(msgs)
	if delay <= 0 {
		f.deliver(dst, to, frame)
		return
	}
	time.AfterFunc(delay, func() { f.deliver(dst, to, frame) })
}

// deliver puts one cloned frame on dst's queue, or counts it dropped when
// the queue is full.
func (f *Fabric) deliver(dst *port, to types.ProcessID, frame []*types.Message) {
	select {
	case dst.queue <- frame:
		f.mu.Lock()
		f.stats.MessagesDelivered += uint64(len(frame))
		f.stats.PerReceiver[to] += uint64(len(frame))
		f.mu.Unlock()
	default:
		f.mu.Lock()
		f.stats.MessagesDropped += uint64(len(frame))
		f.mu.Unlock()
	}
}

// Stats returns a copy of the fabric's counters.
func (f *Fabric) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := Stats{
		MessagesSent:       f.stats.MessagesSent,
		MessagesDelivered:  f.stats.MessagesDelivered,
		MessagesDropped:    f.stats.MessagesDropped,
		FramesSent:         f.stats.FramesSent,
		MessagesDuplicated: f.stats.MessagesDuplicated,
		MessagesReordered:  f.stats.MessagesReordered,
		BytesSent:          f.stats.BytesSent,
		StabilitySent:      f.stats.StabilitySent,
		PerKind:            make(map[types.Kind]uint64, len(f.stats.PerKind)),
		PerSender:          make(map[types.ProcessID]uint64, len(f.stats.PerSender)),
		PerReceiver:        make(map[types.ProcessID]uint64, len(f.stats.PerReceiver)),
		Faults:             append([]FaultEvent(nil), f.stats.Faults...),
	}
	for k, v := range f.stats.PerKind {
		out.PerKind[k] = v
	}
	for k, v := range f.stats.PerSender {
		out.PerSender[k] = v
	}
	for k, v := range f.stats.PerReceiver {
		out.PerReceiver[k] = v
	}
	return out
}

// ResetStats zeroes all counters and clears the fault-event log. Experiments
// call it between phases so the reported numbers cover only the measured
// interval.
func (f *Fabric) ResetStats() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats = Stats{
		PerKind:     make(map[types.Kind]uint64),
		PerSender:   make(map[types.ProcessID]uint64),
		PerReceiver: make(map[types.ProcessID]uint64),
	}
	f.fanout = make(map[types.ProcessID]map[types.ProcessID]struct{})
}

// Processes returns the ids of all attached (non-crashed) processes.
func (f *Fabric) Processes() []types.ProcessID {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]types.ProcessID, 0, len(f.procs))
	for p := range f.procs {
		out = append(out, p)
	}
	return types.SortProcesses(out)
}

// DistinctReceivers returns how many different processes received at least
// one message since the last ResetStats. Experiment E3 uses it to count how
// many processes were disturbed by a membership change.
func (f *Fabric) DistinctReceivers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.stats.PerReceiver)
}

// DistinctSenders returns how many different processes sent at least one
// message since the last ResetStats.
func (f *Fabric) DistinctSenders() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.stats.PerSender)
}

// MaxFanout returns the largest number of distinct destinations any single
// process sent to since the last ResetStats — the quantity the paper's
// fanout parameter bounds.
func (f *Fabric) MaxFanout() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	max := 0
	for _, set := range f.fanout {
		if len(set) > max {
			max = len(set)
		}
	}
	return max
}

// FanoutOf returns the number of distinct destinations a particular process
// sent to since the last ResetStats.
func (f *Fabric) FanoutOf(p types.ProcessID) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.fanout[p])
}
