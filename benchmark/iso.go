package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/group"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/order"
	"repro/internal/reliability"
	"repro/internal/transport"
	"repro/internal/treecast"
	"repro/internal/types"
	"repro/internal/vclock"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The iso loops time each layer's exported functions alone, with fixed
// iteration counts, from outside the program: nothing is instrumented. Each
// number is the median of isoRepeats repeats. They say what a layer costs per
// message when nothing else runs; the traced run says what it costs in place.
const isoRepeats = 5

// isoTime runs fn (n iterations of the measured call) isoRepeats times and
// returns the median time per iteration in nanoseconds.
func isoTime(n int, fn func(n int)) float64 {
	per := make([]float64, isoRepeats)
	for r := range per {
		start := now()
		fn(n)
		per[r] = float64(now()-start) / float64(n)
	}
	return median(per)
}

func isoPID(site int) types.ProcessID {
	return types.ProcessID{Site: types.SiteID(site), Incarnation: 1}
}

// isoCasts returns n KindCast messages as 8 members would send them:
// round-robin senders, per-sender sequence numbers, 64 B payloads and an
// 8-entry stability report.
func isoCasts(n int, o types.Ordering) []*types.Message {
	stab := make([]types.StabEntry, 8)
	for i := range stab {
		stab[i] = types.StabEntry{Sender: isoPID(i + 1), Seq: uint64(1000 + i)}
	}
	msgs := make([]*types.Message, n)
	for i := range msgs {
		sender := isoPID(i%8 + 1)
		msgs[i] = &types.Message{
			Kind: types.KindCast, From: sender, To: isoPID(9), Group: types.FlatGroup("bench"), View: 8,
			ID: types.MsgID{Sender: sender, Seq: uint64(i/8 + 1)}, Ordering: o,
			Payload: make([]byte, 64), Stab: stab, StabOrd: 7,
		}
	}
	return msgs
}

// discard is a transport.Network whose endpoints drop everything they are
// given: what remains of Node.Send is the node and its outbox.
type discard struct{ inbox chan []*types.Message }

func (d discard) Attach(types.ProcessID) (transport.Endpoint, error) { return d, nil }
func (d discard) PID() types.ProcessID                               { return isoPID(1) }
func (d discard) Send(*types.Message) error                          { return nil }
func (d discard) SendBatch([]*types.Message) error                   { return nil }
func (d discard) Inbox() <-chan []*types.Message                     { return d.inbox }
func (d discard) Close() error                                       { return nil }

// runIso runs every iso loop and writes the iso.* metrics.
func runIso(rep *report, p params) {
	n := func(count int) int { return int(p.scaled(uint64(count))) }
	if err := os.MkdirAll(p.tmpDir, 0o755); err != nil {
		fatal(err)
	}
	isoWire(rep, n)
	isoOrder(rep, n)
	isoNode(rep, n)
	isoNetsim(rep, n)
	isoTCP(rep, n)
	isoWAL(rep, n, filepath.Join(p.tmpDir, "iso-wal"))
	isoKVStore(rep, n)
	isoTreecast(rep, n)
	isoMetrics(rep, n)
}

func isoWire(rep *report, n func(int) int) {
	frame := isoCasts(32, types.Total)
	var buf []byte
	enc := isoTime(n(2000), func(k int) {
		for i := 0; i < k; i++ {
			buf = wire.AppendFrame(buf[:0], frame, types.ProcessID{}, "")
		}
	})
	var dec wire.Decoder
	decode := isoTime(n(2000), func(k int) {
		for i := 0; i < k; i++ {
			if _, err := dec.Decode(buf); err != nil {
				fatal(fmt.Errorf("iso wire: %w", err))
			}
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rounds := n(1000)
	for i := 0; i < rounds; i++ {
		buf = wire.AppendFrame(buf[:0], frame, types.ProcessID{}, "")
		_, _ = dec.Decode(buf) // decoded above without error
	}
	runtime.ReadMemStats(&after)
	rep.put("iso.wire.enc_ns_per_msg", enc/32, "ns")
	rep.put("iso.wire.dec_ns_per_msg", decode/32, "ns")
	rep.put("iso.wire.allocs_per_msg", float64(after.Mallocs-before.Mallocs)/float64(rounds*32), "count")
}

func isoOrder(rep *report, n func(int) int) {
	members := make([]types.ProcessID, 8)
	for i := range members {
		members[i] = isoPID(i + 1)
	}
	count := n(16000)
	fifo, causal, total := isoCasts(count, types.FIFO), isoCasts(count, types.Causal), isoCasts(count, types.Total)
	clock := vclock.New(8)
	for i, m := range causal {
		clock = clock.Tick(i % 8)
		m.VT = clock.Copy()
	}
	var delivered int
	rep.put("iso.order.fifo_ns_per_msg", isoTime(count, func(int) {
		f := order.NewFIFO()
		for _, m := range fifo {
			delivered += len(f.Add(m))
		}
	}), "ns")
	rep.put("iso.order.causal_ns_per_msg", isoTime(count, func(int) {
		c := order.NewCausal(members)
		for _, m := range causal {
			delivered += len(c.Add(m))
		}
	}), "ns")
	rep.put("iso.order.total_ns_per_msg", isoTime(count, func(int) {
		t := order.NewTotal()
		for i, m := range total {
			delivered += len(t.AddData(m))
			delivered += len(t.AddOrder(uint64(i+1), m.ID))
			if i%256 == 255 {
				t.SetStable(uint64(i + 1))
			}
		}
	}), "ns")
	if delivered != 3*isoRepeats*count {
		fatal(fmt.Errorf("iso order: the engines released %d of %d messages", delivered, 3*isoRepeats*count))
	}

	a, b := vclock.New(8), vclock.New(8)
	var deliverable int
	rep.put("iso.vclock.ns_per_op", isoTime(n(200000), func(k int) {
		for i := 0; i < k; i++ {
			msg := a.Copy().Tick(i % 8)
			if vclock.Deliverable(msg, i%8, b) {
				deliverable++
			}
			a, b = msg, b.Merge(msg)
		}
	}), "ns")

	rep.put("iso.reliability.note_ns_per_msg", isoTime(count, func(int) {
		t := reliability.NewTracker(members[0], members, nil)
		for i, m := range causal {
			t.Note(m)
			if i%32 == 31 {
				vec := t.StabVector()
				for _, from := range members {
					t.Report(from, vec, 0)
				}
			}
		}
	}), "ns")
}

func isoNode(rep *report, n func(int) int) {
	nd, err := node.New(isoPID(1), discard{inbox: make(chan []*types.Message)})
	if err != nil {
		fatal(fmt.Errorf("iso node: %w", err))
	}
	nd.Start()
	defer nd.Stop()
	rep.put("iso.node.send_ns_per_msg", isoTime(n(100000), func(k int) {
		for i := 0; i < k; i++ {
			_ = nd.Send(isoPID(2+i%7), &types.Message{Kind: types.KindCast}) // the discarding endpoint cannot fail
		}
		_ = nd.Call(func() {}) // wait for the actor, which flushes the outbox when idle
	}), "ns")
	rep.put("iso.node.call_us", isoTime(n(20000), func(k int) {
		for i := 0; i < k; i++ {
			_ = nd.Call(func() {})
		}
	})/1e3, "us")
}

func isoNetsim(rep *report, n func(int) int) {
	f := netsim.New(netsim.Config{})
	if _, err := f.Attach(isoPID(1)); err != nil {
		fatal(fmt.Errorf("iso netsim: %w", err))
	}
	inbox, err := f.Attach(isoPID(9))
	if err != nil {
		fatal(fmt.Errorf("iso netsim: %w", err))
	}
	for _, size := range []int{1, 32} {
		frame := isoCasts(size, types.Causal)
		for _, m := range frame {
			m.From = isoPID(1)
		}
		per := isoTime(n(20000), func(k int) {
			for i := 0; i < k; i++ {
				if err := f.SendBatch(frame); err != nil {
					fatal(fmt.Errorf("iso netsim: %w", err))
				}
				<-inbox
			}
		})
		if size == 1 {
			rep.put("iso.netsim.frame_ns", per, "ns")
		} else {
			rep.put("iso.netsim.msg_ns_batched", per/float64(size), "ns")
		}
	}
}

func isoTCP(rep *report, n func(int) int) {
	tcp := transport.NewTCP()
	a, err := tcp.Attach(isoPID(1))
	if err != nil {
		fatal(fmt.Errorf("iso tcp: %w", err))
	}
	defer a.Close()
	b, err := tcp.Attach(isoPID(9))
	if err != nil {
		fatal(fmt.Errorf("iso tcp: %w", err))
	}
	defer b.Close()
	ping := isoCasts(1, types.Causal)[0]
	pong := isoCasts(1, types.Causal)[0]
	ping.From, ping.To, pong.From, pong.To = isoPID(1), isoPID(9), isoPID(9), isoPID(1)
	rep.put("iso.transport.tcp_rtt_us", isoTime(n(2000), func(k int) {
		for i := 0; i < k; i++ {
			if err := a.Send(ping); err != nil {
				fatal(fmt.Errorf("iso tcp: %w", err))
			}
			<-b.Inbox()
			if err := b.Send(pong); err != nil {
				fatal(fmt.Errorf("iso tcp: %w", err))
			}
			<-a.Inbox()
		}
	})/1e3, "us")

	// A one-way stream of 32-message frames. The sender stays within 64
	// frames of the receiver: the transport's per-peer queue holds 256 and
	// sheds the oldest beyond that.
	frame := isoCasts(32, types.Causal)
	for _, m := range frame {
		m.From = isoPID(1)
	}
	var received atomic.Int64
	stop := make(chan struct{})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			select {
			case <-b.Inbox():
				received.Add(1)
			case <-stop:
				return
			}
		}
	}()
	var sent int64
	perFrame := isoTime(n(3000), func(k int) {
		for i := 0; i < k; i++ {
			for sent-received.Load() >= 64 {
				runtime.Gosched()
			}
			if err := a.SendBatch(frame); err != nil {
				fatal(fmt.Errorf("iso tcp: %w", err))
			}
			sent++
		}
		for received.Load() < sent {
			runtime.Gosched()
		}
	})
	close(stop)
	<-drained
	rep.put("iso.transport.tcp_msgs_s", 32*1e9/perFrame, "1/s")
}

func isoWAL(rep *report, n func(int) int, dir string) {
	defer os.RemoveAll(dir) // scratch only
	rec := isoCasts(1, types.Total)[0]
	rec.Payload = make([]byte, 540) // a kv put of a 512 B value
	log, _, err := wal.Open(filepath.Join(dir, "append.wal"))
	if err != nil {
		fatal(fmt.Errorf("iso wal: %w", err))
	}
	var appends, syncs []float64
	for r := 0; r < isoRepeats; r++ {
		start := now()
		for i := 0; i < 256; i++ {
			if err := log.Append(rec); err != nil {
				fatal(fmt.Errorf("iso wal: %w", err))
			}
		}
		appended := now()
		if err := log.Sync(); err != nil {
			fatal(fmt.Errorf("iso wal: %w", err))
		}
		appends = append(appends, float64(appended-start)/256)
		syncs = append(syncs, float64(now()-appended))
	}
	rep.put("iso.wal.append_ns", median(appends), "ns")
	rep.put("iso.wal.sync_us", median(syncs)/1e3, "us")
	if err := log.Close(); err != nil {
		fatal(fmt.Errorf("iso wal: %w", err))
	}

	path := filepath.Join(dir, "replay.wal")
	log, _, err = wal.Open(path)
	if err != nil {
		fatal(fmt.Errorf("iso wal: %w", err))
	}
	records := n(100000)
	for i := 0; i < records; i++ {
		if err := log.Append(rec); err != nil {
			fatal(fmt.Errorf("iso wal: %w", err))
		}
	}
	if err := log.Close(); err != nil {
		fatal(fmt.Errorf("iso wal: %w", err))
	}
	rep.put("iso.wal.replay_ms", isoTime(1, func(int) {
		l, got, err := wal.Open(path)
		if err != nil || len(got.Deliveries) != records {
			fatal(fmt.Errorf("iso wal: replay recovered %d of %d records: %v", len(got.Deliveries), records, err))
		}
		_ = l.Close() // nothing was appended
	})/1e6, "ms")
}

func isoKVStore(rep *report, n func(int) int) {
	keys := n(20000)
	ops := make([]group.Delivery, keys)
	value := string(make([]byte, 512))
	for i := range ops {
		ops[i].Payload = kvstore.EncodeOp(kvstore.OpPut, uint64(i+1), fmt.Sprintf("k%07d-%07d", i, i), value)
	}
	var store *kvstore.Store
	rep.put("iso.kvstore.apply_ns", isoTime(keys, func(int) {
		store = kvstore.New()
		for _, d := range ops {
			store.Apply(d)
		}
	}), "ns")
	rep.put("iso.kvstore.snapshot_ms", isoTime(1, func(int) {
		if b, err := store.Snapshot(); err != nil || len(b) < keys*512 {
			fatal(fmt.Errorf("iso kvstore: snapshot of %d bytes: %v", len(b), err))
		}
	})/1e6, "ms")
}

func isoTreecast(rep *report, n func(int) int) {
	for _, leaves := range []int{6, 512} {
		desc := make([]treecast.LeafDescriptor, leaves)
		for i := range desc {
			desc[i] = treecast.LeafDescriptor{
				ID:       types.BranchGroup("bench", uint32(i)),
				Contacts: []types.ProcessID{isoPID(2*i + 1), isoPID(2*i + 2)},
				Size:     6,
			}
		}
		per := isoTime(max(1, n(12000)/leaves), func(k int) {
			for i := 0; i < k; i++ {
				if _, err := treecast.Plan(desc, 4); err != nil {
					fatal(fmt.Errorf("iso treecast: %w", err))
				}
			}
		})
		rep.put(fmt.Sprintf("iso.treecast.plan%d_us", leaves), per/1e3, "us")
	}
}

func isoMetrics(rep *report, n func(int) int) {
	samples := n(100000)
	var h *metrics.Histogram
	rep.put("iso.metrics.hist_observe_ns", isoTime(samples, func(k int) {
		h = metrics.NewHistogram()
		for i := 0; i < k; i++ {
			h.Observe(time.Duration(i*7919%1000003) * time.Nanosecond)
		}
	}), "ns")
	rep.put("iso.metrics.hist_pct_us", isoTime(1, func(int) {
		if h.Percentile(99) <= 0 {
			fatal(fmt.Errorf("iso metrics: empty histogram"))
		}
	})/1e3, "us")
}
