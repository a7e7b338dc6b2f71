package node_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/boot"
	"repro/internal/fdetect"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/reliability"
	"repro/internal/transport"
	"repro/internal/types"
)

// TestSharedTemplateGroupFlood floods a 4-member group from every member at
// once with a 50µs flush window and 4-message frames, so window-timer
// flushes read shared templates while the actors keep casting and
// self-delivering. Run under -race it is the check that nothing writes a
// template after SendCopies; every run checks that each payload reaches
// every member intact, exactly once.
func TestSharedTemplateGroupFlood(t *testing.T) {
	const members, casts = 4, 400
	net := transport.NewMemory(netsim.New(netsim.DefaultConfig()))
	gid := types.FlatGroup("flood")
	var mu sync.Mutex
	got := make([]map[string]int, members)
	groups := make([]*group.Group, members)
	for i := range groups {
		n, err := node.NewWithBatching(types.ProcessID{Site: types.SiteID(i + 1)}, net,
			node.Batching{MaxBatch: 4, Window: 50 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Stop)
		stack := group.NewStack(n, nil)
		n.Start()
		got[i] = map[string]int{}
		cfg := group.Config{OnDeliver: func(d group.Delivery) {
			mu.Lock()
			got[i][string(d.Payload)]++
			mu.Unlock()
		}}
		if i == 0 {
			groups[i], err = stack.Create(gid, cfg)
		} else {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			groups[i], err = stack.Join(ctx, gid, types.ProcessID{Site: 1}, cfg)
			cancel()
		}
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
	waitFor(t, "a full view", func() bool {
		for _, g := range groups {
			if g.Size() != members {
				return false
			}
		}
		return true
	})

	payload := func(sender, k int) []byte {
		return append([]byte(fmt.Sprintf("%d/%d/", sender, k)), bytes.Repeat([]byte{byte(k)}, k%97)...)
	}
	// ABCAST exercises the sequencer's shared relayed copies and order
	// announcements and a sender delivering its own frozen cast; CBCAST
	// the shared VT.
	orderings := []types.Ordering{types.Total, types.Causal}
	var wg sync.WaitGroup
	for s, g := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < casts; k++ {
				g.CastAsync(orderings[k%len(orderings)], payload(s, k))
			}
		}()
	}
	wg.Wait()
	waitFor(t, "every cast everywhere", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, m := range got {
			if len(m) < members*casts {
				return false
			}
		}
		return true
	})
	mu.Lock()
	defer mu.Unlock()
	for i, m := range got {
		if len(m) != members*casts {
			t.Errorf("member %d delivered %d distinct payloads, want %d", i, len(m), members*casts)
		}
		for s := 0; s < members; s++ {
			for k := 0; k < casts; k++ {
				if c := m[string(payload(s, k))]; c != 1 {
					t.Errorf("member %d delivered cast %d/%d %d times, want once", i, s, k, c)
				}
			}
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSharedArraysNeverWritten proves the data-path contract: a cast, an
// order announcement or a stability report is frozen once sent — every
// scalar and every array of its envelope — and the simulated network hands
// every receiver the sender's envelope itself. Two taps watch an 8-member
// group flood FIFO, CBCAST and ABCAST casts under loss, duplication and
// reordering — so gaps are NAKed and served, held casts are re-notified —
// and lose a member mid-flood, so the flush forwards unstable casts. The
// send tap keeps the frozen envelope behind every data-path packet with a
// checksum of the whole envelope; the receive tap checks that every
// data-path envelope a member gets is one of those, the sender's own
// pointer. At the end every envelope must still match its checksum:
// nothing on the sender, the receivers or the recovery paths wrote into
// one (order.Total stamping a delivered cast's Seq, say).
func TestSharedArraysNeverWritten(t *testing.T) {
	const members, casts = 8, 90
	fabric := netsim.New(netsim.Config{Seed: 32})
	dataPath := func(k types.Kind) bool {
		return k == types.KindCast || k == types.KindOrder || k == types.KindStability
	}

	var tapMu sync.Mutex
	frozen := map[*types.Message]uint64{} // every frozen envelope sent, with its checksum
	unlinked, received, ownResends := 0, 0, 0
	var strangers []*types.Message // data-path envelopes received that no sender froze
	fabric.Watch(func(p netsim.Packet) {
		if !dataPath(p.Msg.Kind) {
			return
		}
		fm := p.Msg.Frozen()
		tapMu.Lock()
		defer tapMu.Unlock()
		if fm == nil {
			unlinked++
			return
		}
		if fm.Kind == types.KindCast && fm.StabOrd == 0 && fm.From == fm.ID.Sender {
			ownResends++ // a sender re-sending its own held cast
		}
		if _, ok := frozen[fm]; !ok {
			frozen[fm] = envelopeSum(fm)
		}
	})
	// The watch tap runs before the fabric delivers the packet, so a
	// received envelope the sender froze is already in the map.
	net := &inboundTap{Memory: transport.NewMemory(fabric), done: make(chan struct{}), tap: func(frame []*types.Message) {
		tapMu.Lock()
		defer tapMu.Unlock()
		for _, m := range frame {
			if !dataPath(m.Kind) {
				continue
			}
			received++
			if _, ok := frozen[m]; !ok {
				strangers = append(strangers, m)
			}
		}
	}}
	procs := make([]*boot.Proc, members)
	t.Cleanup(func() {
		for _, p := range procs {
			if p != nil {
				p.Stop()
			}
		}
		close(net.done)
	})
	for i := range procs {
		p, err := boot.Spawn(types.ProcessID{Site: types.SiteID(i + 1), Incarnation: 1}, net, fdetect.Config{}, node.Batching{}, "")
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
	}

	// One group per ordering: FIFO sequences a sender's casts by their
	// group-wide send sequence, so it does not mix with the others in one
	// group.
	orderings := []types.Ordering{types.FIFO, types.Causal, types.Total}
	var mu sync.Mutex
	type castKey struct { // a cast's identity: its send sequence restarts per view
		o    types.Ordering
		view types.ViewID
		id   types.MsgID
	}
	got := make([]map[castKey]int, members)   // deliveries per member
	groups := make([][]*group.Group, members) // [member][ordering]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := range groups {
		got[i] = map[castKey]int{}
		cfg := group.Config{
			OnDeliver: func(d group.Delivery) {
				mu.Lock()
				got[i][castKey{d.Ordering, d.View, d.ID}]++
				mu.Unlock()
			},
			// Under loss the flush's cut can take a while to fill, longer
			// still under the race detector; the default grace would
			// install without it and drop casts that every survivor must
			// deliver.
			InstallGrace: 10 * time.Second,
		}
		for _, o := range orderings {
			gid := types.FlatGroup("frozen-" + o.String())
			var g *group.Group
			var err error
			if i == 0 {
				g, err = procs[i].Stack.Create(gid, cfg)
			} else {
				g, err = procs[i].Stack.Join(ctx, gid, procs[0].PID(), cfg)
			}
			if err != nil {
				t.Fatalf("member %d, %s: %v", i, o, err)
			}
			groups[i] = append(groups[i], g)
		}
	}
	waitFor(t, "full views", func() bool {
		for _, gs := range groups {
			for _, g := range gs {
				if g.Size() != members {
					return false
				}
			}
		}
		return true
	})

	// Loss on the data path only: the membership protocol assumes reliable
	// links, the data path recovers by NAK, re-notify and flush.
	rng := rand.New(rand.NewSource(32))
	removeLoss := fabric.AddDropRule(func(p netsim.Packet) bool {
		return dataPath(p.Msg.Kind) && rng.Float64() < 0.05 // rules run under the fabric's lock
	})
	fabric.SetDuplication(0.05)
	fabric.SetReordering(0.05, time.Millisecond)

	payload := func(sender, k int) []byte {
		return append([]byte(fmt.Sprintf("%d/%d/", sender, k)), bytes.Repeat([]byte{byte(k)}, k%61)...)
	}
	const victim = members - 1
	victimID := procs[victim].PID()
	var wg sync.WaitGroup
	for s, gs := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < casts; k++ {
				o := k % len(orderings)
				if k%4 == 0 {
					// A held cast keeps a resiliency waiter, which re-notify
					// serves, re-sending at the waiter's ticks 2, 4, 8, …
					// until reports cover it. A few waiters suffice.
					gs[o].CastAsyncHeld(orderings[o], payload(s, k), func(error) {})
				} else {
					gs[o].CastAsync(orderings[o], payload(s, k))
				}
				if k == casts/2 && s == 0 {
					// Crash the victim and tell the others, as
					// Runtime.Crash and InjectFailure do.
					fabric.Crash(victimID)
					procs[victim].Halt()
					for _, p := range procs[:victim] {
						p.Node.Do(func() { p.Stack.ReportSuspicion(victimID) })
					}
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, "every survivor's cast at every survivor", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < victim; i++ {
			n := 0
			for k := range got[i] {
				if k.id.Sender != victimID {
					n++
				}
			}
			if n < victim*casts {
				return false
			}
		}
		return true
	})
	removeLoss()

	var rs reliability.Stats
	for _, p := range procs[:victim] {
		rs.Add(p.Stack.ReliabilityStats())
	}
	// Both taps stay installed: holding their lock parks them, so nothing
	// sent from here on can reach a receiver unrecorded.
	tapMu.Lock()
	defer tapMu.Unlock()
	t.Logf("%d frozen envelopes, %d data-path deliveries; NAKs served %d, flush-forwarded %d, own re-sends %d",
		len(frozen), received, rs.NaksServed, rs.Forwarded, ownResends)
	if rs.NaksServed == 0 || rs.Forwarded == 0 || ownResends == 0 {
		t.Errorf("a recovery path never ran: NAKs served %d, flush-forwarded %d, own re-sends %d",
			rs.NaksServed, rs.Forwarded, ownResends)
	}
	if unlinked > 0 {
		t.Errorf("%d data-path packets were sent without a link to a frozen envelope", unlinked)
	}
	if received == 0 || len(strangers) > 0 {
		t.Errorf("of %d data-path deliveries, %d were not a sender's frozen envelope (first: %v)",
			received, len(strangers), append(strangers, nil)[0])
	}
	for m, sum := range frozen {
		if envelopeSum(m) != sum {
			t.Fatalf("a shared %v envelope was written after it was sent: %+v", m.Kind, *m)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < victim; i++ {
		for k, n := range got[i] {
			if n != 1 {
				t.Errorf("member %d delivered %s cast %v %d times, want once", i, k.o, k.id, n)
			}
		}
	}
}

// inboundTap is a memory network whose endpoints pass every inbound frame
// past tap, on a pump goroutine per endpoint, before the node sees it.
type inboundTap struct {
	*transport.Memory
	tap  func([]*types.Message)
	done chan struct{} // closed to stop the pumps
}

type tappedEndpoint struct {
	transport.Endpoint
	inbox chan []*types.Message
}

func (e *tappedEndpoint) Inbox() <-chan []*types.Message { return e.inbox }

func (n *inboundTap) Attach(pid types.ProcessID) (transport.Endpoint, error) {
	ep, err := n.Memory.Attach(pid)
	if err != nil {
		return nil, err
	}
	te := &tappedEndpoint{Endpoint: ep, inbox: make(chan []*types.Message, 64)}
	go func(in <-chan []*types.Message) {
		for {
			select {
			case frame := <-in:
				n.tap(frame)
				select {
				case te.inbox <- frame:
				case <-n.done:
					return
				}
			case <-n.done:
				return
			}
		}
	}(ep.Inbox())
	return te, nil
}

// envelopeSum checksums a whole envelope: every scalar field and every
// array a message carries.
func envelopeSum(m *types.Message) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	pid := func(p types.ProcessID) {
		put(uint64(p.Site)<<32 | uint64(p.Incarnation))
		put(uint64(p.Index))
	}
	put(uint64(m.Kind))
	pid(m.From)
	pid(m.To)
	h.Write([]byte(m.Group.Name))
	put(uint64(m.Group.Kind))
	put(uint64(m.View))
	pid(m.ID.Sender)
	put(m.ID.Seq)
	put(uint64(m.Ordering))
	put(m.Seq)
	put(m.Corr)
	pid(m.ReplyTo)
	put(uint64(m.Hop)<<8 | uint64(m.TTL))
	put(m.StabOrd)
	h.Write([]byte(m.Err))
	for _, v := range m.VT {
		put(v)
	}
	for _, e := range m.Stab {
		pid(e.Sender)
		put(e.Seq)
	}
	h.Write(m.Payload)
	for _, v := range m.Path {
		put(uint64(v))
	}
	for _, v := range m.Group.Path {
		put(uint64(v))
	}
	return h.Sum64()
}
