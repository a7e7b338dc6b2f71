package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	isis "repro"
	"repro/internal/core"
	"repro/internal/fdetect"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/types"
)

// The tests in this file drive the hierarchy recovery layer directly:
// representative failover when a stage's first contact is silently dead,
// NAK/retransmit repair of a dropped inter-leaf treecast frame, and client
// re-routing away from a crashed cached server. "Silently dead" is modelled
// by stopping only the node actor (reached through the victim's leaf
// membership), not the fabric port, so sends to the victim succeed and
// vanish — the hard case that synchronous send errors never reveal.

// deliveryLog records tree-broadcast deliveries per process.
type deliveryLog struct {
	mu    sync.Mutex
	seen  []map[string]int
	total int
}

func newDeliveryLog(n int) *deliveryLog {
	l := &deliveryLog{seen: make([]map[string]int, n)}
	for i := range l.seen {
		l.seen[i] = make(map[string]int)
	}
	return l
}

func (l *deliveryLog) record(i int, payload []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seen[i][string(payload)]++
	l.total++
}

func (l *deliveryLog) count(i int, payload string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seen[i][payload]
}

// recoveryCfg is a service config with the recovery timer fast enough for
// test timescales.
func recoveryCfg(fanout, resiliency int, log *deliveryLog, i int) core.Config {
	return core.Config{
		Fanout:           fanout,
		Resiliency:       resiliency,
		OpTimeout:        2 * time.Second,
		RecoveryInterval: 10 * time.Millisecond,
		NakTicks:         1,
		StageRetryTicks:  2,
		StageRetries:     5,
		RequestHandler: func(p []byte) []byte {
			return append([]byte("echo:"), p...)
		},
		OnBroadcast: func(p []byte) { log.record(i, p) },
	}
}

// leafKeyOf groups the agents by their current leaf.
func leavesByKey(agents []*core.Agent) map[string][]int {
	out := make(map[string][]int)
	for i, a := range agents {
		key := a.LeafID().Key()
		out[key] = append(out[key], i)
	}
	return out
}

func waitDelivered(t *testing.T, log *deliveryLog, members []int, payload string, deadline time.Duration) {
	t.Helper()
	until := time.Now().Add(deadline)
	for {
		missing := -1
		for _, i := range members {
			if log.count(i, payload) == 0 {
				missing = i
				break
			}
		}
		if missing < 0 {
			return
		}
		if time.Now().After(until) {
			t.Fatalf("member %d never delivered %q", missing, payload)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBroadcastSurvivesDeadRepresentative proves the satellite fix: a stage
// whose first contact (the leaf coordinator, per the leader's plan) is
// silently dead must fail over to the next contact instead of stalling the
// subtree forever.
func TestBroadcastSurvivesDeadRepresentative(t *testing.T) {
	const n = 9
	_, procs := spawn(t, n)
	log := newDeliveryLog(n)
	agents := buildService(t, procs, n, func(i int) core.Config {
		return recoveryCfg(3, 2, log, i)
	})

	// Pick a victim leaf that does not contain the initiator, and kill its
	// coordinator the silent way: the node actor stops, the fabric port
	// stays attached, so stage frames to it are accepted and vanish.
	founderLeaf := agents[0].LeafID().Key()
	var victim = -1
	for key, members := range leavesByKey(agents) {
		if key == founderLeaf {
			continue
		}
		coord := agents[members[0]].Leaf().CurrentView().Coordinator()
		for _, i := range members {
			if procs[i].ID() == coord {
				victim = i
			}
		}
		if victim >= 0 {
			break
		}
	}
	if victim < 0 {
		t.Fatal("no victim leaf found")
	}
	agents[victim].Leaf().Stack().Node().Stop()

	covered, err := agents[0].Broadcast(ctxT(t), []byte("b1"))
	if err != nil {
		t.Fatalf("broadcast with dead representative: %v", err)
	}
	if covered < n-1 {
		t.Errorf("covered = %d, want at least %d", covered, n-1)
	}
	var live []int
	for i := range agents {
		if i != victim {
			live = append(live, i)
		}
	}
	waitDelivered(t, log, live, "b1", 5*time.Second)
	for _, i := range live {
		if got := log.count(i, "b1"); got != 1 {
			t.Errorf("member %d delivered b1 %d times", i, got)
		}
	}
}

// TestTreeCastLossRepairedByNak proves the acceptance criterion: a dropped
// inter-leaf treecast frame is repaired via NAK/retransmit and delivered to
// every live leaf member — with stage retries disabled, so nothing but the
// reliability path can recover it.
func TestTreeCastLossRepairedByNak(t *testing.T) {
	const n = 9
	rt, procs := spawn(t, n)
	log := newDeliveryLog(n)
	agents := buildService(t, procs, n, func(i int) core.Config {
		cfg := recoveryCfg(3, 2, log, i)
		cfg.StageRetries = -1 // isolate the NAK path
		cfg.OpTimeout = 500 * time.Millisecond
		return cfg
	})

	victims := make(map[types.ProcessID]bool)
	founderLeaf := agents[0].LeafID().Key()
	var victimIdx []int
	for key, members := range leavesByKey(agents) {
		if key == founderLeaf {
			continue
		}
		for _, i := range members {
			victims[procs[i].ID()] = true
			victimIdx = append(victimIdx, i)
		}
		break
	}
	if len(victimIdx) == 0 {
		t.Fatal("no victim leaf found")
	}

	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	if _, err := agents[0].Broadcast(ctxT(t), []byte("b1")); err != nil {
		t.Fatal(err)
	}
	waitDelivered(t, log, all, "b1", 5*time.Second)

	// Drop every treecast stage frame addressed to the victim leaf while
	// broadcast b2 is in flight: the whole leaf misses the record, and with
	// retries off the loss is permanent until the NAK path repairs it.
	remove := rt.Fabric().AddDropRule(func(p netsim.Packet) bool {
		return p.Msg.Kind == types.KindTreeCast && victims[p.To]
	})
	if _, err := agents[0].Broadcast(ctxT(t), []byte("b2")); err != nil {
		t.Fatal(err)
	}
	remove()
	for _, i := range victimIdx {
		if log.count(i, "b2") != 0 {
			t.Fatalf("drop rule leaked: member %d saw b2 immediately", i)
		}
	}

	// The next broadcast exposes the gap (seq 3 arrives with seq 2 missing);
	// the victims NAK, any holder retransmits, the leaf heals.
	if _, err := agents[0].Broadcast(ctxT(t), []byte("b3")); err != nil {
		t.Fatal(err)
	}
	waitDelivered(t, log, all, "b3", 5*time.Second)
	waitDelivered(t, log, all, "b2", 5*time.Second)
	for _, i := range all {
		for _, p := range []string{"b1", "b2", "b3"} {
			if got := log.count(i, p); got != 1 {
				t.Errorf("member %d delivered %s %d times", i, p, got)
			}
		}
	}
	var naksSent, naksServed uint64
	for _, a := range agents {
		s := a.RecoveryStats()
		naksSent += s.NaksSent
		naksServed += s.NaksServed
	}
	if naksSent == 0 || naksServed == 0 {
		t.Errorf("repair did not go through the NAK path: sent=%d served=%d", naksSent, naksServed)
	}
}

// TestLeaderGroupReplenishesAfterLeaderCrash proves the wipeout fix the
// service soak surfaced: leader-group membership used to grow only at join
// time, so every leader crash shrank the group permanently and enough
// crashes left the hierarchy headless. The surviving coordinator must
// recruit replacements back up to LeaderSize, push the refreshed contacts to
// the leaves, and keep broadcasts working.
func TestLeaderGroupReplenishesAfterLeaderCrash(t *testing.T) {
	const n = 9
	// Heartbeats on: the surviving leader has to *detect* the crashes before
	// it can react to them.
	_, procs := spawn(t, n, isis.WithDetector(fdetect.Config{Interval: 20 * time.Millisecond, Timeout: 100 * time.Millisecond}))
	log := newDeliveryLog(n)
	agents := buildService(t, procs, n, func(i int) core.Config {
		cfg := recoveryCfg(3, 2, log, i)
		cfg.LeaderSize = 3
		return cfg
	})

	var leaders, others []int
	for i, a := range agents {
		if a.IsLeader() {
			leaders = append(leaders, i)
		} else {
			others = append(others, i)
		}
	}
	if len(leaders) != 3 {
		t.Fatalf("initial leader count = %d, want 3", len(leaders))
	}

	// Crash two of the three leaders — including the founder, so the
	// replenishment runs on a failed-over coordinator. Silent death again:
	// the node actor stops, sends to it keep succeeding and vanish.
	dead := map[types.ProcessID]bool{}
	for _, i := range leaders[:2] {
		dead[procs[i].ID()] = true
		agents[i].Leaf().Stack().Node().Stop()
	}
	live := []int{leaders[2]}
	live = append(live, others...)

	// The surviving leader's failure detector evicts the dead members, the
	// new coordinator recruits replacements, and the leader group returns to
	// full strength.
	deadline := time.Now().Add(15 * time.Second)
	for {
		count := 0
		for _, i := range live {
			if agents[i].IsLeader() {
				count++
			}
		}
		if count == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leader group never replenished: %d live leaders, want 3", count)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The refreshed contact list reaches the leaves: no live member keeps
	// pointing at a dead leader.
	deadline = time.Now().Add(10 * time.Second)
	for {
		stale := -1
		for _, i := range live {
			for _, p := range agents[i].LeaderContacts() {
				if dead[p] {
					stale = i
				}
			}
		}
		if stale < 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("member %d still lists a dead leader in its contacts", stale)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// And the hierarchy still works end to end: a broadcast initiated at a
	// non-leader reaches every live member exactly once.
	if _, err := agents[others[0]].Broadcast(ctxT(t), []byte("after")); err != nil {
		t.Fatalf("broadcast after replenishment: %v", err)
	}
	waitDelivered(t, log, live, "after", 5*time.Second)
	for _, i := range live {
		if got := log.count(i, "after"); got != 1 {
			t.Errorf("member %d delivered %d copies", i, got)
		}
	}
}

// TestClientRequestFailsOverFromDeadServer proves the satellite fix: a
// client whose cached leaf coordinator dies silently re-routes to another
// live leaf instead of hanging or erroring out.
func TestClientRequestFailsOverFromDeadServer(t *testing.T) {
	const n = 8
	_, procs := spawn(t, n+1)
	log := newDeliveryLog(n)
	agents := buildService(t, procs, n, func(i int) core.Config {
		return recoveryCfg(4, 2, log, i)
	})

	client := procs[n].NewServiceClient("svc", procs[0].ID())
	client.AttemptTimeout = 300 * time.Millisecond

	// Prime the cache with a server other than the entry point (requests
	// round-robin over leaves, so a couple of tries suffice).
	var victimPID types.ProcessID
	for try := 0; try < 6; try++ {
		if _, err := client.Request(ctxT(t), []byte("warm")); err != nil {
			t.Fatal(err)
		}
		if s := client.CachedServer(); !s.IsNil() && s != procs[0].ID() {
			victimPID = s
			break
		}
	}
	if victimPID.IsNil() {
		t.Fatal("never cached a non-entry server")
	}
	victim := -1
	for i := 0; i < n; i++ {
		if procs[i].ID() == victimPID {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatalf("cached server %v is not a cluster member", victimPID)
	}
	// Silent death: the node stops consuming, the fabric keeps accepting.
	agents[victim].Leaf().Stack().Node().Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
	defer cancel()
	reply, err := client.Request(ctx, []byte("after-crash"))
	if err != nil {
		t.Fatalf("request after cached server died: %v", err)
	}
	if !bytes.Equal(reply, []byte("echo:after-crash")) {
		t.Fatalf("reply = %q", reply)
	}
	if s := client.CachedServer(); s == victimPID {
		t.Error("client still bound to the dead server")
	}
}

// TestLeaderCoordinatorCrashBetweenPlacementAndReplication pins the leader
// tree's replication order: a placement answer is an external effect, and
// it must not outlive a leader coordinator crash that loses the tree change
// behind it. The coordinator places a joiner into a new leaf and crashes. At
// the survivor's install of the view without it, no joiner may hold a leaf
// the survivor's tree lacks. Cut off from the survivor, the coordinator can
// get no quorum for the placement, so the join must fail; connected, the
// joiner is placed and the survivor's tree holds its leaf.
func TestLeaderCoordinatorCrashBetweenPlacementAndReplication(t *testing.T) {
	for _, partitioned := range []bool{true, false} {
		name := "connected"
		if partitioned {
			name = "partitioned"
		}
		t.Run(name, func(t *testing.T) { testCrashAfterPlacement(t, partitioned) })
	}
}

func testCrashAfterPlacement(t *testing.T, partitioned bool) {
	rt, procs := spawn(t, 3)
	cfg := func(int) core.Config {
		// Fanout 2 caps leaves at two members, so the third process founds a
		// new leaf.
		return core.Config{Fanout: 2, Resiliency: 2, LeaderSize: 2, OpTimeout: time.Second,
			RecoveryInterval: 10 * time.Millisecond}
	}
	agents := buildService(t, procs, 2, cfg)
	coord, surv := procs[0].ID(), procs[1].ID()
	if isis.Await(within(t, 5*time.Second), func() bool {
		return agents[1].IsLeader() && len(agents[1].LeaderContacts()) == 2 &&
			agents[1].Tree().TotalMembers() == 2
	}) != nil {
		t.Fatal("second member never joined the leader group with the tree")
	}

	// Keep leaf reports away from the survivor so none can heal its tree
	// before the check, and cut the two leader members apart if asked.
	rt.Fabric().AddDropRule(func(p netsim.Packet) bool {
		cut := p.From == coord && p.To == surv || p.From == surv && p.To == coord
		return partitioned && cut || p.To == surv && p.Msg.Kind == types.KindHLeafReport
	})
	type joined struct {
		agent *core.Agent
		err   error
	}
	result := make(chan joined, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		a, err := procs[2].JoinService(ctx, "svc", coord, cfg(2))
		result <- joined{a, err}
	}()
	// Crash the coordinator once it has decided the placement: the joiner
	// holds it, or the coordinator's own tree shows it.
	var res *joined
	if isis.Await(within(t, 2*time.Second), func() bool {
		select {
		case r := <-result:
			res = &r
			return true
		default:
			return agents[0].Tree().TotalMembers() == 3
		}
	}) != nil {
		t.Fatal("the coordinator never decided the placement")
	}
	rt.Crash(procs[0])
	rt.InjectFailure(procs[0])
	if isis.Await(within(t, 5*time.Second), func() bool {
		return !types.ContainsProcess(agents[1].LeaderContacts(), coord)
	}) != nil {
		t.Fatal("survivor never installed a leader view without the coordinator")
	}
	tree := agents[1].Tree()
	if res == nil {
		select {
		case r := <-result:
			res = &r
		case <-time.After(3 * time.Second):
			t.Fatal("the join never returned")
		}
	}
	if partitioned {
		if res.err == nil {
			t.Fatalf("joiner placed into %v without the survivor's acknowledgement", res.agent.LeafID())
		}
		return
	}
	if res.err != nil {
		t.Fatalf("join with both leader members connected: %v", res.err)
	}
	if id := res.agent.LeafID(); id.Name == "" {
		t.Fatal("joined agent has no leaf")
	} else if _, ok := tree.Lookup(id); !ok {
		t.Fatalf("joiner holds leaf %v, which the surviving leader's tree lacks", id)
	}
}

// TestRecruitWithoutCheckpointRejoinsLeaderGroup: the leader group's
// checkpoint is the only whole-tree transfer. A recruit whose checkpoint
// never arrives must not serve as a leader member with the empty tree it
// started from; once the checkpoint gets through, a recruit holds the
// coordinator's tree.
func TestRecruitWithoutCheckpointRejoinsLeaderGroup(t *testing.T) {
	const n = 4
	rt, procs := spawn(t, n)
	agents := buildService(t, procs, n, func(int) core.Config {
		return core.Config{Fanout: 2, Resiliency: 1, LeaderSize: 2, OpTimeout: 300 * time.Millisecond,
			RecoveryInterval: 10 * time.Millisecond}
	})
	if isis.Await(within(t, 5*time.Second), func() bool { return agents[1].IsLeader() }) != nil {
		t.Fatal("second member never joined the leader group")
	}
	var dropping atomic.Bool
	dropping.Store(true)
	rt.Fabric().AddDropRule(func(p netsim.Packet) bool {
		switch p.Msg.Kind {
		case types.KindStateOffer, types.KindStateChunk, types.KindStateTransfer:
			return dropping.Load() && p.Msg.Group.Kind == types.KindLeader
		}
		return false
	})
	// The leader coordinator recruits a replacement for the crashed leader.
	rt.Crash(procs[1])
	rt.InjectFailure(procs[1])
	time.Sleep(time.Second)
	for _, i := range []int{2, 3} {
		if agents[i].IsLeader() {
			t.Fatalf("member %d serves as a leader member without the tree checkpoint", i)
		}
	}
	dropping.Store(false)
	if isis.Await(within(t, 5*time.Second), func() bool {
		ref := agents[0].Tree().Encode()
		for _, i := range []int{2, 3} {
			if agents[i].IsLeader() && bytes.Equal(agents[i].Tree().Encode(), ref) {
				return true
			}
		}
		return false
	}) != nil {
		t.Fatal("no recruit holds the coordinator's tree once the checkpoint gets through")
	}
}

// TestLostSplitDirectivesAreResent: a split's directives travel by one
// unretried send. While they are lost the leaf stays oversized and must not
// split again; its coordinator's re-sent report repeats the same directives,
// so once they get through the movers land in the one leaf founded for them.
func TestLostSplitDirectivesAreResent(t *testing.T) {
	const n = 4
	rt, procs := spawn(t, n)
	agents := buildService(t, procs, n, func(int) core.Config {
		return core.Config{Fanout: 4, Resiliency: 1, LeaderSize: 1, MinLeafSize: 1,
			OpTimeout: time.Second, RecoveryInterval: 10 * time.Millisecond}
	})
	leaf := agents[0].LeafID()
	for i, a := range agents {
		if !a.LeafID().Equal(leaf) {
			t.Fatalf("member %d placed outside the founder's leaf", i)
		}
	}
	var dropping atomic.Bool
	dropping.Store(true)
	var dropped atomic.Int64
	rt.Fabric().AddDropRule(func(p netsim.Packet) bool {
		if p.Msg.Kind == types.KindHJoinRedirect && dropping.Load() {
			dropped.Add(1)
			return true
		}
		return false
	})
	// A bound of 3 makes the four-member leaf oversized: it splits 2 + 2.
	agents[0].SetMaxLeafSize(3)
	if isis.Await(within(t, 5*time.Second), func() bool { return dropped.Load() >= 4 }) != nil {
		t.Fatalf("split directives sent %d times, want them re-sent", dropped.Load())
	}
	if got := agents[0].Tree().LeafCount(); got != 2 {
		t.Fatalf("tree has %d leaves after the re-sent report, want 2 (one split)", got)
	}
	for i, a := range agents {
		if !a.LeafID().Equal(leaf) {
			t.Fatalf("member %d left the leaf while its directive was dropped", i)
		}
	}
	dropping.Store(false)
	if isis.Await(within(t, 5*time.Second), func() bool {
		moved := agents[2].LeafID()
		return !moved.Equal(leaf) && agents[3].LeafID().Equal(moved) &&
			agents[1].LeafID().Equal(leaf) && agents[0].Tree().LeafCount() == 2
	}) != nil {
		t.Fatalf("movers never landed together: leaves %v %v %v %v, tree %d leaves",
			agents[0].LeafID(), agents[1].LeafID(), agents[2].LeafID(), agents[3].LeafID(),
			agents[0].Tree().LeafCount())
	}
}

// TestIdleServiceIsQuiet proves the settled hierarchy carries no standing
// background casts: with no requests or broadcasts, neither the leader group
// nor any leaf delivers a single multicast over two seconds of recovery ticks.
func TestIdleServiceIsQuiet(t *testing.T) {
	const n = 9
	_, procs := spawn(t, n)
	agents := buildService(t, procs, n, func(int) core.Config {
		cfg := echoCfg(3, 2)
		cfg.LeaderSize = 3
		cfg.RecoveryInterval = 15 * time.Millisecond
		return cfg
	})
	settled := func() bool {
		var ref string
		for _, a := range agents {
			if !a.IsLeader() {
				continue
			}
			tr := a.Tree()
			if tr.TotalMembers() != n {
				return false
			}
			if enc := string(tr.Encode()); ref == "" {
				ref = enc
			} else if enc != ref {
				return false
			}
		}
		return ref != ""
	}
	if isis.Await(within(t, 5*time.Second), settled) != nil {
		t.Fatal("leader trees never settled")
	}
	time.Sleep(300 * time.Millisecond)

	var leaderCasts, leafCasts atomic.Int64
	for _, p := range procs {
		p.ObserveGroups(group.Observer{OnDeliver: func(gid types.GroupID, _ group.Delivery) {
			switch gid.Kind {
			case types.KindLeader:
				leaderCasts.Add(1)
			case types.KindLeaf:
				leafCasts.Add(1)
			}
		}})
	}
	time.Sleep(2 * time.Second)
	if l, f := leaderCasts.Load(), leafCasts.Load(); l != 0 || f != 0 {
		t.Errorf("idle service delivered %d leader-group and %d leaf casts in 2s, want 0", l, f)
	}
}

// TestBroadcastBoundedWhenCoordinatorBlackHoled: a hop-0 broadcast forwarded
// to a leader coordinator that silently died is never answered. Broadcast
// must give up with ErrTimeout after its OpTimeout backstop rather than wait
// out the caller's much longer context.
func TestBroadcastBoundedWhenCoordinatorBlackHoled(t *testing.T) {
	const n = 4
	const opTimeout = 300 * time.Millisecond
	rt, procs := spawn(t, n)
	log := newDeliveryLog(n)
	agents := buildService(t, procs, n, func(i int) core.Config {
		cfg := recoveryCfg(3, 2, log, i)
		cfg.LeaderSize = 1
		cfg.OpTimeout = opTimeout
		return cfg
	})
	caller := -1
	for i, a := range agents {
		if !a.IsLeader() {
			caller = i
			break
		}
	}
	if caller < 0 {
		t.Fatal("no non-leader member")
	}
	coord := procs[0].ID()
	rt.Fabric().AddDropRule(func(p netsim.Packet) bool { return p.To == coord })

	ctx, cancel := context.WithTimeout(context.Background(), 10*opTimeout)
	defer cancel()
	start := time.Now()
	_, err := agents[caller].Broadcast(ctx, []byte("lost"))
	elapsed := time.Since(start)
	if !errors.Is(err, types.ErrTimeout) {
		t.Fatalf("broadcast to a black-holed coordinator: err = %v, want ErrTimeout", err)
	}
	if elapsed >= 2*opTimeout {
		t.Fatalf("broadcast returned after %v, want under %v", elapsed, 2*opTimeout)
	}
}

// TestLosslessBroadcastsCountNoDuplicates: on a lossless fabric every member
// receives each broadcast record once — from its representative's stage frame
// or from its leaf's cast — and the representative does not note its own leaf
// cast again, so the hierarchy's duplicate counter stays at zero. A repair
// that re-delivers a record a member holds is a real duplicate and is
// counted, without delivering the record twice.
func TestLosslessBroadcastsCountNoDuplicates(t *testing.T) {
	const n, bcasts = 12, 10
	_, procs := spawn(t, n)
	log := newDeliveryLog(n)
	agents := buildService(t, procs, n, func(i int) core.Config {
		cfg := echoCfg(4, 2)
		cfg.OnBroadcast = func(p []byte) { log.record(i, p) }
		return cfg
	})
	if isis.Await(ctxT(t), func() bool { return agents[0].Tree().TotalMembers() == n }) != nil {
		t.Fatal("tree never converged")
	}
	if leaves := agents[0].Tree().LeafCount(); leaves != 3 {
		t.Fatalf("service has %d leaves, want 3", leaves)
	}
	// Each broadcast is cast once into each leaf, and every leaf member —
	// the casting representative too, whose own copy may be delivered to it
	// last — is delivered that cast.
	var leafCasts atomic.Int64
	for _, p := range procs {
		p.ObserveGroups(group.Observer{OnDeliver: func(gid types.GroupID, d group.Delivery) {
			if gid.Kind == types.KindLeaf && core.IsBroadcastCast(d.Payload) {
				leafCasts.Add(1)
			}
		}})
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	for b := 0; b < bcasts; b++ {
		payload := fmt.Sprintf("bcast-%d", b)
		covered, err := agents[b%n].Broadcast(ctxT(t), []byte(payload))
		if err != nil || covered != n {
			t.Fatalf("broadcast %d covered %d of %d: %v", b, covered, n, err)
		}
		waitDelivered(t, log, all, payload, 5*time.Second)
	}
	if isis.Await(ctxT(t), func() bool { return leafCasts.Load() == bcasts*n }) != nil {
		t.Fatalf("%d leaf casts of %d broadcasts delivered to %d members, want %d", leafCasts.Load(), bcasts, n, bcasts*n)
	}
	duplicates := func() (sum uint64) {
		for _, a := range agents {
			sum += a.RecoveryStats().Duplicates
		}
		return sum
	}
	if d := duplicates(); d != 0 {
		t.Errorf("%d lossless broadcasts to %d members counted %d duplicates, want 0", bcasts, n, d)
	}

	// Every broadcast above went through the leader coordinator, the origin
	// of every record; its third record is held everywhere.
	origin := procs[0].ID()
	for _, a := range agents {
		a.Repair(origin, 3, []byte("bcast-2"))
	}
	if d := duplicates(); d != n {
		t.Errorf("re-delivering a held record to %d members counted %d duplicates, want %d", n, d, n)
	}
	for i := range agents {
		if c := log.count(i, "bcast-2"); c != 1 {
			t.Errorf("member %d delivered bcast-2 %d times, want once", i, c)
		}
	}
}

// TestRetainedRecordBytesNeverWritten guards encoding a broadcast record
// once: every member keeps the bytes a record arrived in — a stage frame, a
// leaf cast, a repair, or the initiator's one encoding — in its retransmit
// buffer, hands a slice of them to OnBroadcast, and copies every later stage
// frame, leaf cast and repair out of them. Under duplication, reordering and
// a leaf whose stage frames are dropped (so NAKs are served and repairs
// re-cast into the leaf), every OnBroadcast payload and every buffered
// record must still match the checksum taken when it was first seen:
// nothing on any path wrote into one.
func TestRetainedRecordBytesNeverWritten(t *testing.T) {
	const n, bcasts = 9, 24
	rt, procs := spawn(t, n, isis.WithSeed(42))
	type seen struct {
		b   []byte
		sum uint32
	}
	var mu sync.Mutex
	var kept []seen
	keep := func(b []byte) {
		mu.Lock()
		kept = append(kept, seen{b, crc32.ChecksumIEEE(b)})
		mu.Unlock()
	}
	log := newDeliveryLog(n)
	agents := buildService(t, procs, n, func(i int) core.Config {
		cfg := recoveryCfg(3, 2, log, i)
		cfg.OnBroadcast = func(p []byte) {
			keep(p)
			log.record(i, p)
		}
		return cfg
	})
	if isis.Await(ctxT(t), func() bool { return agents[0].Tree().TotalMembers() == n }) != nil {
		t.Fatal("tree never converged")
	}
	victims := make(map[types.ProcessID]bool)
	founderLeaf := agents[0].LeafID().Key()
	for key, members := range leavesByKey(agents) {
		if key != founderLeaf {
			for _, i := range members {
				victims[procs[i].ID()] = true
			}
			break
		}
	}
	var dropping atomic.Bool
	rt.Fabric().AddDropRule(func(p netsim.Packet) bool {
		return dropping.Load() && p.Msg.Kind == types.KindTreeCast && p.Msg.Hop > 0 && victims[p.To]
	})
	rt.Fabric().SetDuplication(0.2)
	rt.Fabric().SetReordering(0.2, 2*time.Millisecond)

	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	for b := 0; b < bcasts; b++ {
		dropping.Store(b%4 == 1)
		payload := fmt.Sprintf("bcast-%d", b)
		if _, err := agents[b%n].Broadcast(ctxT(t), []byte(payload)); err != nil {
			t.Fatalf("broadcast %d: %v", b, err)
		}
		if b%4 == 2 {
			// The record dropped one broadcast ago is repaired by NAK now
			// that this one shows the gap.
			waitDelivered(t, log, all, fmt.Sprintf("bcast-%d", b-1), 5*time.Second)
		}
		if b == bcasts/2 {
			for _, a := range agents {
				for _, r := range a.HeldRecords() {
					keep(r)
				}
			}
		}
	}
	dropping.Store(false)
	for b := 0; b < bcasts; b++ {
		waitDelivered(t, log, all, fmt.Sprintf("bcast-%d", b), 5*time.Second)
	}
	for _, a := range agents {
		for _, r := range a.HeldRecords() {
			keep(r)
		}
	}
	var served uint64
	for _, a := range agents {
		served += a.RecoveryStats().NaksServed
	}
	if served == 0 {
		t.Error("no NAK was served: the repair path went unexercised")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, k := range kept {
		if crc32.ChecksumIEEE(k.b) != k.sum {
			t.Fatalf("retained record bytes #%d were written after they were kept: now %q", i, k.b)
		}
	}
}
