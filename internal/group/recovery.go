package group

import (
	"repro/internal/order"
	"repro/internal/reliability"
	"repro/internal/types"
)

// This file drives the reliability layer's active recovery: the per-group
// timer that turns tracked gaps into NAKs, the handlers that serve
// retransmissions from any live holder, and the stability reports that keep
// buffers and ordering-engine memory bounded. All functions run on the
// node's actor goroutine.

// onRecoveryTick is the per-group recovery heartbeat (period
// Config.Reliability.NakInterval). Each tick it:
//
//   - re-requests a view install the member never received (the wedge would
//     otherwise outlive the view change);
//   - NAKs the casts and ABCAST bindings a pending install's delivery cut
//     still misses;
//   - NAKs steady-state receive gaps that have outlived one tick (younger
//     gaps are usually just out-of-order arrival);
//   - emits a standalone stability report when traffic is too idle for the
//     piggybacked ones to circulate.
func (g *Group) onRecoveryTick() {
	if g.closed || !g.joined || g.rel == nil {
		return
	}
	rcfg := g.cfg.Reliability

	// Keep the total-order engine pruned even when no reports arrive (a sole
	// member's own delivered prefix is the stable one).
	g.total.SetStable(g.rel.StableOrd(g.total.NextSeq() - 1))

	// Wedged with no install in sight: ask a member that moved on. If a full
	// NAK rotation over the live members finds nobody holding the install,
	// the proposing coordinator died before any survivor processed it — the
	// change exists only as wedges now, and no amount of asking will produce
	// it. The acting coordinator (every member ranked above it is suspected)
	// then takes the view change over and re-proposes; everyone else keeps
	// asking, because the takeover proposal is what will un-wedge them.
	if g.wedged && g.pending == nil && g.proposedView > g.view.ID && g.flush == nil {
		g.wedgeTicks++
		if g.wedgeTicks > g.view.Size() && g.actingCoordinator() == g.stack.node.PID() {
			g.takeOverViewChange()
		} else {
			g.sendViewNak()
		}
	} else {
		g.wedgeTicks = 0
	}

	// Durable state upkeep rides the same heartbeat: flush the write-ahead
	// log's append batch, and re-drive a stalled checkpoint transfer.
	g.walTick()
	if g.awaitingState {
		g.stateXferTick()
	}

	// Resiliency repair: a blocking cast still waiting after a full interval
	// re-sends itself to the members whose watermark reports have not covered
	// it. Receivers treat the copy as a duplicate and re-send their cumulative
	// report — which is exactly the message whose loss left the waiter stuck.
	if len(g.acks) > 0 {
		g.renotifyWaiters()
	}

	if g.pending != nil {
		// A pending install names exactly what we are missing.
		g.sendNaks(g.rel.MissingBelow(g.pending.cut))
		if g.pending.abCut > 0 && g.total.NextSeq() <= g.pending.abCut {
			g.sendOrderNak()
		}
		return
	}

	// Steady-state gap repair.
	if g.rel.GapTick() >= rcfg.NakTicks {
		g.sendNaks(g.rel.Missing())
	}

	// ABCAST data waiting for (or bindings waiting for data of) agreed
	// slots: after a persistent stall, ask for the announcements we may
	// have lost.
	if g.total.Pending() > 0 {
		g.ordGapTicks++
	} else {
		g.ordGapTicks = 0
	}
	if g.ordGapTicks > rcfg.NakTicks {
		g.sendOrderNak()
	}

	// Standalone stability report while unstable casts are buffered, so an
	// idle group's buffers still drain.
	g.stabTicks++
	if g.stabTicks >= rcfg.StabilityTicks {
		g.stabTicks = 0
		if g.rel.Buffered() > 0 {
			g.sendStability()
		}
	}
}

// sendNaks asks a (rotating) holder for each missing range. One NAK message
// per target carries every range routed to it.
func (g *Group) sendNaks(missing []reliability.SeqRange) {
	if len(missing) == 0 {
		return
	}
	excluded := func(p types.ProcessID) bool { return g.suspected[p] }
	byTarget := make(map[types.ProcessID][]reliability.SeqRange)
	for _, r := range missing {
		target := g.rel.NakTarget(r.Sender, excluded)
		if target.IsNil() {
			continue
		}
		byTarget[target] = append(byTarget[target], r)
	}
	for target, ranges := range byTarget {
		_ = g.stack.node.Send(target, &types.Message{
			Kind:    types.KindNak,
			Group:   g.id,
			View:    g.view.ID,
			Payload: reliability.EncodeNak(ranges),
		})
		g.relStats.NaksSent++
	}
}

// sendOrderNak asks for ABCAST order announcements above our delivered
// prefix, rotating over the view (coordinator — the sequencer — first, but
// any member that delivered further can answer from its binding log).
func (g *Group) sendOrderNak() {
	var candidates []types.ProcessID
	self := g.stack.node.PID()
	for _, p := range g.view.Members {
		if p != self && !g.suspected[p] {
			candidates = append(candidates, p)
		}
	}
	if len(candidates) == 0 {
		return
	}
	target := candidates[g.viewNakRR%len(candidates)]
	g.viewNakRR++
	_ = g.stack.node.Send(target, &types.Message{
		Kind:    types.KindNakOrder,
		Group:   g.id,
		View:    g.view.ID,
		Payload: types.EncodeUint64(nil, g.total.NextSeq()-1),
	})
	g.relStats.OrderNaksSent++
}

// sendStability sends the standalone stability report tick (piggybacked
// reports cover this while casts flow). The fanout is bounded: each tick
// reports to at most Reliability.StabilityFanout members, rotating
// round-robin over the view, so the idle-group cost is O(n·fanout) per tick
// instead of O(n²) while every member still hears from every other member
// once per rotation — stability (and the buffer pruning it drives) converges
// a rotation later at worst, never wrongly.
func (g *Group) sendStability() {
	self := g.stack.node.PID()
	others := make([]types.ProcessID, 0, g.view.Size())
	for _, p := range g.view.Members {
		if p != self {
			others = append(others, p)
		}
	}
	if len(others) == 0 {
		return
	}
	dests := others
	if fan := g.cfg.Reliability.StabilityFanout; len(others) > fan {
		dests = make([]types.ProcessID, 0, fan)
		for i := 0; i < fan; i++ {
			dests = append(dests, others[(g.stabRR+i)%len(others)])
		}
		g.stabRR = (g.stabRR + fan) % len(others)
	}
	template := &types.Message{
		Kind:    types.KindStability,
		Group:   g.id,
		View:    g.view.ID,
		Stab:    g.rel.StabVector(),
		StabOrd: g.total.NextSeq(),
	}
	g.stack.node.SendCopies(dests, template)
}

// sendViewNak asks a member that (presumably) installed the proposed view to
// re-send the install we never received, rotating over the view so a dead
// proposer cannot wedge us forever.
func (g *Group) sendViewNak() {
	self := g.stack.node.PID()
	candidates := make([]types.ProcessID, 0, g.view.Size())
	if !g.proposeFrom.IsNil() && g.proposeFrom != self && !g.suspected[g.proposeFrom] {
		candidates = append(candidates, g.proposeFrom)
	}
	for _, p := range g.view.Members {
		if p != self && p != g.proposeFrom && !g.suspected[p] {
			candidates = append(candidates, p)
		}
	}
	if len(candidates) == 0 {
		return
	}
	target := candidates[g.viewNakRR%len(candidates)]
	g.viewNakRR++
	// Ask for the next install after our current view — not the proposed
	// view we heard about, which may be several installs ahead and not yet
	// formed anywhere. Members serve their latest install, and skip-ahead
	// installs are handled by the install path.
	_ = g.stack.node.Send(target, &types.Message{
		Kind:  types.KindViewNak,
		Group: g.id,
		View:  g.view.ID + 1,
	})
}

// renotifyWaiters drives the resiliency-repair tick: for each cast still
// waiting for its quorum, re-send it to the members that have neither been
// counted nor reported a covering watermark. Waiters younger than two ticks
// are left alone — the prompt report usually arrives within one.
func (g *Group) renotifyWaiters() {
	self := g.stack.node.PID()
	for seq, w := range g.acks {
		w.ticks++
		if w.ticks < 2 {
			continue
		}
		held := g.rel.Retrieve(reliability.SeqRange{Sender: self, Lo: seq, Hi: seq}, 1)
		if len(held) == 0 {
			continue // pruned as stable: every member has reported past it
		}
		var dests []types.ProcessID
		for _, p := range g.view.Members {
			if p == self || w.from[p] || g.suspected[p] {
				continue
			}
			if g.rel.Reported(p, self) < seq {
				dests = append(dests, p)
			}
		}
		if len(dests) == 0 {
			continue
		}
		g.stack.node.SendCopies(dests, retransmission(held[0]))
	}
}

// retransmission returns the envelope that re-sends a held cast: a shallow
// copy, sharing the held cast's VT and payload (nothing writes either once
// held), without its piggybacked stability report — a report re-sent later,
// or by another member, would be attributed to the wrong moment or process.
func retransmission(held *types.Message) *types.Message {
	c := *held
	c.Stab, c.StabOrd = nil, 0
	return &c
}

// onNak serves a retransmission request from this member's buffers — the
// requester's current view may be the one we just left, which is why the
// previous view's tracker is retained for one view change.
func (g *Group) onNak(m *types.Message) {
	if g.closed {
		return
	}
	var tr *reliability.Tracker
	switch {
	case g.joined && m.View == g.view.ID:
		tr = g.rel
	case m.View == g.prevViewID:
		tr = g.prevRel
	}
	if tr == nil {
		return
	}
	ranges, ok := reliability.DecodeNak(m.Payload)
	if !ok {
		return
	}
	budget := g.cfg.Reliability.MaxRetransmit
	for _, r := range ranges {
		if budget <= 0 {
			break
		}
		for _, held := range tr.Retrieve(r, budget) {
			_ = g.stack.node.Send(m.From, retransmission(held))
			g.relStats.NaksServed++
			budget--
		}
	}
}

// onNakOrder answers with the ABCAST bindings we retain above the
// requester's delivered prefix.
func (g *Group) onNakOrder(m *types.Message) {
	if g.closed {
		return
	}
	var tt *order.Total
	switch {
	case g.joined && m.View == g.view.ID:
		tt = g.total
	case m.View == g.prevViewID:
		tt = g.prevTotal
	}
	if tt == nil {
		return
	}
	from, _, ok := types.DecodeUint64(m.Payload)
	if !ok {
		return
	}
	budget := g.cfg.Reliability.MaxRetransmit
	for _, b := range tt.Bindings(from) {
		if budget <= 0 {
			break
		}
		_ = g.stack.node.Send(m.From, &types.Message{
			Kind:  types.KindOrder,
			Group: g.id,
			View:  m.View,
			ID:    b.ID,
			Seq:   b.Seq,
		})
		g.relStats.OrderNaksServed++
		budget--
	}
}

// onStability ingests a standalone stability report.
func (g *Group) onStability(m *types.Message) {
	if g.closed {
		return
	}
	g.ingestStab(m)
}

// onViewNak re-serves the last install we processed to a member whose copy
// was lost.
func (g *Group) onViewNak(m *types.Message) {
	if g.closed || g.lastInstallPayload == nil || g.lastInstallView < m.View {
		return
	}
	_ = g.stack.node.Send(m.From, &types.Message{
		Kind:    types.KindViewInstall,
		Group:   g.id,
		View:    g.lastInstallView,
		Payload: g.lastInstallPayload,
	})
}

// ReliabilityStats returns the group's cumulative recovery counters. Safe
// from any goroutine.
func (g *Group) ReliabilityStats() reliability.Stats {
	var s reliability.Stats
	_ = g.stack.node.Call(func() { s = g.relStats })
	return s
}
