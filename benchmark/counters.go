package main

import (
	"io/fs"
	"math"
	"path/filepath"
	"time"

	isis "repro"
	"repro/internal/core"
	"repro/internal/types"
)

// counters is a snapshot of the cumulative counts the layers keep at their
// boundaries. Per-op ratios come from the difference of two snapshots taken
// around the saturation phase.
type counters struct {
	net      isis.Stats // network boundary: fabric, or the traced TCP tap
	rel      isis.ReliabilityStats
	tcp      isis.TCPStats
	state    isis.StateTransferStats
	svc      core.Stats
	walBytes int64
	// What the workload had done when the snapshot was taken, for the
	// ratios whose denominator is not "ops".
	requests, bcasts, cycles, joins uint64
	treeDepth                       int
}

func (c *counters) addProcess(p process) {
	r := p.ReliabilityStats()
	c.rel.NaksSent += r.NaksSent
	c.rel.NaksServed += r.NaksServed
	c.rel.OrderNaksSent += r.OrderNaksSent
	c.rel.OrderNaksServed += r.OrderNaksServed
	c.rel.Duplicates += r.Duplicates
	t := p.TransportStats()
	c.tcp.FramesSent += t.FramesSent
	c.tcp.BytesSent += t.BytesSent
	c.tcp.Reconnects += t.Reconnects
	c.tcp.FramesShed += t.FramesShed
	c.tcp.FramesDropped += t.FramesDropped
}

func (c *counters) addGroup(g *isis.Group) {
	s := g.StateStats()
	c.state.ChunksSent += s.ChunksSent
	c.state.NaksSent += s.NaksSent
	c.state.WALAppends += s.WALAppends
}

func (c *counters) addService(s *isis.Service) {
	st := s.Stats()
	c.svc.RequestsHandled += st.RequestsHandled
	c.svc.CohortCopies += st.CohortCopies
	c.svc.Broadcasts += st.Broadcasts
	r := s.RecoveryStats()
	c.rel.NaksSent += r.NaksSent
	c.rel.NaksServed += r.NaksServed
	c.rel.Duplicates += r.Duplicates
}

// dirSize is the total size of the regular files under dir (0 for "").
func dirSize(dir string) int64 {
	if dir == "" {
		return 0
	}
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil // a file vanishing mid-walk (log compaction) is not an error here
	})
	return total
}

func kindSum(s isis.Stats, kinds ...types.Kind) uint64 {
	var n uint64
	for _, k := range kinds {
		n += s.PerKind[k]
	}
	return n
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// putCounts writes the cnt.* metrics: what crossed each layer boundary
// between two snapshots, per op of the phase in between.
func putCounts(rep *report, a, b counters, ops uint64, elapsed time.Duration) {
	// Counters of members that crashed in between drop out of a sum, so a
	// difference can come out negative; floor it at zero.
	d := func(x, y uint64) float64 { return math.Max(0, float64(y)-float64(x)) }
	sh := struct{ ops, requests, bcasts, cycles, joins, seconds float64 }{
		float64(ops), d(a.requests, b.requests), d(a.bcasts, b.bcasts), d(a.cycles, b.cycles), d(a.joins, b.joins), elapsed.Seconds(),
	}
	k := func(kinds ...types.Kind) float64 { return d(kindSum(a.net, kinds...), kindSum(b.net, kinds...)) }
	msgs := d(a.net.MessagesSent, b.net.MessagesSent)
	frames := d(a.net.FramesSent, b.net.FramesSent)
	if frames == 0 {
		frames = d(a.tcp.FramesSent, b.tcp.FramesSent)
	}
	bytes := d(a.net.BytesSent, b.net.BytesSent)
	if bytes == 0 {
		bytes = d(a.tcp.BytesSent, b.tcp.BytesSent)
	}
	rep.put("cnt.msgs_per_op", ratio(msgs, sh.ops), "count")
	rep.put("cnt.frames_per_op", ratio(frames, sh.ops), "count")
	rep.put("cnt.msgs_per_frame", ratio(msgs, frames), "count")
	rep.put("cnt.wire_b_per_op", ratio(bytes, sh.ops), "B")
	rep.put("cnt.cast_per_op", ratio(k(types.KindCast), sh.ops), "count")
	rep.put("cnt.order_per_op", ratio(k(types.KindOrder), sh.ops), "count")
	rep.put("cnt.stab_per_op", ratio(k(types.KindStability), sh.ops), "count")
	rep.put("cnt.nak_per_kop", ratio(1000*(d(a.rel.NaksSent, b.rel.NaksSent)+d(a.rel.OrderNaksSent, b.rel.OrderNaksSent)), sh.ops), "count")
	rep.put("cnt.retx_per_kop", ratio(1000*(d(a.rel.NaksServed, b.rel.NaksServed)+d(a.rel.OrderNaksServed, b.rel.OrderNaksServed)), sh.ops), "count")
	rep.put("cnt.dup_per_kop", ratio(1000*d(a.rel.Duplicates, b.rel.Duplicates), sh.ops), "count")
	rep.put("cnt.dropped", d(a.net.MessagesDropped, b.net.MessagesDropped)+d(a.tcp.FramesShed, b.tcp.FramesShed)+d(a.tcp.FramesDropped, b.tcp.FramesDropped), "count")
	rep.put("cnt.reconnects", d(a.tcp.Reconnects, b.tcp.Reconnects), "count")
	rep.put("cnt.hb_per_s", ratio(k(types.KindHeartbeat, types.KindHeartbeatAck), sh.seconds), "1/s")
	rep.put("cnt.wal_appends_per_op", ratio(d(a.state.WALAppends, b.state.WALAppends), sh.ops), "count")
	rep.put("cnt.wal_b_per_op", ratio(float64(b.walBytes-a.walBytes), sh.ops), "B")
	rep.put("cnt.viewmsgs_per_cycle", ratio(k(types.KindJoinRequest, types.KindViewPropose, types.KindViewFlushAck, types.KindViewInstall, types.KindViewNak), sh.cycles), "count")
	rep.put("cnt.state_chunks_per_join", ratio(d(a.state.ChunksSent, b.state.ChunksSent), sh.joins), "count")
	rep.put("cnt.state_naks_per_join", ratio(d(a.state.NaksSent, b.state.NaksSent), sh.joins), "count")
	rep.put("cnt.cohort_copies_per_req", ratio(d(a.svc.CohortCopies, b.svc.CohortCopies), sh.requests), "count")
	rep.put("cnt.msgs_per_request", ratio(k(types.KindHRoute, types.KindHRouteReply), sh.requests), "count")
	rep.put("cnt.msgs_per_bcast", ratio(k(types.KindTreeCast, types.KindTreeCastAck), sh.bcasts), "count")
	rep.put("cnt.tree_depth", float64(b.treeDepth), "count")
}
