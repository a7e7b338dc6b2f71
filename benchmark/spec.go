package main

// The names below are the benchmark's contract with BENCHMARK.json; the smoke
// test checks the two against each other.

var workloadNames = []string{"kv_tcp3_wal", "cast_sim8", "svc_sim32", "churn_sim16"}

// endToEndNames are printed by an untraced run (--trace 0).
var endToEndNames = []string{
	"setup_s", "ops_s", "cpu_us_per_op", "alloc_b_per_op", "heap_live_mb", "lat_p50_us",
}

// perLayerNames are printed by a traced run (--trace 1): the ones every
// workload measures. Workload-specific numbers (trace.flush_ms,
// svc.bcast_p50_us, ...) are in the human-readable report only, because the
// result line carries the same names on every workload.
var perLayerNames = []string{
	"iso.wire.enc_ns_per_msg", "iso.wire.dec_ns_per_msg", "iso.wire.allocs_per_msg",
	"iso.order.fifo_ns_per_msg", "iso.order.causal_ns_per_msg", "iso.order.total_ns_per_msg",
	"iso.vclock.ns_per_op", "iso.reliability.note_ns_per_msg",
	"iso.node.send_ns_per_msg", "iso.node.call_us",
	"iso.netsim.frame_ns", "iso.netsim.msg_ns_batched",
	"iso.transport.tcp_rtt_us", "iso.transport.tcp_msgs_s",
	"iso.wal.append_ns", "iso.wal.sync_us", "iso.wal.replay_ms",
	"iso.kvstore.apply_ns", "iso.kvstore.snapshot_ms",
	"iso.treecast.plan6_us", "iso.treecast.plan512_us",
	"iso.metrics.hist_observe_ns", "iso.metrics.hist_pct_us",

	"cnt.msgs_per_op", "cnt.frames_per_op", "cnt.msgs_per_frame", "cnt.wire_b_per_op",
	"cnt.cast_per_op", "cnt.order_per_op", "cnt.stab_per_op",
	"cnt.nak_per_kop", "cnt.retx_per_kop", "cnt.dup_per_kop", "cnt.dropped", "cnt.reconnects", "cnt.hb_per_s",
	"cnt.wal_appends_per_op", "cnt.wal_b_per_op",
	"cnt.viewmsgs_per_cycle", "cnt.state_chunks_per_join", "cnt.state_naks_per_join",
	"cnt.cohort_copies_per_req", "cnt.msgs_per_request", "cnt.msgs_per_bcast", "cnt.tree_depth",

	"trace.sampled_ops", "trace.send_path_us", "trace.net_us", "trace.recv_path_us",
	"trace.apply_us", "trace.ack_us", "trace.overhead_pct",

	"rt.gc_cycles", "rt.gc_pause_ms", "rt.heap_peak_mb", "rt.goroutines", "rt.allocs_per_op",
	"diag.lat_samples", "diag.lat_p90_us", "diag.lat_p99_us", "diag.lat_p999_us",
}
