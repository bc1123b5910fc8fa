package main

// metricDef names one reported metric. The two tables below are the
// benchmark's vocabulary: BENCHMARK.json lists the same names and
// units (bench_test.go holds the two equal), and later issues cite
// them, so a rename here is a benchmark change, not a refactor.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is what a client of the system sees. failed_ratio is
// printed and stored beside these but is not a BENCHMARK.json metric:
// it is 0 on every healthy run, and the driver's own attempted/failed
// fields carry it.
var endToEnd = []metricDef{
	{"req_p50_us", "us"},
	{"req_p90_us", "us"},
	{"ops_per_s", "ops/s"},
	{"allocs_per_op", "count"},
	{"setup_s", "s"},
}

// perLayer is the closed ladder, one prefix per module. A metric that
// does not apply to a workload (http.* on local-*, htm.* on kv
// workloads) reads 0 there.
var perLayer = []metricDef{
	// The benchmark's own loop.
	{"client.requests", "count"},
	{"client.req_p99_us", "us"},
	{"client.req_p999_us", "us"},
	{"client.req_max_us", "us"},
	{"client.codec_us", "us"},
	{"client.trace_overhead", "ratio"},
	// Whole process, untraced window.
	{"process.cpu_us_per_op", "us"},
	{"process.bytes_per_op", "bytes"},
	{"process.gc_cycles", "count"},
	{"process.gc_pause_ms", "ms"},
	{"process.heap_inuse_mb", "mb"},
	// Socket + net/http (sock-* only).
	{"http.handler_p50_us", "us"},
	{"http.self_p50_us", "us"},
	{"http.req_bytes", "bytes"},
	{"http.resp_bytes", "bytes"},
	{"http.conns_new", "count"},
	// internal/txkv.
	{"txkv.codec_self_us", "us"},
	{"txkv.dispatch_self_us", "us"},
	{"txkv.apply_us", "us"},
	{"txkv.op_err_ratio", "ratio"},
	{"txkv.keys_live", "count"},
	{"txkv.ops_get", "count"},
	{"txkv.ops_put", "count"},
	{"txkv.ops_del", "count"},
	{"txkv.ops_add", "count"},
	{"txkv.ops_updatedoc", "count"},
	{"txkv.ops_readdoc", "count"},
	// internal/stm: Runtime.Stats.
	{"stm.commits", "count"},
	{"stm.aborts", "count"},
	{"stm.commit_per_attempt", "ratio"},
	{"stm.kills", "count"},
	{"stm.self_aborts", "count"},
	{"stm.grace_waits", "count"},
	{"stm.irrevocable", "count"},
	{"stm.extensions", "count"},
	{"stm.batches", "count"},
	{"stm.batch_commits", "count"},
	{"stm.batch_fails", "count"},
	{"stm.members_per_batch", "ratio"},
	{"stm.folded_commits", "count"},
	{"stm.folded_words", "count"},
	{"stm.k_estimate", "ratio"},
	// internal/stm: the metrics plane.
	{"stm.attempt_p50_ns", "ns"},
	{"stm.attempt_p99_ns", "ns"},
	{"stm.commit_p50_ns", "ns"},
	{"stm.commit_p99_ns", "ns"},
	{"stm.grace_p50_ns", "ns"},
	{"stm.grace_p99_ns", "ns"},
	{"stm.grace_total_ms", "ms"},
	{"stm.drain_p50_ns", "ns"},
	{"stm.phase_validate_ns", "ns"},
	{"stm.phase_lock_ns", "ns"},
	{"stm.phase_writeback_ns", "ns"},
	{"stm.phase_clock_ns", "ns"},
	{"stm.abort_killed", "count"},
	{"stm.abort_validation", "count"},
	{"stm.abort_lock_timeout", "count"},
	{"stm.abort_batch_admission", "count"},
	{"stm.abort_max_retries", "count"},
	// internal/stm: timed from outside on a private runtime.
	{"stm.atomic_empty_ns", "ns"},
	{"stm.atomic_rw1_ns", "ns"},
	// internal/sim + internal/htm (sim-hot-16 only).
	{"sim.events_fired", "count"},
	{"sim.ns_per_event", "ns"},
	{"htm.build_us", "us"},
	{"htm.run_us", "us"},
	{"htm.drain_us", "us"},
	{"htm.check_us", "us"},
	{"htm.commits", "count"},
	{"htm.aborts", "count"},
	{"htm.conflicts", "count"},
	{"htm.grace_commits", "count"},
	{"htm.capacity_aborts", "count"},
	{"htm.nack_aborts", "count"},
	{"htm.msgs_total", "count"},
	{"htm.commits_per_mcycle", "ratio"},
	// req_p50_us minus the sum of the ladder's rungs.
	{"ladder.residual_us", "us"},
}
