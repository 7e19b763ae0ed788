package main

// This file is the single list of what the benchmark measures.
// BENCHMARK.json at the repository root is printed from it
// (-print-manifest) and bench_test.go holds the two against each other.

// runSeconds is BENCHMARK.json's run_seconds: the --seconds the driver
// passes. Phase counts are the reference counts below scaled by
// seconds / refSeconds, so the same --seconds always means the same
// request counts, cache states and RSS.
const (
	runSeconds = 18
	refSeconds = 30
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{"hot_steady", "64 preloaded keys, every request hot: HTTP+JSON, shard queue, sim dispatch, interpreter and page faults dominate; deploy, snapshot and tier code do nothing"},
	{"cold_churn", "every request a never-seen function: deploy from the base, parse, compile, capture and cache growth dominate, the hot loop is a few percent; also the density run"},
	{"restart_restore", "K functions over a -snapdir across boots: lukewarm restores per request, prewarm at boot, flush at drain; the only workload on the snapshot codecs and disk tier, reads and writes"},
	{"sim_trial", "the paper's virtual-time trial in-process, 32 concurrent procs in one engine: core/sim/faas used the simulator's way, so a serving-path shortcut that slows or breaks it shows"},
}

// End-to-end metrics: what a user of the node, or of the simulator,
// sees. Every workload reports every one of them; README.md says what
// each means on each workload. A bound is the share of the parent's
// median by which the metric may worsen; README.md gives the measured
// run-to-run spreads they were set from.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"cpu_us_per_req", "us", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.20},
}

// Per-layer metrics, named <package>.<what>. A metric a workload does
// not reach is reported as 0 on that workload.
var perLayer = []metricSpec{
	// cmd/seuss-node
	{Name: "node.boot_s", Unit: "s", Better: "lower"},
	{Name: "node.prewarm_s", Unit: "s", Better: "lower"},
	{Name: "node.drain_s", Unit: "s", Better: "lower"},
	{Name: "node.rtt_hot_us", Unit: "us", Better: "lower"},
	{Name: "node.rtt_cold_us", Unit: "us", Better: "lower"},
	{Name: "node.rtt_lukewarm_us", Unit: "us", Better: "lower"},
	{Name: "node.rtt_warm_us", Unit: "us", Better: "lower"},
	{Name: "node.self_hot_us", Unit: "us", Better: "lower"},
	{Name: "node.self_cold_us", Unit: "us", Better: "lower"},
	{Name: "node.latency_p90_us", Unit: "us", Better: "lower"},
	{Name: "node.latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "node.latency_max_us", Unit: "us", Better: "lower"},
	{Name: "node.paced_cpu_us_per_req", Unit: "us", Better: "lower"},
	{Name: "node.sat_mean_rps", Unit: "1/s", Better: "higher"},
	{Name: "node.rss_per_req_kb", Unit: "KB", Better: "lower"},
	{Name: "node.rss_per_fn_kb", Unit: "KB", Better: "lower"},
	{Name: "node.warm_rps", Unit: "1/s", Better: "higher"},
	{Name: "node.first_restore_rps", Unit: "1/s", Better: "higher"},
	// internal/shardpool
	{Name: "shardpool.invoke_hot_us", Unit: "us", Better: "lower"},
	{Name: "shardpool.invoke_cold_us", Unit: "us", Better: "lower"},
	{Name: "shardpool.invoke_lukewarm_us", Unit: "us", Better: "lower"},
	{Name: "shardpool.invoke_warm_us", Unit: "us", Better: "lower"},
	{Name: "shardpool.self_hot_us", Unit: "us", Better: "lower"},
	{Name: "shardpool.allocs_hot", Unit: "count", Better: "lower"},
	{Name: "shardpool.stolen", Unit: "count", Better: "lower"},
	{Name: "shardpool.requeued", Unit: "count", Better: "lower"},
	// internal/core
	{Name: "core.invoke_hot_us", Unit: "us", Better: "lower"},
	{Name: "core.invoke_cold_us", Unit: "us", Better: "lower"},
	{Name: "core.invoke_lukewarm_us", Unit: "us", Better: "lower"},
	{Name: "core.invoke_warm_us", Unit: "us", Better: "lower"},
	{Name: "core.self_hot_us", Unit: "us", Better: "lower"},
	{Name: "core.self_cold_us", Unit: "us", Better: "lower"},
	{Name: "core.allocs_hot", Unit: "count", Better: "lower"},
	{Name: "core.allocs_cold", Unit: "count", Better: "lower"},
	{Name: "core.hot", Unit: "count", Better: "higher"},
	{Name: "core.cold", Unit: "count", Better: "lower"},
	{Name: "core.warm", Unit: "count", Better: "higher"},
	{Name: "core.lukewarm", Unit: "count", Better: "higher"},
	{Name: "core.ucs_reclaimed", Unit: "count", Better: "lower"},
	{Name: "core.memory_used_mb", Unit: "MB", Better: "lower"},
	{Name: "core.ws_prefetched_pages", Unit: "count", Better: "higher"},
	{Name: "core.ws_coverage_ratio", Unit: "ratio", Better: "higher"},
	// internal/sim, internal/faas
	{Name: "sim.spawn_us", Unit: "us", Better: "lower"},
	{Name: "sim.handoff_us", Unit: "us", Better: "lower"},
	{Name: "faas.virtual_rps", Unit: "1/s", Better: "higher"},
	{Name: "faas.virtual_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "faas.virtual_p99_ms", Unit: "ms", Better: "lower"},
	// internal/uc
	{Name: "uc.deploy_us", Unit: "us", Better: "lower"},
	{Name: "uc.deploy_allocs", Unit: "count", Better: "lower"},
	{Name: "uc.deploy_prefetched_us", Unit: "us", Better: "lower"},
	{Name: "uc.capture_us", Unit: "us", Better: "lower"},
	{Name: "uc.destroy_us", Unit: "us", Better: "lower"},
	{Name: "uc.decode_payload_us", Unit: "us", Better: "lower"},
	// internal/snapshot
	{Name: "snapshot.export_us", Unit: "us", Better: "lower"},
	{Name: "snapshot.graft_wire_us", Unit: "us", Better: "lower"},
	{Name: "snapshot.diff_pages", Unit: "count", Better: "lower"},
	{Name: "snapshot.wire_bytes", Unit: "count", Better: "lower"},
	// internal/snapstore
	{Name: "snapstore.put_first_us", Unit: "us", Better: "lower"},
	{Name: "snapstore.put_us", Unit: "us", Better: "lower"},
	{Name: "snapstore.get_us", Unit: "us", Better: "lower"},
	{Name: "snapstore.ws_get_us", Unit: "us", Better: "lower"},
	{Name: "snapstore.hits", Unit: "count", Better: "higher"},
	{Name: "snapstore.misses", Unit: "count", Better: "lower"},
	{Name: "snapstore.puts", Unit: "count", Better: "lower"},
	// internal/pagetable, internal/mem
	{Name: "pagetable.fault_us", Unit: "us", Better: "lower"},
	{Name: "pagetable.faults_per_hot_invoke", Unit: "count", Better: "lower"},
	{Name: "pagetable.faults_per_cold", Unit: "count", Better: "lower"},
	{Name: "mem.alloc_free_us", Unit: "us", Better: "lower"},
	{Name: "mem.frames_per_hot_invoke", Unit: "count", Better: "lower"},
	// internal/interp, internal/lang, internal/libos
	{Name: "interp.invoke_us", Unit: "us", Better: "lower"},
	{Name: "interp.invoke_allocs", Unit: "count", Better: "lower"},
	{Name: "interp.import_compile_us", Unit: "us", Better: "lower"},
	{Name: "lang.parse_us", Unit: "us", Better: "lower"},
	{Name: "lang.run_us", Unit: "us", Better: "lower"},
	{Name: "libos.connect_us", Unit: "us", Better: "lower"},
	// internal/trace (the server's event buffer) and the benchmark's own
	// span recording
	{Name: "trace.dropped", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	// the load generator itself
	{Name: "loadgen.send_lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.late_arrivals", Unit: "count", Better: "lower"},
	{Name: "loadgen.cpu_us_per_req", Unit: "us", Better: "lower"},
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func benchManifest() manifest {
	return manifest{
		Command:    []string{"sh", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}
