package main

// metricDef describes one reported metric. BENCHMARK.json at the
// repository root mirrors these tables (catalog_test.go keeps the two in
// step), and compare reads the bounds from here.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics have none.
	Bound float64
	// Moves names the end-to-end metric and workload a per-layer metric
	// should move (the README catalog prints it).
	Moves string
}

// endToEnd are the metrics a user of the solver sees, measured with
// tracing off. Every workload reports every one of them. Every bound is
// the largest allowed: on a shared 2-vCPU VM, ten-seed spreads reached
// 0.12 to 0.19 on some pairs even at reference speed (README.md).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of single layers, from the traced run.
var perLayer = []metricDef{
	{Name: "netfmt.read_us_p50", Unit: "us", Better: "lower", Moves: "latency_p50_ms on fleet_serve; ~5% of noise_batch"},
	{Name: "server.decode_us_p50", Unit: "us", Better: "lower", Moves: "latency_p50_ms on fleet_serve and eco_edit"},
	{Name: "segment.us_p50", Unit: "us", Better: "lower", Moves: "throughput_ops_s on noise_batch (small share)"},
	{Name: "segment.nodes_per_op", Unit: "count", Better: "lower", Moves: "throughput_ops_s on noise_batch (the DP's input size)"},
	{Name: "core.key_us_p50", Unit: "us", Better: "lower", Moves: "latency_p50_ms on fleet_serve"},
	{Name: "cache.hit_rate", Unit: "share", Better: "higher", Moves: "latency_p50_ms, throughput_ops_s on fleet_serve"},
	{Name: "cache.hit_us_p50", Unit: "us", Better: "lower", Moves: "latency_p50_ms, throughput_ops_s on fleet_serve"},
	{Name: "core.solve_ms_p50", Unit: "ms", Better: "lower", Moves: "throughput_ops_s on noise_batch; latency_p50_ms on huge_net"},
	{Name: "core.solve_ms_p99", Unit: "ms", Better: "lower", Moves: "latency_p95_ms on noise_batch and fleet_serve"},
	{Name: "dp.cands_generated_per_op", Unit: "count", Better: "lower", Moves: "throughput_ops_s on noise_batch"},
	{Name: "dp.cands_merged_per_op", Unit: "count", Better: "lower", Moves: "throughput_ops_s on noise_batch"},
	{Name: "dp.cands_pruned_per_op", Unit: "count", Better: "lower", Moves: "throughput_ops_s on noise_batch"},
	{Name: "dp.prune_ratio", Unit: "share", Better: "lower", Moves: "throughput_ops_s on noise_batch"},
	{Name: "dp.list_highwater", Unit: "count", Better: "lower", Moves: "latency_p95_ms on noise_batch; rss_mb"},
	{Name: "dp.nodes_visited_per_op", Unit: "count", Better: "lower", Moves: "latency_p50_ms on eco_edit (memo replay skips nodes)"},
	{Name: "dp.lishi_run_share", Unit: "share", Better: "higher", Moves: "throughput_ops_s on noise_batch (0 at the seed commit)"},
	{Name: "dp.parallel_run_share", Unit: "share", Better: "lower", Moves: "latency_p50_ms on huge_net"},
	{Name: "dp.alloc_mb_per_op", Unit: "MB", Better: "lower", Moves: "latency_p50_ms, rss_mb on huge_net; throughput_ops_s on noise_batch"},
	{Name: "dp.allocs_per_op", Unit: "count", Better: "lower", Moves: "latency_p50_ms on huge_net; throughput_ops_s on noise_batch"},
	{Name: "analyze.us_p50", Unit: "us", Better: "lower", Moves: "latency_p50_ms on fleet_serve"},
	{Name: "server.encode_us_p50", Unit: "us", Better: "lower", Moves: "latency_p50_ms on fleet_serve"},
	{Name: "server.roundtrip_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on fleet_serve"},
	{Name: "server.overhead_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_p50_ms, latency_p95_ms on fleet_serve"},
	{Name: "server.queue_peak", Unit: "count", Better: "lower", Moves: "latency_p95_ms on fleet_serve"},
	{Name: "server.shed_share", Unit: "share", Better: "lower", Moves: "failed/attempted on fleet_serve"},
	{Name: "fleet.router_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_p50_ms, throughput_ops_s on fleet_serve"},
	{Name: "fleet.hedge_rate", Unit: "share", Better: "lower", Moves: "throughput_ops_s on fleet_serve"},
	{Name: "fleet.attempts_per_post", Unit: "count", Better: "lower", Moves: "throughput_ops_s on fleet_serve"},
	{Name: "eco.reuse_rate", Unit: "share", Better: "higher", Moves: "latency_p50_ms on eco_edit"},
	{Name: "eco.lookups_per_delta", Unit: "count", Better: "lower", Moves: "latency_p50_ms on eco_edit"},
	{Name: "eco.delta_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on eco_edit"},
	{Name: "eco.full_ms_p50", Unit: "ms", Better: "lower", Moves: "none (the from-scratch reference for eco.delta_ms_p50)"},
	{Name: "eco.http_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on eco_edit"},
	{Name: "runtime.gc_cpu_share", Unit: "share", Better: "lower", Moves: "latency_p95_ms on every workload"},
	{Name: "runtime.alloc_mb_per_op", Unit: "MB", Better: "lower", Moves: "latency_p95_ms and rss_mb on every workload"},
	{Name: "trace.unattributed_share", Unit: "share", Better: "lower", Moves: "none (checks the attribution itself)"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Moves: "none (checks the attribution itself)"},
}

// workloadDef is one set of inputs the benchmark runs.
type workloadDef struct {
	Name string
	Why  string
	run  func(*runner) error
}

// workloads lists every workload in the order the README and a full run
// use. The names are final: result files and later changes cite them.
var workloads = []workloadDef{
	{Name: "noise_batch", Why: "the paper's Section V experiment: 500 nets read, segmented and solved by the Algorithm 3 ladder; the DP dominates and no serving layer runs", run: runNoiseBatch},
	{Name: "huge_net", Why: "one routed net of 10k+ nodes under the delay objective: Li-Shi and parallel DP at scale, with no decode, cache or HTTP", run: runHugeNet},
	{Name: "fleet_serve", Why: "2 replicas behind the router, 75% hot-set hits and 25% fresh nets, batches and v2 envelopes: the serving layers do most of the work", run: runFleetServe},
	{Name: "eco_edit", Why: "/solve/delta edit streams on 8 sessions of ~690-node trees, never repeating a value: incremental rehash and memo replay beside the DP", run: runEcoEdit},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

func metricByName(name string) (metricDef, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, true
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// Seeds. DefaultSeed is what -seed defaults to; HeldOutSeed is reserved
// for confirming a claimed gain on inputs that were not used while the
// change was written.
const (
	DefaultSeed = 1
	HeldOutSeed = 20260917
)
