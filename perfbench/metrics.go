package main

// metricDef names one reported metric. For per-layer metrics, moves
// records which end-to-end metric on which workload a change to that
// layer should move; BENCHMARK.json lists the same names and units.
type metricDef struct {
	name, unit, better, moves string
}

var endToEnd = []metricDef{
	{"latency_p50_ms", "ms", "lower", ""},
	{"latency_tail_ms", "ms", "lower", ""},
	{"jobs_per_s", "1/s", "higher", ""},
	{"max_rate_rps", "1/s", "higher", ""},
	{"ok_frac", "ratio", "higher", ""},
	{"slots_per_lb", "ratio", "lower", ""},
	{"server_rss_p90_mb", "MiB", "lower", ""},
	{"setup_s", "s", "lower", ""},
}

var perLayer = []metricDef{
	{"server.envelope_decode_ms", "ms", "lower", "latency_p50_ms on hot-forest first, then cold-forest; serve-mix about 0"},
	{"server.response_encode_ms", "ms", "lower", "latency_p50_ms on hot-forest first, then cold-forest; serve-mix about 0"},
	{"server.response_encode_allocs", "count", "lower", "latency_p50_ms on hot-forest first, then cold-forest; serve-mix about 0"},
	{"server.bytes_in", "bytes", "lower", "latency_p50_ms on hot-forest first, then cold-forest; serve-mix about 0"},
	{"server.bytes_out", "bytes", "lower", "latency_p50_ms on hot-forest first, then cold-forest; serve-mix about 0"},
	{"server.outside_solve_ms", "ms", "lower", "latency_p50_ms on hot-forest: the handler time elapsed_ms misses"},
	{"server.unattributed_ms", "ms", "lower", "latency_p50_ms on hot-forest"},
	{"server.cpu_ms_per_req", "ms", "lower", "jobs_per_s on the forests, max_rate_rps on serve-mix"},
	{"instance.read_json_ms", "ms", "lower", "latency_p50_ms and jobs_per_s on hot-forest (largest share), then cold-forest; serve-mix unchanged"},
	{"instance.read_json_allocs", "count", "lower", "latency_p50_ms and jobs_per_s on hot-forest (largest share), then cold-forest; serve-mix unchanged"},
	{"costmodel.family_ms", "ms", "lower", "latency_p50_ms on hot-forest"},
	{"costmodel.depth_ms", "ms", "lower", "latency_p50_ms on hot-forest"},
	{"costmodel.estimate_lp_ms", "ms", "lower", "latency_p50_ms on hot-forest"},
	{"costmodel.predict_ms", "ms", "lower", "latency_p50_ms on hot-forest"},
	{"activetime.route_ms", "ms", "lower", "latency_p50_ms on hot-forest"},
	{"solvecache.key_ms", "ms", "lower", "latency_p50_ms on hot-forest"},
	{"solvecache.canonical_order_ms", "ms", "lower", "latency_p50_ms on hot-forest"},
	{"solvecache.struct_key_ms", "ms", "lower", "latency_p50_ms on hot-forest"},
	{"solvecache.hit_ratio", "ratio", "higher", "latency_p50_ms on serve-mix; 1.0 on hot-forest by construction"},
	{"solvecache.evictions", "count", "lower", "server_rss_p90_mb on cold-forest"},
	{"solvecache.warm_bytes", "bytes", "lower", "server_rss_p90_mb on cold-forest"},
	{"warm.starts", "count", "higher", "latency_p50_ms and latency_tail_ms on serve-mix"},
	{"warm.start_ratio", "ratio", "higher", "latency_p50_ms and latency_tail_ms on serve-mix"},
	{"comb.tree_build_ms", "ms", "lower", "latency_p50_ms and jobs_per_s on cold-forest; hot-forest unchanged"},
	{"comb.activate_ms", "ms", "lower", "latency_p50_ms and jobs_per_s on cold-forest; hot-forest unchanged"},
	{"comb.deactivate_ms", "ms", "lower", "latency_p50_ms and jobs_per_s on cold-forest; hot-forest unchanged"},
	{"comb.solve_allocs", "count", "lower", "latency_p50_ms and jobs_per_s on cold-forest; hot-forest unchanged"},
	{"sched.validate_ms", "ms", "lower", "latency_p50_ms on cold-forest"},
	{"sched.relabel_ms", "ms", "lower", "latency_p50_ms on both forests"},
	{"sched.write_json_ms", "ms", "lower", "latency_p50_ms on both forests"},
	{"sched.write_json_bytes", "bytes", "lower", "latency_p50_ms on both forests"},
	{"core.lp_solve_ms", "ms", "lower", "latency_tail_ms and max_rate_rps on serve-mix; forests unchanged"},
	{"core.round_ms", "ms", "lower", "latency_tail_ms and max_rate_rps on serve-mix; forests unchanged"},
	{"core.feas_check_ms", "ms", "lower", "latency_tail_ms and max_rate_rps on serve-mix; forests unchanged"},
	{"core.place_ms", "ms", "lower", "latency_tail_ms and max_rate_rps on serve-mix; forests unchanged"},
	{"simplex.pivots", "count", "lower", "latency_tail_ms and max_rate_rps on serve-mix; forests unchanged"},
	{"maxflow.dinic_bfs_rounds", "count", "lower", "latency_tail_ms and max_rate_rps on serve-mix; forests unchanged"},
	{"greedy.solve_ms", "ms", "lower", "latency_tail_ms on serve-mix"},
	{"obs.overhead_pct", "%", "lower", "max_rate_rps on serve-mix"},
	{"bench.generator_late_p99_ms", "ms", "lower", "none: shows the generator, not the server, was the limit"},
	{"bench.conn_wait_p99_ms", "ms", "lower", "none: shows the generator, not the server, was the limit"},
	{"bench.trace_overhead_pct", "%", "lower", "none: cost of recording the spans, as a share of a replayed request's time"},
}

func defOf(name string) metricDef {
	for _, ds := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range ds {
			if d.name == name {
				return d
			}
		}
	}
	return metricDef{}
}

func unitOf(name string) string  { return defOf(name).unit }
func movesOf(name string) string { return defOf(name).moves }
