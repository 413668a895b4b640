package main

// The metric catalogue. Every name the benchmark prints is declared
// here, in print order; BENCHMARK.json at the repository root repeats
// the names, units and directions, and a test keeps the two in step.
//
// End-to-end metrics are measured with tracing off. Per-layer metrics
// come from the traced run (--trace 1), which wraps spans around the
// benchmark's own calls into each module's public functions. A layer a
// workload bypasses reads 0 on that workload. Metrics marked exact are
// counts of simulated work or simulated outcomes: for one seed they
// repeat bit-for-bit on every run of the same code.

// metric describes one reported number.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	exact  bool
}

var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "sim_s_per_host_s", unit: "s/s", better: "higher"},
	{name: "step_ms_p50", unit: "ms", better: "lower"},
	{name: "alloc_mb", unit: "MB", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// schemeNames are the §7.4 data-plane schemes, as they appear in
// per-scheme metric names, in schedule.Scheme order.
var schemeNames = []string{"baseline", "blocking", "naive", "nopipeline", "gemini"}

var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	ms := []metric{
		// campaign: scenario -> compile -> campaign -> aggregate -> report.
		{name: "scenario.parse_ms", unit: "ms", better: "lower"},
		{name: "scenario.compile_ms", unit: "ms", better: "lower"},
		{name: "derive.build_ms", unit: "ms", better: "lower"},
		{name: "derive.hit_rate", unit: "ratio", better: "higher", exact: true},
		{name: "profile.build_ms", unit: "ms", better: "lower"},
		{name: "training.timeline_ms", unit: "ms", better: "lower"},
		{name: "failure.schedule_us_p50", unit: "us", better: "lower"},
		{name: "failure.events_per_variation", unit: "count", better: "lower", exact: true},
		{name: "runsim.run_us_p50", unit: "us", better: "lower"},
		{name: "runsim.run_us_p99", unit: "us", better: "lower"},
		{name: "runsim.allocs_per_run", unit: "count", better: "lower"},
		{name: "runsim.failures", unit: "count", better: "lower", exact: true},
		{name: "runsim.from_local", unit: "count", better: "higher", exact: true},
		{name: "runsim.from_peer", unit: "count", better: "higher", exact: true},
		{name: "runsim.from_remote", unit: "count", better: "lower", exact: true},
		{name: "metrics.merge_ms", unit: "ms", better: "lower"},
		{name: "report.json_ms", unit: "ms", better: "lower"},
		{name: "report.html_ms", unit: "ms", better: "lower"},
		{name: "report.prom_ms", unit: "ms", better: "lower"},
		{name: "flight.outliers_ms", unit: "ms", better: "lower"},
		{name: "flight.replay_ms", unit: "ms", better: "lower"},
		{name: "parallel.efficiency", unit: "ratio", better: "higher"},
		// recovery: the agent control plane over simclock + kvstore.
		{name: "core.newjob_ms", unit: "ms", better: "lower"},
		{name: "agent.assemble_ms", unit: "ms", better: "lower"},
		{name: "simclock.events", unit: "count", better: "lower", exact: true},
		{name: "simclock.queue_peak", unit: "count", better: "lower", exact: true},
		{name: "simclock.event_us", unit: "us", better: "lower"},
		{name: "simclock.step_ms_p99", unit: "ms", better: "lower"},
		{name: "simclock.allocs_per_event", unit: "count", better: "lower"},
		{name: "kvstore.heartbeat_round_us", unit: "us", better: "lower"},
		{name: "kvstore.next_expiry_us", unit: "us", better: "lower"},
		{name: "kvstore.revisions", unit: "count", better: "lower", exact: true},
		{name: "kvstore.watch_events", unit: "count", better: "lower", exact: true},
		{name: "agent.recoveries", unit: "count", better: "higher", exact: true},
		{name: "agent.wasted_s", unit: "s", better: "lower", exact: true},
		{name: "agent.lost_s", unit: "s", better: "lower", exact: true},
		{name: "agent.recovery_s", unit: "s", better: "lower", exact: true},
		{name: "agent.replication_gb", unit: "GB", better: "lower", exact: true},
		{name: "agent.retrieval_gb", unit: "GB", better: "lower", exact: true},
		{name: "agent.remote_gb", unit: "GB", better: "lower", exact: true},
		{name: "strategy.switches", unit: "count", better: "lower", exact: true},
		{name: "agent.recovering_host_share", unit: "ratio", better: "lower"},
		// dataplane: the §7 interleaving schemes over netsim.
		{name: "netsim.flows", unit: "count", better: "lower", exact: true},
		{name: "netsim.settle_ops", unit: "count", better: "lower", exact: true},
		{name: "netsim.recomputes", unit: "count", better: "lower", exact: true},
		{name: "netsim.waterfill_rounds", unit: "count", better: "lower", exact: true},
		{name: "netsim.peak_flows", unit: "count", better: "lower", exact: true},
		{name: "netsim.flow_us", unit: "us", better: "lower"},
		{name: "netsim.allocs_per_flow", unit: "count", better: "lower"},
	}
	for _, s := range schemeNames {
		ms = append(ms, metric{name: "training.execute_ms." + s, unit: "ms", better: "lower"})
	}
	for _, s := range schemeNames {
		ms = append(ms, metric{name: "training.overhead_pct." + s, unit: "%", better: "lower", exact: true})
	}
	for _, s := range schemeNames {
		ms = append(ms, metric{name: "training.idle_utilization." + s, unit: "ratio", better: "higher", exact: true})
	}
	// Every workload: what tracing itself costs.
	return append(ms, metric{name: "bench.trace_overhead_s", unit: "s", better: "lower"})
}
