package main

// metricSpec names one reported metric. Bound is the share of the
// baseline median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off, one sample per cold pass. setup_s has the widest bound:
// cold construction is bound by page faults.
var endToEnd = []metricSpec{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.24},
	{Name: "events_per_s", Unit: "1/s", Better: "higher", Bound: 0.24},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.06},
}

// layers are the packages CPU self time is folded into: the simulator's
// internal packages, plus the Go runtime split into its garbage
// collector and everything else.
var layers = []string{"sim", "machine", "core", "topology", "workload", "metrics", "scenario", "trace", "experiments", "gc", "runtime"}

// perLayer are the metrics of single layers. Counts come from every
// pass, self shares and trace counts from the traced pass, and the
// *_ns, *_us, *_ms and build/routing figures from microbenchmarks.
var perLayer = []metricSpec{
	{Name: "sim.self_share", Unit: "%", Better: "lower"},
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.push_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.overflow_push_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.timer_rearm_ns", Unit: "ns", Better: "lower"},

	{Name: "machine.self_share", Unit: "%", Better: "lower"},
	{Name: "machine.new_ns_per_pe", Unit: "ns", Better: "lower"},
	{Name: "machine.new_allocs_per_pe", Unit: "count", Better: "lower"},
	{Name: "machine.msgs_goal", Unit: "count", Better: "lower"},
	{Name: "machine.msgs_resp", Unit: "count", Better: "lower"},
	{Name: "machine.msgs_load", Unit: "count", Better: "lower"},
	{Name: "machine.msgs_ctrl", Unit: "count", Better: "lower"},
	{Name: "machine.max_channel_util", Unit: "ratio", Better: "lower"},
	{Name: "machine.goodput", Unit: "ratio", Better: "higher"},
	{Name: "machine.goals_lost", Unit: "count", Better: "lower"},
	{Name: "machine.jobs_retried", Unit: "count", Better: "lower"},
	{Name: "machine.shard_cpu_util", Unit: "ratio", Better: "higher"},

	{Name: "core.self_share", Unit: "%", Better: "lower"},
	{Name: "core.goal_hops_mean", Unit: "hops", Better: "lower"},
	{Name: "core.goals_forwarded", Unit: "count", Better: "lower"},
	{Name: "core.newnode_ns", Unit: "ns", Better: "lower"},

	{Name: "topology.self_share", Unit: "%", Better: "lower"},
	{Name: "topology.build_ms_torus100", Unit: "ms", Better: "lower"},
	{Name: "topology.build_ms_torus1000_implicit", Unit: "ms", Better: "lower"},
	{Name: "topology.routing_first_s", Unit: "s", Better: "lower"},
	{Name: "topology.routing_mib", Unit: "MiB", Better: "lower"},
	{Name: "topology.neighbors_ns", Unit: "ns", Better: "lower"},

	{Name: "workload.self_share", Unit: "%", Better: "lower"},
	{Name: "workload.fib_build_ns_per_goal", Unit: "ns", Better: "lower"},

	{Name: "metrics.self_share", Unit: "%", Better: "lower"},
	{Name: "metrics.sample_add_ns", Unit: "ns", Better: "lower"},
	{Name: "metrics.sample_add_bounded_ns", Unit: "ns", Better: "lower"},
	{Name: "metrics.hist_add_ns", Unit: "ns", Better: "lower"},
	{Name: "metrics.percentile_us", Unit: "us", Better: "lower"},

	{Name: "scenario.self_share", Unit: "%", Better: "lower"},
	{Name: "scenario.parse_us", Unit: "us", Better: "lower"},
	{Name: "scenario.expand_ms", Unit: "ms", Better: "lower"},

	{Name: "trace.self_share", Unit: "%", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.goal_created", Unit: "count", Better: "lower"},
	{Name: "trace.goal_sent", Unit: "count", Better: "lower"},
	{Name: "trace.goal_accepted", Unit: "count", Better: "lower"},
	{Name: "trace.goal_exec_started", Unit: "count", Better: "lower"},
	{Name: "trace.goal_executed", Unit: "count", Better: "lower"},
	{Name: "trace.resp_sent", Unit: "count", Better: "lower"},
	{Name: "trace.resp_delivered", Unit: "count", Better: "lower"},

	{Name: "experiments.self_share", Unit: "%", Better: "lower"},
	{Name: "experiments.runall_util", Unit: "ratio", Better: "higher"},

	{Name: "gc.self_share", Unit: "%", Better: "lower"},
	{Name: "gc.cpu_s", Unit: "s", Better: "lower"},
	{Name: "gc.cycles", Unit: "count", Better: "lower"},
	{Name: "gc.alloc_mib", Unit: "MiB", Better: "lower"},
	{Name: "gc.alloc_objects", Unit: "count", Better: "lower"},
	{Name: "runtime.self_share", Unit: "%", Better: "lower"},
}
