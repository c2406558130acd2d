package main

// metric declares one number the benchmark reports. The end-to-end and
// per-layer lists below are mirrored, entry for entry, by BENCHMARK.json;
// TestDeclaredMetricsMatchBenchmarkJSON keeps the two in step.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are what a user of the checker sees, measured on untraced
// repetitions. Every one applies to every workload and is never zero.
// Bound is the share of the parent's median by which a metric may worsen
// before a change counts as a regression.
//
// The two times are in reference seconds: each repetition's measured time
// scaled by refProbeMS over the host probe's time measured beside it. On
// a shared host the measured time of the same code drifts by 10-30%
// between runs minutes apart, the scaled time about half as much
// (README.md). The bounds are a wide 25% because the residual drift, and
// the garbage collector's timing in peak RSS, need that width on such a
// host.
var endToEnd = []metric{
	{"wall_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// refProbeMS is the host probe's time on the reference host, in ms: a
// scaled time is what the measured time would have been on a host where
// the probe takes this long.
const refProbeMS = 100

// raw are printed beside the metrics but not declared: the measured times
// and throughput (live events per second for live-refine), whose drift on
// a shared host exceeds any usable bound.
var raw = []metric{
	{"raw.wall_s", "s", "lower", 0},
	{"raw.setup_s", "s", "lower", 0},
	{"raw.work_per_s", "1/s", "higher", 0},
}

// perLayer are measured on traced repetitions, from spans the benchmark
// records around its calls into each layer and from the layers' public
// Stats. A workload that does not exercise a layer reports it as 0; the
// README lists which workload each metric describes and which end-to-end
// metric it should move.
var perLayer = []metric{
	{"engine.explore_s", "s", "lower", 0},
	{"engine.states_per_s", "1/s", "higher", 0},
	{"engine.validity_s", "s", "lower", 0},
	{"engine.expand_share", "frac", "lower", 0},
	{"engine.replay_share", "frac", "lower", 0},
	{"engine.barrier_share", "frac", "lower", 0},
	{"engine.alloc_b_per_state", "B/state", "lower", 0},
	{"engine.dedup_rate", "frac", "lower", 0},

	{"store.intern_share", "frac", "lower", 0},
	{"store.io_share", "frac", "lower", 0},
	{"store.spilled_mb", "MiB", "lower", 0},
	{"store.segments", "count", "lower", 0},
	{"store.segment_reads", "count", "lower", 0},
	{"store.cache_hit_rate", "frac", "higher", 0},
	{"store.read_p50_us", "us", "lower", 0},
	{"store.write_p50_us", "us", "lower", 0},
	{"store.ram_mb", "MiB", "lower", 0},

	{"flp.canon_share", "frac", "lower", 0},
	{"flp.canon_tables_s", "s", "lower", 0},
	{"flp.por_branch", "ratio", "higher", 0},
	{"flp.ample_states", "count", "higher", 0},

	{"core.analysis_s", "s", "lower", 0},
	{"core.analysis_alloc_mb", "MiB", "lower", 0},
	{"core.graph_b_per_state", "B/state", "lower", 0},

	{"runtime.model_s", "s", "lower", 0},
	{"runtime.run_s", "s", "lower", 0},
	{"runtime.batch_p50_us", "us", "lower", 0},
	{"runtime.batch_p99_us", "us", "lower", 0},
	{"runtime.refine_s", "s", "lower", 0},
	{"runtime.events", "count", "higher", 0},

	{"obs.publish_s", "s", "lower", 0},
	{"obs.trace_mb", "MiB", "lower", 0},

	{"synth.search_s", "s", "lower", 0},
	{"registers.search_s", "s", "lower", 0},
	{"consensus.chain_s", "s", "lower", 0},
	{"suite.rest_s", "s", "lower", 0},

	{"host.probe_ms", "ms", "lower", 0},
	{"host.steal_s", "s", "lower", 0},
	{"trace_overhead_frac", "frac", "lower", 0},
}
