package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WritePrometheus renders the Live sink's current state in the Prometheus
// text exposition format (version 0.0.4): counters, gauges, and latency
// histograms with the standard _bucket/_sum/_count triple and `le` bounds
// in seconds. It is hand-rolled — the repo deliberately has no metrics
// client dependency — and renders from the same locked copy the JSON view
// uses, so a scrape mid-run observes a consistent snapshot and never
// blocks the exploration beyond the Publish lock.
//
// Metric names are prefixed explore_ (exploration engine) and rt_ (live
// runtime); per-worker and per-phase series use worker= and phase= labels
// so a dashboard can stack them.
func (l *Live) WritePrometheus(w io.Writer) {
	m := l.metrics()
	p := promWriter{w: w}

	p.gauge("explore_uptime_seconds", "Seconds since the telemetry sink was created.", m.UptimeSec)
	p.counter("explore_runs_total", "Exploration runs started.", float64(m.Runs))
	p.counter("explore_events_total", "Telemetry events received.", float64(m.Events))
	p.counter("explore_snapshots_total", "Timer-driven snapshot events received.", float64(m.Snapshots))

	if c := m.Config; c != nil {
		p.gauge("explore_workers", "Resolved worker count of the current run.", float64(c.Workers))
		p.gauge("explore_max_states", "State limit of the current run.", float64(c.MaxStates))
	}
	if s := m.Snapshot; s != nil {
		p.gauge("explore_states", "Distinct states interned.", float64(s.States))
		p.gauge("explore_depth", "BFS levels completed.", float64(s.Depth))
		p.gauge("explore_frontier", "States in the level being expanded.", float64(s.Frontier))
		p.gauge("explore_peak_frontier", "Largest level seen.", float64(s.PeakFrontier))
		p.counter("explore_expansions_total", "ExpandFunc calls.", float64(s.Expansions))
		p.counter("explore_dedup_hits_total", "Successors already known.", float64(s.DedupHits))
		p.counter("explore_canon_hits_total", "States remapped to an orbit representative.", float64(s.CanonHits))
		p.counter("explore_ample_states_total", "States expanded with a reduced ample set.", float64(s.AmpleStates))
		p.counter("explore_deferred_actions_total", "Actions deferred by POR.", float64(s.DeferredActions))
		p.gauge("explore_states_per_second", "Run-average throughput.", m.StatesPerSec)
		if len(s.WorkerSteps) > 0 {
			p.help("explore_worker_steps_total", "States expanded, per worker.", "counter")
			for i, steps := range s.WorkerSteps {
				p.labeled("explore_worker_steps_total", "worker", strconv.Itoa(i), float64(steps))
			}
		}
		if ph := s.Phases; ph != nil {
			p.help("explore_phase_seconds_total", "Worker time attributed to engine phases.", "counter")
			for _, kv := range []struct {
				name string
				ns   int64
			}{
				{"expand", ph.ExpandNs},
				{"barrier_wait", ph.BarrierWaitNs},
				{"store_io", ph.StoreIONs},
				{"replay", ph.ReplayNs},
			} {
				p.labeled("explore_phase_seconds_total", "phase", kv.name, float64(kv.ns)/1e9)
			}
			p.counter("explore_sampled_states_total", "States profiled at fine grain.", float64(ph.SampledStates))
			p.gauge("explore_canon_fraction", "Sampled fraction of expansion time spent canonicalizing.", ph.CanonFrac())
			p.gauge("explore_intern_fraction", "Sampled fraction of expansion time spent hashing and interning.", ph.InternFrac())
		}
		if s.ExpandLat != nil {
			p.histogram("explore_expand_latency_seconds", "Sampled per-state expansion latency.", *s.ExpandLat)
		}
		p.gauge("explore_store_bytes_in_ram", "State-store resident footprint estimate.", float64(s.StoreBytesInRAM))
		p.counter("explore_store_bytes_spilled_total", "Raw payload bytes written to segment files.", float64(s.StoreBytesSpilled))
		p.gauge("explore_store_segments", "Segment files written.", float64(s.StoreSegments))
		p.counter("explore_store_segment_reads_total", "Page fetches served from disk.", float64(s.StoreSegmentReads))
		p.counter("explore_store_page_cache_hits_total", "Spilled-payload reads served from the page cache.", float64(s.StorePageCacheHits))
		if s.StoreReadLat != nil {
			p.histogram("explore_store_read_latency_seconds", "Spill segment per-page read latency.", *s.StoreReadLat)
		}
		if s.StoreWriteLat != nil {
			p.histogram("explore_store_write_latency_seconds", "Spill segment per-page write latency.", *s.StoreWriteLat)
		}
		p.gauge("explore_peak_rss_bytes", "Process peak resident set size.", float64(s.PeakRSSBytes))
		p.gauge("explore_graph_bytes", "Bytes held by the explored graph's edge chunks, row spans, labels and parent tree.", float64(s.GraphBytes))
		p.gauge("explore_arena_bytes", "Edge chunk capacity, summed over workers; part of the graph bytes.", float64(s.ArenaBytes))
	}

	p.counter("rt_runs_total", "Live runtime runs started.", float64(m.RTRuns))
	if len(m.RTEvents) > 0 {
		p.help("rt_events_total", "Scheduled runtime actions, by kind (fault mix).", "counter")
		kinds := make([]string, 0, len(m.RTEvents))
		for k := range m.RTEvents {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			p.labeled("rt_events_total", "kind", k, float64(m.RTEvents[k]))
		}
	}
	if s := m.RTFinal; s != nil {
		p.gauge("rt_pending_actions", "Actions still pending when the last runtime run ended.", float64(s.Pending))
		p.gauge("rt_halted_procs", "Processes halted when the last runtime run ended.", float64(s.Halted))
		if s.BatchLat != nil {
			p.histogram("rt_batch_dispatch_latency_seconds", "Concurrent batch dispatch latency.", *s.BatchLat)
		}
	}
}

// promWriter accumulates text-format lines; errors are ignored (the
// endpoint is best-effort, like the JSON view).
type promWriter struct{ w io.Writer }

func (p promWriter) help(name, help, typ string) {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p promWriter) counter(name, help string, v float64) {
	p.help(name, help, "counter")
	fmt.Fprintf(p.w, "%s %s\n", name, promFloat(v))
}

func (p promWriter) gauge(name, help string, v float64) {
	p.help(name, help, "gauge")
	fmt.Fprintf(p.w, "%s %s\n", name, promFloat(v))
}

func (p promWriter) labeled(name, label, value string, v float64) {
	fmt.Fprintf(p.w, "%s{%s=%q} %s\n", name, label, value, promFloat(v))
}

// histogram renders a HistSnap as a cumulative Prometheus histogram with
// `le` bounds converted from nanoseconds to seconds.
func (p promWriter) histogram(name, help string, s HistSnap) {
	p.help(name, help, "histogram")
	var cum uint64
	for i := 0; i < HistBuckets; i++ {
		if i < len(s.Counts) {
			cum += s.Counts[i]
		}
		fmt.Fprintf(p.w, "%s_bucket{le=%q} %d\n", name, promFloat(float64(HistBound(i))/1e9), cum)
	}
	fmt.Fprintf(p.w, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
	fmt.Fprintf(p.w, "%s_sum %s\n", name, promFloat(float64(s.SumNs)/1e9))
	fmt.Fprintf(p.w, "%s_count %d\n", name, s.Count)
}

// promFloat renders a sample value the way Prometheus expects: plain
// decimal, shortest round-trip form.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
