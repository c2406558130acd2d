package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// runReport is the `hundred report` subcommand: it renders a JSONL run
// trace (written with -trace) into a markdown post-hoc report — final
// totals per run (byte-equal to the run's Stats, since run_end snapshots
// are built from Stats.Snapshot), throughput over time, the per-worker
// phase breakdown, reduction attribution, the store spill timeline, and
// the end-cause explanation. The trace is validated first, so a report is
// also a lint pass.
func runReport(args []string) int {
	fs := flag.NewFlagSet("hundred report", flag.ContinueOnError)
	out := fs.String("o", "", "write the report to this file instead of stdout")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: hundred report [-o FILE] TRACE")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	path := fs.Arg(0)
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	sum, err := obs.ValidateTrace(bytes.NewReader(raw))
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: INVALID: %v\n", path, err)
		return 1
	}
	m, evs, err := obs.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
		return 1
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		w = f
	}
	writeReport(w, path, m, sum, evs)
	return 0
}

// writeReport renders the whole markdown document.
func writeReport(w io.Writer, path string, m obs.Manifest, sum *obs.TraceSummary, evs []obs.Event) {
	fmt.Fprintf(w, "# Run report: %s\n\n", path)
	fmt.Fprintf(w, "- tool: `%s` (schema v%d, git `%s`", m.Tool, m.SchemaVersion, orDash(m.Git))
	if m.Started != "" {
		fmt.Fprintf(w, ", started %s", m.Started)
	}
	fmt.Fprintf(w, ")\n")
	if len(m.Options) > 0 {
		keys := make([]string, 0, len(m.Options))
		for k := range m.Options {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var opts []string
		for _, k := range keys {
			if v := m.Options[k]; v != "" {
				opts = append(opts, fmt.Sprintf("%s=%s", k, v))
			}
		}
		if len(opts) > 0 {
			fmt.Fprintf(w, "- options: `%s`\n", strings.Join(opts, " "))
		}
	}
	fmt.Fprintf(w, "- runs: %d exploration, %d runtime; %d events; digest `%s`\n",
		sum.Runs, sum.RTRuns, sum.Events, sum.Digest)

	// Split the event stream into runs (ValidateTrace guarantees clean
	// sequential nesting) and render each.
	runNo := 0
	for i := 0; i < len(evs); i++ {
		switch evs[i].Kind {
		case obs.KindRunStart:
			end := i + 1
			for end < len(evs) && evs[end].Kind != obs.KindRunEnd {
				end++
			}
			runNo++
			reportExploreRun(w, runNo, evs[i:end+1])
			i = end
		case obs.KindRTStart:
			end := i + 1
			for end < len(evs) && evs[end].Kind != obs.KindRTEnd {
				end++
			}
			runNo++
			reportRuntimeRun(w, runNo, evs[i:end+1])
			i = end
		}
	}
}

// reportExploreRun renders one exploration run (run_start .. run_end).
func reportExploreRun(w io.Writer, n int, run []obs.Event) {
	cfg := run[0].Config
	final := run[len(run)-1].Snapshot
	if cfg == nil || final == nil {
		return
	}
	fmt.Fprintf(w, "\n## Run %d: exploration (mode=%s, workers=%d, store=%s)\n\n",
		n, cfg.Mode(), cfg.Workers, orDefault(cfg.Store, "mem"))

	fmt.Fprintf(w, "### Final totals\n\n")
	fmt.Fprintf(w, "| states | edges | depth | peak frontier | expansions | dedup hits | elapsed | states/s |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|\n")
	fmt.Fprintf(w, "| %d | %d | %d | %d | %d | %d | %s | %.0f |\n\n",
		final.States, final.Edges, final.Depth, final.PeakFrontier,
		final.Expansions, final.DedupHits,
		final.Elapsed.Round(time.Microsecond), final.StatesPerSec())

	// End cause: the truncation/limit story, spelled out.
	switch {
	case final.Truncated:
		fmt.Fprintf(w, "**End cause:** state limit tripped — the store crossed %d states while "+
			"expanding level %d, the engine finished the level in flight (truncation is "+
			"level-granular so it stays canonical at any worker count), and replay cut the "+
			"result back to the first %d states.\n\n", cfg.MaxStates, final.Depth, final.States)
	default:
		fmt.Fprintf(w, "**End cause:** state space exhausted — the frontier emptied at depth %d "+
			"with %d states, below the %d-state limit.\n\n", final.Depth, final.States, cfg.MaxStates)
	}

	if final.GraphBytes > 0 {
		fmt.Fprintf(w, "**Graph memory:** %s in the graph layout (%.0f B/state: edge chunks, row spans, "+
			"labels, parent tree; state payloads excluded), %s of it the workers' edge chunks.\n\n",
			fmtBytes(final.GraphBytes), float64(final.GraphBytes)/float64(max(final.States, 1)), fmtBytes(final.ArenaBytes))
	}

	reportThroughput(w, run)
	reportReduction(w, cfg, final)
	reportPhases(w, final)
	reportSpill(w, run, final)
}

// reportThroughput renders the throughput-over-time table from the run's
// level, snapshot and run_end events (at most maxRows rows, sampled evenly).
func reportThroughput(w io.Writer, run []obs.Event) {
	type point struct {
		ev   obs.Event
		snap *obs.ProgressSnapshot
	}
	var pts []point
	for _, ev := range run {
		switch ev.Kind {
		case obs.KindLevel, obs.KindSnapshot, obs.KindTruncated, obs.KindRunEnd:
			if ev.Snapshot != nil {
				pts = append(pts, point{ev, ev.Snapshot})
			}
		}
	}
	if len(pts) == 0 {
		return
	}
	const maxRows = 24
	idx := sampleIndices(len(pts), maxRows)
	fmt.Fprintf(w, "### Throughput over time\n\n")
	fmt.Fprintf(w, "| elapsed | event | states | depth | frontier | states/s (window) | states/s (avg) |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|\n")
	prev := obs.ProgressSnapshot{}
	for _, i := range idx {
		p := pts[i]
		rate := p.snap.Rate(prev)
		fmt.Fprintf(w, "| %s | %s | %d | %d | %d | %.0f | %.0f |\n",
			p.snap.Elapsed.Round(time.Millisecond), p.ev.Kind, p.snap.States,
			p.snap.Depth, p.snap.Frontier, rate, p.snap.StatesPerSec())
		prev = *p.snap
	}
	if len(idx) < len(pts) {
		fmt.Fprintf(w, "\n(%d of %d progress events shown, sampled evenly)\n", len(idx), len(pts))
	}
	fmt.Fprintln(w)
}

// reportReduction renders the reduction-attribution section: how much of
// the raw interleaving space the canonicalizer and POR each removed.
func reportReduction(w io.Writer, cfg *obs.RunConfig, final *obs.ProgressSnapshot) {
	if !cfg.Canon && !cfg.POR {
		return
	}
	fmt.Fprintf(w, "### Reduction attribution\n\n")
	if cfg.Canon {
		red := final.ReductionFactor()
		fmt.Fprintf(w, "- **Symmetry (canon):** %d raw states collapsed into %d orbit "+
			"representatives (%.2fx, a lower bound on the full-space reduction); the "+
			"canonicalizer remapped %d of the generated successors.\n",
			final.RawStates, final.States, red, final.CanonHits)
	}
	if cfg.POR {
		branch := 0.0
		if final.Edges > 0 {
			branch = float64(uint64(final.Edges)+final.DeferredActions) / float64(final.Edges)
		}
		fmt.Fprintf(w, "- **Partial order (POR):** ample sets pruned %d enabled actions across "+
			"%d ample-reduced expansions — %.2fx branching reduction before counting the "+
			"interleaving subtrees each deferred action would have spawned.\n",
			final.DeferredActions, final.AmpleStates, branch)
	}
	fmt.Fprintln(w)
}

// reportPhases renders the per-worker phase breakdown from the final
// snapshot's profile (absent when the producer ran without profiling, or
// predates it).
func reportPhases(w io.Writer, final *obs.ProgressSnapshot) {
	if final.Phases == nil {
		return
	}
	fmt.Fprintf(w, "### Phase breakdown\n\n")
	pct := func(ns, total int64) string {
		if total <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(ns)/float64(total))
	}
	if len(final.WorkerPhases) > 0 {
		fmt.Fprintf(w, "| worker | total | expand | barrier |\n")
		fmt.Fprintf(w, "|---|---|---|---|\n")
		for i, p := range final.WorkerPhases {
			t := p.TotalNs()
			fmt.Fprintf(w, "| %d | %s | %s | %s |\n",
				i, time.Duration(t).Round(time.Microsecond),
				pct(p.ExpandNs, t), pct(p.BarrierWaitNs, t))
		}
		fmt.Fprintln(w)
	}
	agg := *final.Phases
	fmt.Fprintf(w, "Aggregate (all workers + coordinator): expand %s, barrier %s, store I/O %s, "+
		"replay %s.\n",
		fmtNs(agg.ExpandNs), fmtNs(agg.BarrierWaitNs), fmtNs(agg.StoreIONs), fmtNs(agg.ReplayNs))
	if agg.SampledStates > 0 {
		fmt.Fprintf(w, "\nFine sampling (1 in 64 states, n=%d): canonicalization %.1f%% and "+
			"hash+intern %.1f%% of sampled expansion time.",
			agg.SampledStates, 100*agg.CanonFrac(), 100*agg.InternFrac())
		if final.ExpandLat != nil && final.ExpandLat.Count > 0 {
			el := final.ExpandLat
			fmt.Fprintf(w, " Sampled per-state expansion latency: p50 %s, p99 %s, mean %s.",
				fmtNs(el.QuantileNs(0.5)), fmtNs(el.QuantileNs(0.99)), fmtNs(int64(el.MeanNs())))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// reportSpill renders the store spill timeline for spill-backed runs and
// the page-cache figures.
func reportSpill(w io.Writer, run []obs.Event, final *obs.ProgressSnapshot) {
	if final.StoreBytesSpilled == 0 && final.StoreSegmentReads == 0 && final.StorePageCacheHits == 0 {
		return
	}
	fmt.Fprintf(w, "### Store spill timeline\n\n")
	fmt.Fprintf(w, "| elapsed | states | bytes spilled | segments | seg reads | cache hits |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|\n")
	var lastSpilled int64 = -1
	rows := 0
	for _, ev := range run {
		s := ev.Snapshot
		if s == nil || s.StoreBytesSpilled == lastSpilled {
			continue
		}
		lastSpilled = s.StoreBytesSpilled
		fmt.Fprintf(w, "| %s | %d | %s | %d | %d | %d |\n",
			s.Elapsed.Round(time.Millisecond), s.States, fmtBytes(s.StoreBytesSpilled),
			s.StoreSegments, s.StoreSegmentReads, s.StorePageCacheHits)
		rows++
	}
	if rows == 0 {
		fmt.Fprintf(w, "| %s | %d | %s | %d | %d | %d |\n",
			final.Elapsed.Round(time.Millisecond), final.States, fmtBytes(final.StoreBytesSpilled),
			final.StoreSegments, final.StoreSegmentReads, final.StorePageCacheHits)
	}
	if total := final.StoreSegmentReads + final.StorePageCacheHits; total > 0 {
		fmt.Fprintf(w, "\nPage cache: %d hits / %d spilled-payload reads (%.1f%% hit rate).\n",
			final.StorePageCacheHits, total, 100*float64(final.StorePageCacheHits)/float64(total))
	}
	if final.StoreReadLat != nil && final.StoreReadLat.Count > 0 {
		rl := final.StoreReadLat
		fmt.Fprintf(w, "\nSegment reads: n=%d, p50 %s, p99 %s.", rl.Count, fmtNs(rl.QuantileNs(0.5)), fmtNs(rl.QuantileNs(0.99)))
	}
	if final.StoreWriteLat != nil && final.StoreWriteLat.Count > 0 {
		wl := final.StoreWriteLat
		fmt.Fprintf(w, " Segment writes: n=%d, p50 %s, p99 %s.", wl.Count, fmtNs(wl.QuantileNs(0.5)), fmtNs(wl.QuantileNs(0.99)))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w)
}

// reportRuntimeRun renders one live runtime run (rt_start .. rt_end).
func reportRuntimeRun(w io.Writer, n int, run []obs.Event) {
	cfg := run[0].RTConfig
	sum := run[len(run)-1].RTSummary
	if cfg == nil || sum == nil {
		return
	}
	fmt.Fprintf(w, "\n## Run %d: live runtime (workload=%s, procs=%d, seed=%d)\n\n",
		n, cfg.Workload, cfg.Procs, cfg.Seed)
	fmt.Fprintf(w, "Adversary: drop=%g dup=%g crash=%g delay=%d restart-after=%d, "+
		"batch width %d, budget %d events.\n\n",
		cfg.Drop, cfg.Dup, cfg.Crash, cfg.Delay, cfg.RestartAfter, cfg.Batch, cfg.MaxEvents)
	fmt.Fprintf(w, "| events | deliveries | local steps | drops | dups | crashes | restarts | pending | halted |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|\n")
	fmt.Fprintf(w, "| %d | %d | %d | %d | %d | %d | %d | %d | %d |\n\n",
		sum.Events, sum.Deliveries, sum.LocalSteps, sum.Drops, sum.Dups,
		sum.Crashes, sum.Restarts, sum.Pending, sum.Halted)
	switch {
	case sum.Stopped:
		fmt.Fprintf(w, "**End cause:** goal reached — a process reported the run's objective complete.\n")
	case sum.Quiesced:
		fmt.Fprintf(w, "**End cause:** quiesced — nothing pending and nothing schedulable.\n")
	case sum.Stalled:
		fmt.Fprintf(w, "**End cause:** stalled — only crash-starved actions remained.\n")
	case sum.Budget:
		fmt.Fprintf(w, "**End cause:** budget — the %d-event schedule limit ran out.\n", cfg.MaxEvents)
	}
	if sum.BatchLat != nil && sum.BatchLat.Count > 0 {
		bl := sum.BatchLat
		fmt.Fprintf(w, "\nBatch dispatch latency (%d rounds): p50 %s, p99 %s, mean %s.\n",
			bl.Count, fmtNs(bl.QuantileNs(0.5)), fmtNs(bl.QuantileNs(0.99)), fmtNs(int64(bl.MeanNs())))
	}
}

// sampleIndices picks up to max indices from [0, n), always keeping the
// first and last, evenly spaced in between.
func sampleIndices(n, max int) []int {
	if n <= max {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	idx := make([]int, 0, max)
	for i := 0; i < max; i++ {
		idx = append(idx, i*(n-1)/(max-1))
	}
	return idx
}

// fmtNs renders a nanosecond count as a rounded duration.
func fmtNs(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	}
	return d.String()
}

// fmtBytes renders n in binary units with one decimal.
func fmtBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%dB", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%ciB", float64(n)/float64(div), "KMGTPE"[exp])
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
