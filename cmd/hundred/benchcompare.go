package main

import (
	"flag"
	"fmt"
)

// benchCompareThreshold is the full-mode states/sec regression (fractional)
// past which bench-compare fails. 30% is far above same-machine run-to-run
// noise for these workloads but well below a real algorithmic regression.
const benchCompareThreshold = 0.30

// benchAllocThreshold is the allocs-per-state growth (fractional) past
// which bench-compare fails. Allocation counts are near-deterministic —
// the slack only absorbs GC bookkeeping and map-growth timing — so the
// gate is tighter than the throughput one: a hot path that regresses to
// one allocation per successor moves this metric by orders of magnitude.
const benchAllocThreshold = 0.50

// benchMinGateSeconds is the shortest full-mode run the throughput gate
// considers measurable. The suite's smallest workloads finish in a
// couple of milliseconds, where scheduler jitter alone moves states/sec
// by 2x run to run; gating on those rows makes the gate flap without
// catching anything the bigger rows would miss. State-count and alloc
// gates ignore this floor — they are noise-free at any duration.
const benchMinGateSeconds = 0.05

// runBenchCompare is the `hundred bench-compare` subcommand: it diffs the
// newest run recorded in a BENCH_hundred.json history against its baseline
// (see benchBaseline) and exits nonzero when any system present in both
// runs regressed its full-mode throughput by more than the threshold, or
// moved a deterministic state count. This is the hard CI gate the
// warn-only comparison inside -bench-json cannot be (that one runs before
// the new record is committed; this one compares two committed records on
// the same hardware).
func runBenchCompare(args []string) int {
	fs := flag.NewFlagSet("hundred bench-compare", flag.ContinueOnError)
	file := fs.String("file", "BENCH_hundred.json", "bench history file to compare")
	threshold := fs.Float64("threshold", benchCompareThreshold,
		"fractional full-mode states/sec regression that fails the gate")
	allocThreshold := fs.Float64("alloc-threshold", benchAllocThreshold,
		"fractional full-mode allocs-per-state growth that fails the gate")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: hundred bench-compare [-file BENCH_hundred.json] [-threshold 0.30] [-alloc-threshold 0.50]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bf, err := loadBenchFile(*file)
	if err != nil {
		fmt.Println(err)
		return 2
	}
	if len(bf.Runs) < 2 {
		fmt.Printf("%s: %d run(s) in history; nothing to compare\n", *file, len(bf.Runs))
		return 0
	}
	cur := &bf.Runs[len(bf.Runs)-1]
	prev := benchBaseline(bf.Runs[:len(bf.Runs)-1], cur)
	if note := noBaselineNote(prev, cur); note != "" {
		fmt.Println(note)
	}
	bad, skipped, compared := diffBenchRecords(prev, cur, *threshold, *allocThreshold)
	for _, msg := range skipped {
		fmt.Printf("skip %s\n", msg)
	}
	if compared == 0 {
		fmt.Println("no system appears in both runs; nothing to compare")
		return 0
	}
	if len(bad) > 0 {
		for _, msg := range bad {
			fmt.Printf("FAIL %s\n", msg)
		}
		return 1
	}
	fmt.Printf("ok: %d systems compared, none past the gates (%s vs %s)\n",
		compared, prev.Timestamp, cur.Timestamp)
	return 0
}

// benchBaseline picks the run cur is gated against from the runs recorded
// before it: the most recent one with cur's goos/goarch/gomaxprocs, so the
// throughput and allocs/state gates apply even when runs from other
// hardware were recorded in between. When there is none it falls back to
// the most recent run, which still gates state counts (noBaselineNote
// says so). Nil for no runs.
func benchBaseline(runs []benchRecord, cur *benchRecord) *benchRecord {
	for i := len(runs) - 1; i >= 0; i-- {
		if sameBenchHardware(&runs[i], cur) {
			return &runs[i]
		}
	}
	if len(runs) == 0 {
		return nil
	}
	return &runs[len(runs)-1]
}

// noBaselineNote is the line printed ahead of the findings when cur's
// baseline prev is a fallback from other hardware; "" otherwise.
func noBaselineNote(prev, cur *benchRecord) string {
	if sameBenchHardware(prev, cur) {
		return ""
	}
	return fmt.Sprintf("NO BASELINE: no earlier run has this run's hardware (%s/%s, gomaxprocs %d); "+
		"comparing against the previous run (%s/%s, gomaxprocs %d), so throughput is NOT gated",
		cur.GOOS, cur.GOARCH, cur.GOMAXPROCS, prev.GOOS, prev.GOARCH, prev.GOMAXPROCS)
}

// sameBenchHardware reports whether two runs share goos, goarch and
// gomaxprocs, the fingerprint the throughput gate needs.
func sameBenchHardware(a, b *benchRecord) bool {
	return a.GOOS == b.GOOS && a.GOARCH == b.GOARCH && a.GOMAXPROCS == b.GOMAXPROCS
}

// diffBenchRecords compares the systems present in both runs and returns
// one message per gate violation: a full-mode throughput regression past
// threshold, an allocs-per-state growth past allocThreshold, or any moved
// deterministic state count. Systems present in only one run (added or
// retired workloads) are skipped — the gate must not force every workload
// change to rewrite history. Throughput is only gated when both runs carry
// the same goos/goarch/gomaxprocs fingerprint: a CI runner comparing
// against a record committed from different hardware can legitimately be
// 30% slower, but it can never legitimately count a different number of
// states. The alloc gate needs both runs to carry the v4 metric (pre-v4
// rows leave it zero) and the same gomaxprocs, which is the worker count
// the rows ran at: allocation counts do not depend on machine speed, but
// each extra worker adds a fixed per-level cost (EXPERIMENTS.md "One
// expansion pipeline") that dominates allocs/state on small spaces. Each
// row whose throughput or alloc gate was skipped for a fingerprint
// mismatch gets one message in skipped, naming the reason.
func diffBenchRecords(prev, cur *benchRecord, threshold, allocThreshold float64) (bad, skipped []string, compared int) {
	sameHW := sameBenchHardware(prev, cur)
	sameWorkers := prev.GOMAXPROCS == cur.GOMAXPROCS
	prevRows := make(map[string]explorationBench, len(prev.Explorations))
	for _, r := range prev.Explorations {
		prevRows[r.System] = r
	}
	for _, r := range cur.Explorations {
		p, ok := prevRows[r.System]
		if !ok {
			continue
		}
		compared++
		if !sameHW {
			skipped = append(skipped, fmt.Sprintf("%s: throughput not gated (hardware %s/%s/%d -> %s/%s/%d)",
				r.System, prev.GOOS, prev.GOARCH, prev.GOMAXPROCS, cur.GOOS, cur.GOARCH, cur.GOMAXPROCS))
		}
		if !sameWorkers {
			skipped = append(skipped, fmt.Sprintf("%s: allocs/state not gated (gomaxprocs %d -> %d; the worker count sets a fixed allocation cost)",
				r.System, prev.GOMAXPROCS, cur.GOMAXPROCS))
		}
		if sameHW && p.FullStatesPerSec > 0 && r.FullStatesPerSec < p.FullStatesPerSec*(1-threshold) &&
			p.FullSeconds >= benchMinGateSeconds && r.FullSeconds >= benchMinGateSeconds {
			bad = append(bad, fmt.Sprintf("%s: full-mode throughput regressed %.1f%% (%.0f -> %.0f states/sec)",
				r.System, (1-r.FullStatesPerSec/p.FullStatesPerSec)*100, p.FullStatesPerSec, r.FullStatesPerSec))
		}
		if sameWorkers && p.AllocsPerState > 0 && r.AllocsPerState > p.AllocsPerState*(1+allocThreshold) {
			bad = append(bad, fmt.Sprintf("%s: full-mode allocations grew %.1f%% (%.2f -> %.2f allocs/state; zero-alloc hot-path contract)",
				r.System, (r.AllocsPerState/p.AllocsPerState-1)*100, p.AllocsPerState, r.AllocsPerState))
		}
		for _, c := range []struct {
			what      string
			prev, cur int
		}{
			{"full", p.FullStates, r.FullStates},
			{"quotient", p.QuotientStates, r.QuotientStates},
			{"por", p.PORStates, r.PORStates},
			{"por+quotient", p.PORQuotientStates, r.PORQuotientStates},
		} {
			// A zero on either side means the mode (or instance) was added or
			// removed, not that a deterministic count moved.
			if c.prev != c.cur && c.prev > 0 && c.cur > 0 {
				bad = append(bad, fmt.Sprintf("%s: %s state count moved %d -> %d (determinism contract)",
					r.System, c.what, c.prev, c.cur))
			}
		}
	}
	return bad, skipped, compared
}
