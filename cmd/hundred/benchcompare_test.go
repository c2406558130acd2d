package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func benchFixture(t *testing.T, runs ...benchRecord) string {
	t.Helper()
	data, err := json.Marshal(benchFile{SchemaVersion: benchSchemaVersion, Runs: runs})
	if err != nil {
		t.Fatal(err)
	}
	return writeTemp(t, "bench.json", string(data))
}

func TestBenchCompareOK(t *testing.T) {
	path := benchFixture(t,
		benchRecord{Timestamp: "a", Explorations: []explorationBench{
			{System: "grid", FullStates: 100, FullStatesPerSec: 1000},
			{System: "retired", FullStates: 5, FullStatesPerSec: 50},
		}},
		benchRecord{Timestamp: "b", Explorations: []explorationBench{
			{System: "grid", FullStates: 100, FullStatesPerSec: 800}, // -20%: within gate
			{System: "brand-new", FullStates: 7, FullStatesPerSec: 70},
		}},
	)
	if code := runBenchCompare([]string{"-file", path}); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
}

func TestBenchCompareThroughputRegression(t *testing.T) {
	path := benchFixture(t,
		benchRecord{Explorations: []explorationBench{{System: "grid", FullStates: 100, FullStatesPerSec: 1000, FullSeconds: 1}}},
		benchRecord{Explorations: []explorationBench{{System: "grid", FullStates: 100, FullStatesPerSec: 500, FullSeconds: 2}}},
	)
	if code := runBenchCompare([]string{"-file", path}); code != 1 {
		t.Fatalf("50%% regression: exit = %d, want 1", code)
	}
	// A looser threshold lets the same file pass.
	if code := runBenchCompare([]string{"-file", path, "-threshold", "0.6"}); code != 0 {
		t.Fatalf("60%% threshold: exit = %d, want 0", code)
	}
	// Sub-floor rows are too short to time: the same regression on a
	// 2ms workload is jitter, not signal, and must not gate.
	path = benchFixture(t,
		benchRecord{Explorations: []explorationBench{{System: "grid", FullStates: 100, FullStatesPerSec: 1000, FullSeconds: 0.002}}},
		benchRecord{Explorations: []explorationBench{{System: "grid", FullStates: 100, FullStatesPerSec: 500, FullSeconds: 0.002}}},
	)
	if code := runBenchCompare([]string{"-file", path}); code != 0 {
		t.Fatalf("sub-floor row gated: exit = %d, want 0", code)
	}
}

func TestBenchCompareStateCountDrift(t *testing.T) {
	prev := benchRecord{Explorations: []explorationBench{
		{System: "grid", FullStates: 100, FullStatesPerSec: 1000, QuotientStates: 30}}}
	cur := benchRecord{Explorations: []explorationBench{
		{System: "grid", FullStates: 101, FullStatesPerSec: 1000, QuotientStates: 30}}}
	bad, _, compared := diffBenchRecords(&prev, &cur, 0.30, 0.50)
	if compared != 1 || len(bad) != 1 || !strings.Contains(bad[0], "determinism contract") {
		t.Fatalf("bad = %v, compared = %d", bad, compared)
	}
	// A mode disappearing (count going to zero) is a workload change, not drift.
	cur.Explorations[0].FullStates = 100
	cur.Explorations[0].QuotientStates = 0
	bad, _, _ = diffBenchRecords(&prev, &cur, 0.30, 0.50)
	if len(bad) != 0 {
		t.Fatalf("removed mode flagged as drift: %v", bad)
	}
}

func TestBenchCompareCrossHardwareSkipsThroughput(t *testing.T) {
	prev := benchRecord{GOARCH: "arm64", GOMAXPROCS: 8, Explorations: []explorationBench{
		{System: "grid", FullStates: 100, FullStatesPerSec: 1000}}}
	cur := benchRecord{GOARCH: "amd64", GOMAXPROCS: 2, Explorations: []explorationBench{
		{System: "grid", FullStates: 100, FullStatesPerSec: 100}}}
	bad, _, compared := diffBenchRecords(&prev, &cur, 0.30, 0.50)
	if compared != 1 || len(bad) != 0 {
		t.Fatalf("cross-hardware throughput gated: bad = %v, compared = %d", bad, compared)
	}
	// State counts still gate across hardware.
	cur.Explorations[0].FullStates = 99
	bad, _, _ = diffBenchRecords(&prev, &cur, 0.30, 0.50)
	if len(bad) != 1 {
		t.Fatalf("cross-hardware state drift not gated: %v", bad)
	}
}

func TestBenchCompareAllocRegression(t *testing.T) {
	prev := benchRecord{Explorations: []explorationBench{
		{System: "grid", FullStates: 100, FullStatesPerSec: 1000, AllocsPerState: 2.0}}}
	cur := benchRecord{Explorations: []explorationBench{
		{System: "grid", FullStates: 100, FullStatesPerSec: 1000, AllocsPerState: 2.9}}}
	// +45%: within the 50% gate.
	bad, _, compared := diffBenchRecords(&prev, &cur, 0.30, 0.50)
	if compared != 1 || len(bad) != 0 {
		t.Fatalf("within-gate alloc growth flagged: bad = %v, compared = %d", bad, compared)
	}
	cur.Explorations[0].AllocsPerState = 20 // 10x: the hot path started allocating
	bad, _, _ = diffBenchRecords(&prev, &cur, 0.30, 0.50)
	if len(bad) != 1 || !strings.Contains(bad[0], "allocs/state") {
		t.Fatalf("10x alloc growth not gated: %v", bad)
	}
	// Cross-hardware does not disable the alloc gate (allocation counts are
	// machine-independent), and a pre-v4 row (zero metric) does.
	cur.GOARCH = "amd64"
	prev.GOARCH = "arm64"
	bad, _, _ = diffBenchRecords(&prev, &cur, 0.30, 0.50)
	if len(bad) != 1 {
		t.Fatalf("cross-hardware alloc growth not gated: %v", bad)
	}
	prev.Explorations[0].AllocsPerState = 0
	bad, _, _ = diffBenchRecords(&prev, &cur, 0.30, 0.50)
	if len(bad) != 0 {
		t.Fatalf("pre-v4 row tripped the alloc gate: %v", bad)
	}
}

// TestBenchCompareAllocGateNeedsEqualWorkers: allocs/state is gated only
// between runs at the same gomaxprocs (the worker count), and every row a
// mismatch leaves ungated is reported as skipped with its reason.
func TestBenchCompareAllocGateNeedsEqualWorkers(t *testing.T) {
	prev := benchRecord{GOMAXPROCS: 1, Explorations: []explorationBench{
		{System: "crash-space", FullStates: 2771, AllocsPerState: 0.05},
		{System: "async-lcr", FullStates: 40320, AllocsPerState: 0.007}}}
	cur := benchRecord{GOMAXPROCS: 2, Explorations: []explorationBench{
		{System: "crash-space", FullStates: 2771, AllocsPerState: 0.18},
		{System: "async-lcr", FullStates: 40320, AllocsPerState: 0.027}}}
	bad, skipped, compared := diffBenchRecords(&prev, &cur, 0.30, 0.50)
	if compared != 2 || len(bad) != 0 {
		t.Fatalf("mismatched worker counts gated: bad = %v, compared = %d", bad, compared)
	}
	var allocSkips int
	for _, msg := range skipped {
		if strings.Contains(msg, "allocs/state not gated") && strings.Contains(msg, "gomaxprocs 1 -> 2") {
			allocSkips++
		}
	}
	if allocSkips != 2 {
		t.Fatalf("skipped = %v, want one allocs/state skip per row naming the gomaxprocs change", skipped)
	}
	// State counts still gate across worker counts.
	cur.Explorations[0].FullStates = 2770
	if bad, _, _ = diffBenchRecords(&prev, &cur, 0.30, 0.50); len(bad) != 1 {
		t.Fatalf("state drift across worker counts not gated: %v", bad)
	}

	// At equal worker counts the same growth fails the gate, and nothing
	// is skipped.
	cur.Explorations[0].FullStates = 2771
	prev.GOMAXPROCS = 2
	bad, skipped, _ = diffBenchRecords(&prev, &cur, 0.30, 0.50)
	if len(bad) != 2 || len(skipped) != 0 {
		t.Fatalf("matched worker counts: bad = %v, skipped = %v; want both rows gated", bad, skipped)
	}
	path := benchFixture(t, prev, cur)
	if code := runBenchCompare([]string{"-file", path}); code != 1 {
		t.Fatalf("alloc growth at equal worker counts: exit = %d, want 1", code)
	}
	prev.GOMAXPROCS = 1
	path = benchFixture(t, prev, cur)
	if code := runBenchCompare([]string{"-file", path}); code != 0 {
		t.Fatalf("alloc growth across worker counts: exit = %d, want 0", code)
	}
}

// TestCompareBenchRunsPrintsGateFindings: -bench-json's warn-only
// comparison prints exactly the bench-compare gate's findings, violations
// as WARN and skipped gates as skip, in the same order on every call.
func TestCompareBenchRunsPrintsGateFindings(t *testing.T) {
	prev := benchRecord{GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 1, Explorations: []explorationBench{
		{System: "grid", FullStates: 100, QuotientStates: 30, PORStates: 40, FullStatesPerSec: 1000, FullSeconds: 1},
		{System: "ring", FullStates: 50, FullStatesPerSec: 1000, FullSeconds: 1}}}
	cur := benchRecord{GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 2, Explorations: []explorationBench{
		// Two moved counts, and a throughput drop the hardware mismatch
		// leaves ungated.
		{System: "grid", FullStates: 100, QuotientStates: 31, PORStates: 41, FullStatesPerSec: 100, FullSeconds: 10},
		{System: "ring", FullStates: 50, FullStatesPerSec: 1000, FullSeconds: 1}}}
	bad, skipped, _ := diffBenchRecords(&prev, &cur, benchCompareThreshold, benchAllocThreshold)
	if len(bad) != 2 || len(skipped) != 4 {
		t.Fatalf("fixture: bad = %v, skipped = %v; want 2 moved counts and 2 skips per row", bad, skipped)
	}
	var want []string
	for _, msg := range skipped {
		want = append(want, "skip "+msg)
	}
	for _, msg := range bad {
		want = append(want, "WARN "+msg)
	}
	var first string
	for call := 0; call < 20; call++ {
		var buf bytes.Buffer
		compareBenchRuns(&buf, &prev, &cur)
		if call == 0 {
			first = buf.String()
		} else if buf.String() != first {
			t.Fatalf("call %d printed\n%s\nwant, as on the first call,\n%s", call, buf.String(), first)
		}
	}
	var got []string
	for _, line := range strings.Split(first, "\n") {
		if strings.HasPrefix(line, "WARN ") || strings.HasPrefix(line, "skip ") {
			got = append(got, line)
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("findings printed:\n%s\nwant the gate's:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if !strings.Contains(first, "grid") || !strings.Contains(first, "-90.0%") {
		t.Fatalf("states/s table missing the grid row:\n%s", first)
	}
}

// TestBenchCompareFindsMatchingBaseline: the newest run is gated against
// the most recent earlier run on its own goos/goarch/gomaxprocs, here two
// runs back behind a run from other hardware; with no such run it falls
// back to the previous one, which gates state counts only, and says so.
func TestBenchCompareFindsMatchingBaseline(t *testing.T) {
	row := func(perSec float64, secs float64) []explorationBench {
		return []explorationBench{{System: "grid", FullStates: 100, FullStatesPerSec: perSec, FullSeconds: secs}}
	}
	twoCPU := benchRecord{Timestamp: "a", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 2, Explorations: row(1000, 1)}
	oneCPU := benchRecord{Timestamp: "b", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 1, Explorations: row(400, 2.5)}
	cur := benchRecord{Timestamp: "c", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 2, Explorations: row(500, 2)}

	runs := []benchRecord{twoCPU, oneCPU}
	if base := benchBaseline(runs, &cur); base != &runs[0] || noBaselineNote(base, &cur) != "" {
		t.Fatalf("baseline = run %q, want the matching run two back", base.Timestamp)
	}
	// Against the previous run the 50% drop would go ungated.
	if code := runBenchCompare([]string{"-file", benchFixture(t, twoCPU, oneCPU, cur)}); code != 1 {
		t.Fatalf("50%% regression against the matching run two back: exit = %d, want 1", code)
	}
	cur.Explorations = row(900, 1.1)
	if code := runBenchCompare([]string{"-file", benchFixture(t, twoCPU, oneCPU, cur)}); code != 0 {
		t.Fatalf("10%% drop against the matching run two back: exit = %d, want 0", code)
	}

	cur.GOMAXPROCS = 4
	base := benchBaseline(runs, &cur)
	if base != &runs[1] {
		t.Fatalf("no matching run: baseline = run %q, want the previous run", base.Timestamp)
	}
	if note := noBaselineNote(base, &cur); !strings.HasPrefix(note, "NO BASELINE") || !strings.Contains(note, "gomaxprocs 4") {
		t.Fatalf("no matching run: note = %q, want a loud NO BASELINE line naming the hardware", note)
	}
	var buf bytes.Buffer
	compareBenchRuns(&buf, base, &cur)
	if !strings.HasPrefix(buf.String(), "NO BASELINE") {
		t.Fatalf("-bench-json comparison does not open with the note:\n%s", buf.String())
	}
	// The fallback still gates state counts.
	cur.Explorations[0].FullStates = 101
	if code := runBenchCompare([]string{"-file", benchFixture(t, twoCPU, oneCPU, cur)}); code != 1 {
		t.Fatalf("state drift without a matching run: exit = %d, want 1", code)
	}
	if benchBaseline(nil, &cur) != nil {
		t.Fatal("baseline in an empty history")
	}
}

func TestBenchCompareTooFewRuns(t *testing.T) {
	path := benchFixture(t, benchRecord{Explorations: []explorationBench{{System: "grid", FullStates: 1}}})
	if code := runBenchCompare([]string{"-file", path}); code != 0 {
		t.Fatalf("single run: exit = %d, want 0", code)
	}
}

func TestBenchCompareBadFile(t *testing.T) {
	path := writeTemp(t, "corrupt.json", `{"schema_version": 2, "runs": [{`)
	if code := runBenchCompare([]string{"-file", path}); code != 2 {
		t.Fatalf("corrupt history: exit = %d, want 2", code)
	}
}
