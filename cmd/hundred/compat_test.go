package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/cmd/internal/cli"
	"repro/internal/engine"
	"repro/internal/obs"
)

// stealTraceFixture is a v3 trace of `hundred -parallel 2 E11` recorded
// when the engine still had a work-stealing scheduler: its run_start
// events carry "sched", its snapshots "steals"/"handoff_batches" and its
// phase profiles "steal_ns"/"handoff_ns"/"idle_ns". That scheduler
// synthesized its level events after discovery and stamped them with the
// live per-worker step counters, which do not sum to the level's
// expansions, so the fixture drops worker_steps from its level events
// (a scheduling-only field the digest ignores); everything else is as
// recorded.
const stealTraceFixture = "testdata/steal-e11.jsonl"

// TestOldStealTraceStillReads: traces from the work-stealing era still
// validate, render and diff clean against a level-loop trace of the same
// experiment, because the fields that era added were optional and
// digest-excluded.
func TestOldStealTraceStillReads(t *testing.T) {
	if code := runTraceLint([]string{"-q", stealTraceFixture}); code != 0 {
		t.Fatalf("trace-lint rejected the old trace (exit %d)", code)
	}
	report := filepath.Join(t.TempDir(), "report.md")
	if code := runReport([]string{"-o", report, stealTraceFixture}); code != 0 {
		t.Fatalf("report failed on the old trace (exit %d)", code)
	}
	if st, err := os.Stat(report); err != nil || st.Size() == 0 {
		t.Fatalf("report missing or empty: %v", err)
	}

	fresh := filepath.Join(t.TempDir(), "e11.jsonl")
	sink, cleanup, err := obs.SetupCLI(obs.CLIConfig{
		Tool: "hundred", TracePath: fresh,
		Options: map[string]string{"parallel": "2", "args": "E11"},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = e11(cli.Exploration{Base: engine.Options{Parallelism: 2, Sink: sink, SnapshotEvery: -1}})
	cleanup()
	if err != nil {
		t.Fatal(err)
	}
	if code := runTraceDiff([]string{stealTraceFixture, fresh}); code != 0 {
		t.Fatalf("trace-diff old steal trace vs fresh -parallel 2 trace: exit %d, want 0", code)
	}
}

// TestBenchHistorySurvivesAppend: appending a run to the committed bench
// history rewrites every older run byte for byte, including the v5
// scaling arrays no current run produces.
func TestBenchHistorySurvivesAppend(t *testing.T) {
	const committed = "../../BENCH_hundred.json"
	bf, err := loadBenchFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Runs) == 0 || len(bf.Runs) >= benchHistoryCap {
		t.Fatalf("committed history has %d runs; the test needs 1..%d", len(bf.Runs), benchHistoryCap-1)
	}
	scaled := false
	for _, r := range bf.Runs {
		for _, e := range r.Explorations {
			scaled = scaled || len(e.Scaling) > 0
		}
	}
	if !scaled {
		t.Fatal("committed history carries no scaling points to preserve")
	}

	out := filepath.Join(t.TempDir(), "bench.json")
	rec := benchRecord{Timestamp: "synthetic", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 1,
		Explorations: []explorationBench{{System: "grid", FullStates: 1}}}
	if _, _, err := appendBenchRun(out, bf, rec); err != nil {
		t.Fatal(err)
	}

	rawRuns := func(path string) []json.RawMessage {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Runs []json.RawMessage `json:"runs"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		return doc.Runs
	}
	before, after := rawRuns(committed), rawRuns(out)
	if len(after) != len(before)+1 {
		t.Fatalf("history grew from %d to %d runs, want +1", len(before), len(after))
	}
	for i := range before {
		if !bytes.Equal(before[i], after[i]) {
			t.Fatalf("run %d changed on append:\nbefore %s\nafter  %s", i, before[i], after[i])
		}
	}
}
