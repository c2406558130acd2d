package flp

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
)

// TestWaitQuorumTelemetryAcceptance is the PR's acceptance run: exploring
// wait-quorum n=4 (crash-free) with progress and trace sinks attached
// emits at least one timer snapshot and a schema-valid JSONL trace whose
// final snapshot totals equal the returned Stats — while the configuration
// graph stays byte-identical to a no-sink exploration at workers 1, 2 and
// 8, and the deterministic trace digest is identical across all three.
func TestWaitQuorumTelemetryAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("explores a 112k-state space six times")
	}
	p := NewWaitQuorum(4)
	sys := NewSystem(p, nil, 0)

	var refDigest string
	for _, workers := range []int{1, 2, 8} {
		// The bare run also carries a Stats pointer so both runs route
		// through the engine (a sequential-explorer Graph is structurally
		// different in its private fields even when equivalent); the only
		// delta under comparison is the sink.
		var plainStats engine.Stats
		plain, err := core.Explore[string](sys, core.ExploreOptions{
			Parallelism: workers, Stats: &plainStats,
		})
		if err != nil {
			t.Fatalf("workers=%d without sink: %v", workers, err)
		}

		var trace, progress bytes.Buffer
		tw, err := obs.NewTraceWriter(&trace, obs.NewManifest("flp-test"))
		if err != nil {
			t.Fatal(err)
		}
		dig := obs.NewDigest()
		var st engine.Stats
		traced, err := core.Explore[string](sys, core.ExploreOptions{
			Parallelism: workers,
			Stats:       &st,
			Sink:        obs.MultiSink{tw, dig, obs.NewLogger(&progress, "[obs] ")},
			// Fast timer so a sub-second exploration still snapshots.
			SnapshotEvery: time.Millisecond,
		})
		if err != nil {
			t.Fatalf("workers=%d with sink: %v", workers, err)
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}

		// Observation is passive: the graph is byte-identical.
		if !sameGraph(plain, traced) {
			t.Fatalf("workers=%d: sink-attached graph differs from bare graph", workers)
		}

		sum, err := obs.ValidateTrace(bytes.NewReader(trace.Bytes()))
		if err != nil {
			t.Fatalf("workers=%d: trace invalid: %v", workers, err)
		}
		if sum.Runs != 1 {
			t.Fatalf("workers=%d: trace has %d runs, want 1", workers, sum.Runs)
		}
		if sum.Snapshots < 1 {
			t.Fatalf("workers=%d: trace has no timer snapshots", workers)
		}
		if sum.Levels < 1 {
			t.Fatalf("workers=%d: trace has no level events", workers)
		}
		if len(sum.FinalStates) != 1 || sum.FinalStates[0] != st.States {
			t.Fatalf("workers=%d: trace final states %v != returned stats %d",
				workers, sum.FinalStates, st.States)
		}
		if sum.Digest != dig.Sum() {
			t.Fatalf("workers=%d: validator digest %s != published digest %s",
				workers, sum.Digest, dig.Sum())
		}
		if refDigest == "" {
			refDigest = sum.Digest
		} else if sum.Digest != refDigest {
			t.Fatalf("workers=%d: digest %s diverged from workers=1 digest %s",
				workers, sum.Digest, refDigest)
		}
		if plain.Len() != st.States {
			t.Fatalf("workers=%d: graph has %d states but stats say %d",
				workers, plain.Len(), st.States)
		}
		if progress.Len() == 0 {
			t.Fatalf("workers=%d: progress logger produced no output", workers)
		}
	}
}

// TestAnalyzeSinkCoversMainExplorationOnly: Analyze explores one
// configuration graph, and its Sink attaches to that exploration, so a
// bivalence trace carries exactly one run and its final totals match
// Report.States.
func TestAnalyzeSinkCoversMainExplorationOnly(t *testing.T) {
	var trace bytes.Buffer
	tw, err := obs.NewTraceWriter(&trace, obs.NewManifest("flp-test"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(NewAdoptSwap(2), AnalyzeOptions{Sink: tw, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateTrace(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if sum.Runs != 1 {
		t.Fatalf("trace has %d runs, want 1 (Analyze explores one graph)", sum.Runs)
	}
	if sum.FinalStates[0] != rep.States {
		t.Fatalf("trace final states %d != report states %d", sum.FinalStates[0], rep.States)
	}
}

// sameGraph reports whether a and b are the same graph through every
// accessor: states, initials, parent tree, parent steps and successor
// lists. A Graph holds its run's telemetry and its rows in the exploring
// workers' arenas, so the structs themselves differ between two runs of
// the same graph.
func sameGraph(a, b *core.Graph[string]) bool {
	if a.Len() != b.Len() || a.NumEdges() != b.NumEdges() || !slices.Equal(a.Initials(), b.Initials()) {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.State(i) != b.State(i) || a.Parent(i) != b.Parent(i) || a.ParentStep(i) != b.ParentStep(i) ||
			!slices.Equal(a.Successors(i), b.Successors(i)) {
			return false
		}
	}
	return true
}
