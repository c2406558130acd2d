package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// writeRun publishes one complete synthetic run to tw: run_start, two
// levels, one timer snapshot, run_end. Counters are internally consistent
// (Expansions equals the worker-step sum, States/Depth monotone).
func writeRun(tw Sink) {
	tw.Publish(Event{Kind: KindRunStart, Config: &RunConfig{Workers: 2, MaxStates: 1000, Inits: 1}})
	l1 := ProgressSnapshot{Elapsed: time.Millisecond, States: 3, Depth: 1, Frontier: 2,
		PeakFrontier: 2, Expansions: 1, WorkerSteps: []uint64{1, 0}}
	tw.Publish(Event{Kind: KindLevel, Snapshot: &l1})
	timer := ProgressSnapshot{Elapsed: 2 * time.Millisecond, States: 4, Depth: 1, Frontier: 2,
		PeakFrontier: 2, Expansions: 2, WorkerSteps: []uint64{1, 1}}
	tw.Publish(Event{Kind: KindSnapshot, Snapshot: &timer})
	l2 := ProgressSnapshot{Elapsed: 3 * time.Millisecond, States: 7, Depth: 2, Frontier: 4,
		PeakFrontier: 4, Expansions: 3, WorkerSteps: []uint64{2, 1}}
	tw.Publish(Event{Kind: KindLevel, Snapshot: &l2})
	end := ProgressSnapshot{Elapsed: 4 * time.Millisecond, States: 7, Edges: 9, Depth: 2,
		PeakFrontier: 4, Expansions: 7, WorkerSteps: []uint64{4, 3}, Final: true}
	tw.Publish(Event{Kind: KindRunEnd, Snapshot: &end})
}

func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	m := NewManifest("obs-test")
	m.Seed = 42
	m.Options = map[string]string{"proto": "wait-quorum", "n": "4"}
	tw, err := NewTraceWriter(&buf, m)
	if err != nil {
		t.Fatal(err)
	}
	dig := NewDigest()
	both := MultiSink{tw, dig}
	writeRun(both)
	writeRun(both) // a second run in the same file bumps the run number
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	// The manifest survives the trip byte-for-byte on the fields we set.
	var gotM Manifest
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	if err := json.Unmarshal([]byte(first), &gotM); err != nil {
		t.Fatalf("manifest line does not parse: %v", err)
	}
	if gotM.Tool != "obs-test" || gotM.Seed != 42 || gotM.SchemaVersion != SchemaVersion ||
		gotM.Options["proto"] != "wait-quorum" || gotM.Options["n"] != "4" {
		t.Fatalf("manifest round-trip mangled: %+v", gotM)
	}

	sum, err := ValidateTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ValidateTrace rejected a well-formed trace: %v", err)
	}
	if sum.Runs != 2 || sum.Events != 10 || sum.Levels != 4 || sum.Snapshots != 2 {
		t.Fatalf("summary = %+v, want runs=2 events=10 levels=4 snapshots=2", sum)
	}
	if len(sum.FinalStates) != 2 || sum.FinalStates[0] != 7 || sum.FinalStates[1] != 7 {
		t.Fatalf("final states = %v, want [7 7]", sum.FinalStates)
	}
	// The validator's recomputed digest matches a Digest that saw the same
	// events beside the writer: the deterministic skeleton survives
	// serialization.
	if sum.Digest != dig.Sum() {
		t.Fatalf("validator digest %s != published digest %s", sum.Digest, dig.Sum())
	}
}

// traceDigest publishes events to a TraceWriter and, through a MultiSink,
// to a Digest beside it, then returns the digest after checking that
// ValidateTrace recomputes the same value from the written file.
func traceDigest(t *testing.T, events func(Sink)) string {
	t.Helper()
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, NewManifest("t"))
	if err != nil {
		t.Fatal(err)
	}
	dig := NewDigest()
	events(MultiSink{tw, dig})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := ValidateTrace(&buf)
	if err != nil {
		t.Fatalf("ValidateTrace rejected a well-formed trace: %v", err)
	}
	if sum.Digest != dig.Sum() {
		t.Fatalf("validator digest %s != published digest %s", sum.Digest, dig.Sum())
	}
	return sum.Digest
}

func TestTraceDigestIgnoresTiming(t *testing.T) {
	// Two traces of the same run differing only in Elapsed, WorkerSteps
	// and timer snapshots digest identically.
	write := func(elapsedScale time.Duration, timerSnaps int, steps []uint64) string {
		return traceDigest(t, func(tw Sink) {
			tw.Publish(Event{Kind: KindRunStart, Config: &RunConfig{Workers: len(steps), MaxStates: 100, Inits: 1}})
			var exp uint64
			for _, s := range steps {
				exp += s
			}
			lvl := ProgressSnapshot{Elapsed: elapsedScale, States: 5, Depth: 1, Frontier: 4,
				PeakFrontier: 4, Expansions: exp, WorkerSteps: steps}
			tw.Publish(Event{Kind: KindLevel, Snapshot: &lvl})
			for i := 0; i < timerSnaps; i++ {
				snap := lvl
				snap.Elapsed += time.Duration(i) * time.Millisecond
				tw.Publish(Event{Kind: KindSnapshot, Snapshot: &snap})
			}
			end := ProgressSnapshot{Elapsed: 2 * elapsedScale, States: 5, Edges: 4, Depth: 1,
				PeakFrontier: 4, Expansions: exp, WorkerSteps: steps, Final: true}
			tw.Publish(Event{Kind: KindRunEnd, Snapshot: &end})
		})
	}
	a := write(time.Millisecond, 0, []uint64{5})
	b := write(time.Hour, 7, []uint64{2, 2, 1})
	if a != b {
		t.Fatalf("digests differ across timing/worker variations: %s vs %s", a, b)
	}
	// But a structural difference (one more state) changes it.
	c := traceDigest(t, func(tw Sink) {
		tw.Publish(Event{Kind: KindRunStart, Config: &RunConfig{Workers: 1, MaxStates: 100, Inits: 1}})
		lvl := ProgressSnapshot{States: 6, Depth: 1, Frontier: 4, PeakFrontier: 4, Expansions: 5, WorkerSteps: []uint64{5}}
		tw.Publish(Event{Kind: KindLevel, Snapshot: &lvl})
		end := ProgressSnapshot{States: 6, Edges: 4, Depth: 1, PeakFrontier: 4, Expansions: 5, WorkerSteps: []uint64{5}, Final: true}
		tw.Publish(Event{Kind: KindRunEnd, Snapshot: &end})
	})
	if c == a {
		t.Fatal("digest did not react to a structural difference")
	}
}

func TestTraceElapsedNsMonotonic(t *testing.T) {
	// The writer stamps every event with its own monotonic clock under the
	// write lock, so elapsed_ns is non-decreasing by construction — the
	// property ValidateTrace enforces and run reports rely on for
	// throughput-over-time.
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, NewManifest("t"))
	if err != nil {
		t.Fatal(err)
	}
	writeRun(tw)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	_, evs, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var last int64
	for i, ev := range evs {
		if ev.ElapsedNs < last {
			t.Fatalf("event %d elapsed_ns regressed %d -> %d", i, last, ev.ElapsedNs)
		}
		last = ev.ElapsedNs
	}
	if last == 0 {
		t.Fatal("no event carries a non-zero elapsed_ns stamp")
	}
}

func TestDigestLineExcludesProfiling(t *testing.T) {
	// Regression guard for the passive-observation invariant: none of the
	// profiling fields — elapsed_ns, phase counters, latency histograms,
	// store cache counters — may leak into the digest line. If one does,
	// digests stop being worker-count-invariant (timing differs every run)
	// and trace-diff reports phantom divergences.
	snap := ProgressSnapshot{States: 5, Edges: 4, Depth: 1, Frontier: 4,
		PeakFrontier: 4, Expansions: 5}
	base, ok := DigestLine(Event{Kind: KindLevel, Run: 1, Seq: 2, Snapshot: &snap})
	if !ok {
		t.Fatal("level event should contribute a digest line")
	}
	var lat Hist
	lat.Observe(12345)
	hs := lat.Snapshot()
	prof := snap
	prof.Elapsed = time.Hour
	prof.WorkerSteps = []uint64{3, 2}
	prof.Phases = &Phases{ExpandNs: 1e9, BarrierWaitNs: 1e8, SampledStates: 3,
		SampleExpandNs: 999, SampleCanonNs: 111, SampleInternNs: 222}
	prof.WorkerPhases = []Phases{{ExpandNs: 5e8}, {ExpandNs: 5e8}}
	prof.ExpandLat = &hs
	prof.StorePageCacheHits = 42
	prof.StoreReadLat, prof.StoreWriteLat = &hs, &hs
	prof.GraphBytes, prof.ArenaBytes = 1<<20, 1<<19
	got, ok := DigestLine(Event{Kind: KindLevel, Run: 1, Seq: 2, ElapsedNs: 1 << 40, Snapshot: &prof})
	if !ok || got != base {
		t.Fatalf("profiling fields leaked into the digest line:\n base %q\n prof %q", base, got)
	}
}

// validTrace renders one complete run to bytes for mutation tests.
func validTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, NewManifest("obs-test"))
	if err != nil {
		t.Fatal(err)
	}
	writeRun(tw)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestValidateTraceRejects(t *testing.T) {
	base := validTrace(t)
	lines := strings.Split(strings.TrimSuffix(string(base), "\n"), "\n")

	cases := []struct {
		name    string
		mutate  func([]string) []string
		wantErr string
	}{
		{"empty", func([]string) []string { return nil }, "no manifest"},
		{"manifest missing", func(ls []string) []string { return ls[1:] }, "not a manifest"},
		{"newer schema", func(ls []string) []string {
			cur := fmt.Sprintf(`"schema_version":%d`, SchemaVersion)
			ls[0] = strings.Replace(ls[0], cur, `"schema_version":99`, 1)
			return ls
		}, "newer than this binary"},
		{"unknown kind", func(ls []string) []string {
			ls[2] = strings.Replace(ls[2], `"kind":"level"`, `"kind":"wibble"`, 1)
			return ls
		}, "unknown event kind"},
		{"seq regression", func(ls []string) []string {
			ls[3] = strings.Replace(ls[3], `"seq":3`, `"seq":2`, 1)
			return ls
		}, "not strictly increasing"},
		{"event outside a run", func(ls []string) []string {
			return append(ls[:1], ls[2:]...) // drop run_start
		}, "outside a run"},
		{"missing run_end", func(ls []string) []string {
			return ls[:len(ls)-1]
		}, "missing run_end"},
		{"run_end not final", func(ls []string) []string {
			ls[len(ls)-1] = strings.Replace(ls[len(ls)-1], `"final":true`, `"final":false`, 1)
			return ls
		}, "not marked final"},
		{"expansions mismatch", func(ls []string) []string {
			ls[2] = strings.Replace(ls[2], `"expansions":1`, `"expansions":9`, 1)
			return ls
		}, "worker-step sum"},
		{"negative graph bytes", func(ls []string) []string {
			ls[len(ls)-1] = strings.Replace(ls[len(ls)-1], `"final":true`, `"final":true,"graph_bytes":-5`, 1)
			return ls
		}, "negative graph/arena"},
		{"states regression", func(ls []string) []string {
			ls[4] = strings.Replace(ls[4], `"states":7`, `"states":1`, 1)
			return ls
		}, "regressed"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ls := c.mutate(append([]string(nil), lines...))
			// Mutations must actually hit their target line; a no-op
			// Replace would silently test nothing.
			_, err := ValidateTrace(strings.NewReader(strings.Join(ls, "\n")))
			if err == nil {
				t.Fatalf("ValidateTrace accepted a %s trace", c.name)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

func TestValidateTraceAllowsTimerSnapshotLag(t *testing.T) {
	// A timer snapshot may race a barrier and report an older state count;
	// only barrier-to-barrier monotonicity is promised.
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, NewManifest("t"))
	if err != nil {
		t.Fatal(err)
	}
	tw.Publish(Event{Kind: KindRunStart, Config: &RunConfig{Workers: 1, MaxStates: 100, Inits: 1}})
	lvl := ProgressSnapshot{States: 10, Depth: 2}
	tw.Publish(Event{Kind: KindLevel, Snapshot: &lvl})
	stale := ProgressSnapshot{States: 4, Depth: 1} // behind the barrier
	tw.Publish(Event{Kind: KindSnapshot, Snapshot: &stale})
	end := ProgressSnapshot{States: 10, Depth: 2, Final: true}
	tw.Publish(Event{Kind: KindRunEnd, Snapshot: &end})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("ValidateTrace rejected a lagging timer snapshot: %v", err)
	}
}

func TestLiveMetricsEndpoint(t *testing.T) {
	m := NewManifest("obs-test")
	live := NewLive(&m)
	live.Publish(Event{Kind: KindRunStart, Config: &RunConfig{Workers: 4, MaxStates: 100, Inits: 1}})
	snap := ProgressSnapshot{States: 50, Depth: 3, Elapsed: time.Second, WorkerSteps: []uint64{10, 10, 10, 10}}
	live.Publish(Event{Kind: KindSnapshot, Snapshot: &snap})

	rr := httptest.NewRecorder()
	live.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	var doc struct {
		Runs         int               `json:"runs"`
		Events       uint64            `json:"events"`
		Config       *RunConfig        `json:"config"`
		Snapshot     *ProgressSnapshot `json:"snapshot"`
		StatesPerSec float64           `json:"states_per_sec"`
		Utilization  float64           `json:"utilization"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/metrics is not JSON: %v", err)
	}
	if doc.Runs != 1 || doc.Events != 2 || doc.Config == nil || doc.Config.Workers != 4 {
		t.Fatalf("/metrics counters wrong: %+v", doc)
	}
	if doc.Snapshot == nil || doc.Snapshot.States != 50 {
		t.Fatalf("/metrics snapshot wrong: %+v", doc.Snapshot)
	}
	if doc.StatesPerSec != 50 || doc.Utilization != 1 {
		t.Fatalf("/metrics derived figures wrong: rate=%v util=%v", doc.StatesPerSec, doc.Utilization)
	}

	// The mux serves the index and pprof routes.
	h := Handler(live)
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/", nil))
	if !strings.Contains(rr.Body.String(), "/metrics") {
		t.Fatalf("index page does not list routes: %q", rr.Body.String())
	}
}

func TestLoggerOutput(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, "[t] ")
	lg.Publish(Event{Kind: KindRunStart, Config: &RunConfig{Workers: 2, MaxStates: 100, Inits: 3, Canon: true}})
	s1 := ProgressSnapshot{States: 10, Depth: 1, Elapsed: time.Second}
	lg.Publish(Event{Kind: KindSnapshot, Snapshot: &s1})
	s2 := ProgressSnapshot{States: 30, Depth: 2, Elapsed: 2 * time.Second}
	lg.Publish(Event{Kind: KindSnapshot, Snapshot: &s2})
	end := ProgressSnapshot{States: 35, Depth: 3, Elapsed: 3 * time.Second, Final: true}
	lg.Publish(Event{Kind: KindRunEnd, Snapshot: &end})
	out := buf.String()
	for _, want := range []string{
		"[t] run start: mode=canon workers=2",
		"now=20/s", // windowed rate between the two snapshots
		"run end: states=35",
		"(final)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("logger output missing %q:\n%s", want, out)
		}
	}
}
