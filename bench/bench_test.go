package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestSummarizeMatchesStatisticsQuantiles(t *testing.T) {
	// Want values are Python's statistics.quantiles(xs, n=4) and median(xs).
	for _, tc := range []struct {
		xs             []float64
		q1, m, q3, max float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 10},
		{[]float64{1, 2}, 0.75, 1.5, 2.25, 2},
		{[]float64{3.5, 1.25, 9, 2}, 1.4375, 2.75, 7.625, 9},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5, 5},
		{[]float64{7}, 7, 7, 7, 7},
	} {
		got := summarize(tc.xs)
		want := summary{N: len(tc.xs), Median: tc.m, Q1: tc.q1, Q3: tc.q3, Max: tc.max}
		if got != want {
			t.Errorf("summarize(%v) = %+v, want %+v", tc.xs, got, want)
		}
	}
	if got := summarize(nil); got != (summary{}) {
		t.Errorf("summarize(nil) = %+v, want zero", got)
	}
}

func goldenSummary(t *testing.T, file string) verdictSummary {
	t.Helper()
	raw, err := testdata.ReadFile("testdata/" + file)
	if err != nil {
		t.Fatal(err)
	}
	var s verdictSummary
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCheckVerdictRejectsFlippedFields(t *testing.T) {
	for _, file := range []string{"verdict-full.json", "verdict-reduced.json"} {
		good := goldenSummary(t, file)
		if err := checkVerdict(file, good); err != nil {
			t.Fatalf("%s: golden rejected itself: %v", file, err)
		}
		for name, flip := range map[string]func(*verdictSummary){
			"AgreementViolated": func(s *verdictSummary) { s.AgreementViolated = !s.AgreementViolated },
			"States":            func(s *verdictSummary) { s.States++ },
			"WitnessSteps":      func(s *verdictSummary) { s.WitnessSteps-- },
			"Lossy":             func(s *verdictSummary) { s.Lossy = !s.Lossy },
		} {
			bad := good
			flip(&bad)
			if err := checkVerdict(file, bad); err == nil {
				t.Errorf("%s: flipped %s accepted", file, name)
			}
		}
	}
}

func TestCheckSuiteRejectsFlippedByte(t *testing.T) {
	want, err := testdata.ReadFile("testdata/paper-suite.golden")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSuite(want); err != nil {
		t.Fatalf("golden rejected itself: %v", err)
	}
	flipped := append([]byte(nil), want...)
	flipped[len(flipped)/2] ^= 1
	if err := checkSuite(flipped); err == nil {
		t.Error("suite output with one flipped byte accepted")
	}
	if err := checkSuite(want[:len(want)-1]); err == nil {
		t.Error("truncated suite output accepted")
	}
}

func TestFailedFracCounting(t *testing.T) {
	var ok, bad, dead repResult
	ok.check(nil)
	ok.check(nil)
	ok.WallS, ok.Work, ok.SetupS, ok.PeakRSSMB, ok.ProbeMS = 2, 10, 0.01, 50, 100
	bad.check(nil)
	bad.check(errors.New("refinement failed"))
	bad.WallS, bad.Work, bad.SetupS, bad.PeakRSSMB, bad.ProbeMS = 4, 10, 0.02, 60, 100
	dead.check(errors.New("child exited 2")) // failed before measuring
	dead.ProbeMS = 100

	rep, err := aggregate([]repResult{ok, bad, dead})
	if err != nil {
		t.Fatal(err)
	}
	if rep.attempted != 5 || rep.failed != 2 {
		t.Errorf("failed_frac = %d/%d, want 2/5", rep.failed, rep.attempted)
	}
	if got := rep.metrics["wall_s"]; got.N != 1 || got.Median != 2 {
		t.Errorf("wall_s = %+v, want the one passing repetition's 2 s (its probe read the reference 100 ms)", got)
	}
	if n := rep.metrics["host.probe_ms"].N; n != 3 {
		t.Errorf("host.probe_ms samples = %d, want one per repetition, failed or not", n)
	}
	res, err := resultOf(rep, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 5 || res.Failed != 2 {
		t.Errorf("result = %+v, want correct=false attempted=5 failed=2", res)
	}

	// peak_rss_mb reports the largest repetition's peak; the times, medians.
	ok2 := ok
	ok2.PeakRSSMB, ok2.WallS = 70, 4
	rep, err = aggregate([]repResult{ok, ok2, ok})
	if err != nil {
		t.Fatal(err)
	}
	res, err = resultOf(rep, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics["peak_rss_mb"].Value; got != 70 {
		t.Errorf("peak_rss_mb = %v, want the largest peak 70", got)
	}
	if got := res.Metrics["wall_s"].Value; got != 2 {
		t.Errorf("wall_s = %v, want the median 2", got)
	}
	if _, err := aggregate([]repResult{{Traced: true, WallS: 1, Layers: map[string]float64{"engine.bogus_s": 1}}}); err == nil {
		t.Error("undeclared layer metric accepted")
	}
}

func TestChildResultRoundTrip(t *testing.T) {
	in := repResult{
		Traced: true, SetupS: 0.0123456789, WallS: 3.25, Work: 563440, PeakRSSMB: 477.5703125,
		ProbeMS: 101.5, StealS: 0.01, Attempted: 129, Failed: 1, Errors: []string{"boom"},
		Layers: map[string]float64{"engine.explore_s": 1.4142135623730951, "store.segments": 6},
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out repResult
	if err := json.Unmarshal(lastLine(append(raw, '\n')), &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the result:\n in  %+v\n out %+v", in, out)
	}
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %+v\nwant %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %+v\nwant %+v", b.PerLayer, perLayer)
	}

	// The printed result carries exactly the declared names, in both modes.
	rep := report{attempted: 1, metrics: map[string]summary{}}
	for _, d := range endToEnd {
		rep.metrics[d.Name] = summary{N: 1, Median: 1, Q1: 1, Q3: 1}
	}
	for _, tc := range []struct {
		traced bool
		list   []metric
	}{{false, endToEnd}, {true, perLayer}} {
		res, err := resultOf(rep, tc.traced)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Metrics) != len(tc.list) {
			t.Errorf("traced=%v: printed %d metrics, declared %d", tc.traced, len(res.Metrics), len(tc.list))
		}
		for _, d := range tc.list {
			if !nameRE.MatchString(d.Name) {
				t.Errorf("metric name %q does not match %s", d.Name, nameRE)
			}
			if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("traced=%v: printed %s = %+v, want unit %q", tc.traced, d.Name, v, d.Unit)
			}
		}
	}
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark {%s %s}", i, b.Workloads[i], w.name, w.why)
		}
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q does not match %s", w.name, nameRE)
		}
	}
}
