package main

import (
	"fmt"
	"io"
)

// report is one workload's metrics over a run's repetitions.
type report struct {
	reps              int
	attempted, failed int
	metrics           map[string]summary
}

// declared maps every declared metric name to its declaration.
var declared = func() map[string]metric {
	m := map[string]metric{}
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, d := range list {
			m[d.Name] = d
		}
	}
	return m
}()

// aggregate summarizes one workload's repetitions. End-to-end metrics come
// from untraced repetitions only, layer metrics from traced ones; a
// repetition with a failed check adds only its counts and host readings.
func aggregate(reps []repResult) (report, error) {
	rep := report{reps: len(reps)}
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	var traced []float64
	for _, r := range reps {
		rep.attempted += r.Attempted
		rep.failed += r.Failed
		add("host.probe_ms", r.ProbeMS)
		add("host.steal_s", r.StealS)
		if r.Failed > 0 {
			continue
		}
		scale := refProbeMS / r.ProbeMS
		if r.Traced {
			traced = append(traced, r.WallS*scale)
			for name, v := range r.Layers {
				if _, ok := declared[name]; !ok {
					return report{}, fmt.Errorf("undeclared layer metric %q", name)
				}
				add(name, v)
			}
			continue
		}
		add("wall_s", r.WallS*scale)
		add("peak_rss_mb", r.PeakRSSMB)
		add("setup_s", r.SetupS*scale)
		add("raw.wall_s", r.WallS)
		add("raw.setup_s", r.SetupS)
		add("raw.work_per_s", r.Work/r.WallS)
	}
	if untraced := samples["wall_s"]; len(traced) > 0 && len(untraced) > 0 {
		add("trace_overhead_frac", summarize(traced).Median/summarize(untraced).Median-1)
	}
	rep.metrics = map[string]summary{}
	for name, xs := range samples {
		rep.metrics[name] = summarize(xs)
	}
	return rep, nil
}

// printReport writes one workload's metrics as a table: each metric with
// its unit, sample count, median, quartiles and maximum. It leaves out the
// layers the workload does not exercise.
func printReport(w io.Writer, name string, rep report, traced bool) {
	fmt.Fprintf(w, "== %s: %d repetitions, failed_frac %d/%d ==\n", name, rep.reps, rep.failed, rep.attempted)
	fmt.Fprintf(w, "%-26s %-8s %3s %14s %14s %14s %14s\n", "metric", "unit", "n", "median", "q1", "q3", "max")
	layers := []metric{declared["host.probe_ms"], declared["host.steal_s"]}
	if traced {
		layers = perLayer
	}
	rows := append(append([]metric(nil), endToEnd...), raw...)
	for _, d := range append(rows, layers...) {
		s, ok := rep.metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-26s %-8s %3d %14.6g %14.6g %14.6g %14.6g\n", d.Name, d.Unit, s.N, s.Median, s.Q1, s.Q3, s.Max)
	}
}

// result is the benchmark's last line of output for a single-workload run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultOf reports the medians of the end-to-end metrics, or of the
// per-layer metrics for a traced run. peak_rss_mb reports the largest
// repetition's peak instead: where the garbage collector's timing makes a
// repetition's peak fall in one of two bands some 15% apart, the median
// flips between them from run to run and the maximum does not. An
// end-to-end metric without samples is an error: no repetition measured
// it. A layer the workload does not exercise reads 0.
func resultOf(rep report, traced bool) (result, error) {
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]value{}}
	if rep.attempted == 0 {
		return res, fmt.Errorf("no operation attempted")
	}
	list := endToEnd
	if traced {
		list = perLayer
	}
	for _, d := range list {
		s, ok := rep.metrics[d.Name]
		if !ok && !traced {
			return res, fmt.Errorf("no repetition measured %s", d.Name)
		}
		v := s.Median
		if d.Name == "peak_rss_mb" {
			v = s.Max
		}
		res.Metrics[d.Name] = value{v, d.Unit}
	}
	return res, nil
}
