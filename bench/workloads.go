package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/datalink"
	"repro/internal/engine"
	"repro/internal/flp"
	"repro/internal/obs"
	"repro/internal/ring"
	rt "repro/internal/runtime"
	"repro/internal/sharedmem"
	"repro/internal/store"
)

// parallelism is the engine worker count of every verdict. Two workers keep
// exploration on the engine path, as the CLIs' default does on a multi-core
// host, without asking for more threads than a two-core host has.
const parallelism = 2

// liveSeeds is the number of consecutive adversary seeds, starting at
// -seed, that one live-refine repetition runs per live workload.
const liveSeeds = 32

const mib = 1 << 20

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// why is the reason the workload is in the benchmark, as BENCHMARK.json
	// gives it.
	why string
	// reps is the number of untraced repetitions in a fixed-count run.
	reps int
	// run performs one repetition inside a child process: set-up, the timed
	// operation, then the checks of its output. start is when the parent
	// started the child.
	run func(seed int64, traced bool, start time.Time) repResult
}

var workloads = []*workload{
	{"verdict-full", "the headline FLP verdict on the full graph: explore, validity re-explores and analysis passes, no canon, no POR, no disk", 7,
		verdict{procs: 4, resilience: 1, golden: "verdict-full.json"}.run},
	{"verdict-reduced", "symmetry canon and partial-order reduction do nearly all the work and the graph layers almost none, the reverse of verdict-full", 7,
		verdict{procs: 5, resilience: 0, reduced: true, golden: "verdict-reduced.json"}.run},
	{"verdict-spill", "the verdict-full graph through the spill store's write, compress and read-back path under an 8 MiB budget", 6,
		verdict{procs: 4, resilience: 1, spill: true, golden: "verdict-full.json"}.run},
	{"live-refine", "the live runtime under seeded faults with every run refined against its model; exploration is almost nil", 7,
		runLive},
	{"paper-suite", "the hundred CLI's 21 experiments: many small explorations on the legacy sequential path, synthesis and register searches", 9,
		runSuite},
}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// repResult is one repetition's outcome. A child process prints it as one
// JSON line; the parent adds what only it can measure.
type repResult struct {
	Traced bool `json:"traced"`
	// SetupS runs from the parent starting the child to the child starting
	// its timed work.
	SetupS float64 `json:"setup_s"`
	// WallS is the timed operation's wall-clock time; on a traced
	// repetition, that of the traced operation.
	WallS float64 `json:"wall_s"`
	// Work counts what the timed operation completed: states of the verdict
	// graph, live events, or experiments.
	Work float64 `json:"work"`
	// PeakRSSMB is the peak resident set of the process that did the timed
	// work: the child, or the hundred CLI for paper-suite.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// ProbeMS and StealS are measured by the parent: the mean of the host
	// probes just before and just after the repetition, and the stolen CPU
	// time over it.
	ProbeMS   float64            `json:"probe_ms"`
	StealS    float64            `json:"steal_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// check records one checked operation, failed when err is non-nil.
func (r *repResult) check(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.Errors = append(r.Errors, err.Error())
	}
}

func seconds(since time.Time) float64 { return time.Since(since).Seconds() }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// verdict is an flp.Analyze workload on the wait-quorum protocol.
type verdict struct {
	procs, resilience int
	// reduced quotients by process symmetry and applies partial-order
	// reduction; spill puts the visited set in the spill store.
	reduced, spill bool
	golden         string
}

func (v verdict) run(_ int64, traced bool, start time.Time) repResult {
	r := repResult{Traced: traced}
	p := flp.NewWaitQuorum(v.procs)
	res := v.resilience
	opts := flp.AnalyzeOptions{Resilience: &res, Parallelism: parallelism}
	if v.spill {
		// Segments go to a fresh directory under TMPDIR, which the parent
		// points at a per-repetition directory it removes.
		opts.Store = store.Config{Kind: store.Spill, MaxBytes: 8 << 20}
	}
	var tablesS float64
	if v.reduced {
		t := time.Now()
		canon, err := flp.PermutationCanon(p)
		if err != nil {
			r.check(err)
			return r
		}
		canonBytes, err := flp.PermutationCanonBytes(p)
		if err != nil {
			r.check(err)
			return r
		}
		tablesS = seconds(t)
		opts.Canon, opts.CanonBytes = canon, canonBytes
		opts.Independent, opts.Visible = flp.DeliveryIndependence(p), flp.DecisionVisibility(p)
	}
	r.SetupS = seconds(start)

	if !traced {
		t := time.Now()
		rep, err := flp.Analyze(p, opts)
		r.WallS = seconds(t)
		r.Work = float64(rep.States)
		r.check(v.verify(rep, err))
		return r
	}
	r.Layers = v.traced(p, opts, &r)
	r.Layers["flp.canon_tables_s"] = tablesS
	return r
}

func (v verdict) verify(rep flp.Report, err error) error {
	if err != nil {
		return err
	}
	return checkVerdict(v.golden, summarizeReport(rep))
}

// traced splits one verdict across its layers. It explores the main graph
// and the two uniform-vector graphs the way Analyze does, each call timed
// from here, then runs Analyze itself with Stats attached. The main graph's
// exploration gives the bytes the engine allocates and the graph retains;
// the validity explorations give their time; Analyze's Stats give the
// engine, store and reduction layers. The analysis passes are the rest of
// Analyze's wall time, so explore, validity and analysis sum to it.
func (v verdict) traced(p flp.Protocol, opts flp.AnalyzeOptions, r *repResult) map[string]float64 {
	eo := core.ExploreOptions{Parallelism: opts.Parallelism, Store: opts.Store}
	if opts.Canon != nil {
		eo.Canon, eo.CanonBytes = opts.Canon, opts.CanonBytes
		eo.Independent, eo.Visible = opts.Independent, opts.Visible
	}
	var ms goruntime.MemStats
	memStats := func() goruntime.MemStats { goruntime.ReadMemStats(&ms); return ms }

	goruntime.GC()
	before := memStats()
	g, err := core.Explore[string](flp.NewSystem(p, nil, v.resilience), eo)
	exploreAlloc := float64(memStats().TotalAlloc - before.TotalAlloc)
	if err != nil {
		r.check(err)
		return map[string]float64{}
	}
	goruntime.GC()
	graphBytes := float64(memStats().HeapAlloc) - float64(before.HeapAlloc)
	states := float64(g.Len())
	goruntime.KeepAlive(g)
	g = nil

	before = memStats()
	var validityS float64
	for _, val := range []int{0, 1} {
		uniform := make([]int, v.procs)
		for i := range uniform {
			uniform[i] = val
		}
		t := time.Now()
		_, err := core.Explore[string](flp.NewSystem(p, [][]int{uniform}, v.resilience), eo)
		validityS += seconds(t)
		if err != nil {
			r.check(err)
			return map[string]float64{}
		}
	}
	validityAlloc := float64(memStats().TotalAlloc - before.TotalAlloc)

	var st engine.Stats
	opts.Stats = &st
	before = memStats()
	t := time.Now()
	rep, err := flp.Analyze(p, opts)
	r.WallS = seconds(t)
	analyzeAlloc := float64(memStats().TotalAlloc - before.TotalAlloc)
	r.Work = float64(rep.States)
	r.check(v.verify(rep, err))

	ph, ss := st.Phases, st.Store
	total := float64(ph.TotalNs())
	return map[string]float64{
		"engine.explore_s":         st.Elapsed.Seconds(),
		"engine.states_per_s":      st.StatesPerSec,
		"engine.validity_s":        validityS,
		"engine.expand_share":      ratio(float64(ph.ExpandNs), total),
		"engine.replay_share":      ratio(float64(ph.ReplayNs), total),
		"engine.barrier_share":     ratio(float64(ph.BarrierWaitNs), total),
		"engine.alloc_b_per_state": ratio(exploreAlloc, states),
		"engine.dedup_rate":        st.DedupRate(),
		"store.intern_share":       ph.InternFrac(),
		"store.io_share":           ratio(float64(ph.StoreIONs), total),
		"store.spilled_mb":         float64(ss.BytesSpilled) / mib,
		"store.segments":           float64(ss.Segments),
		"store.segment_reads":      float64(ss.SegmentReads),
		"store.cache_hit_rate":     ratio(float64(ss.PageCacheHits), float64(ss.PageCacheHits+ss.SegmentReads)),
		"store.read_p50_us":        float64(ss.ReadLat.QuantileNs(0.5)) / 1e3,
		"store.write_p50_us":       float64(ss.WriteLat.QuantileNs(0.5)) / 1e3,
		"store.ram_mb":             float64(ss.BytesInRAM) / mib,
		"flp.canon_share":          ph.CanonFrac(),
		"flp.por_branch":           st.PORReductionFactor(),
		"flp.ample_states":         float64(st.AmpleStates),
		"core.analysis_s":          r.WallS - st.Elapsed.Seconds() - validityS,
		"core.analysis_alloc_mb":   (analyzeAlloc - exploreAlloc - validityAlloc) / mib,
		"core.graph_b_per_state":   ratio(graphBytes, states),
	}
}

// liveCase is one live workload of live-refine, with the fault settings of
// the repository's CI refinement smoke test.
type liveCase struct {
	build func() (rt.Workload, error)
	opts  rt.Options
}

var liveCases = []liveCase{
	{func() (rt.Workload, error) { return ring.NewLiveLCR(rand.New(rand.NewSource(12345)).Perm(5)) },
		rt.Options{Delay: 2, Crash: 0.2, RestartAfter: 5, MaxEvents: 1 << 16}},
	{func() (rt.Workload, error) { return datalink.NewLiveABP(3) },
		rt.Options{Drop: 0.3, Delay: 2, MaxEvents: 1 << 16}},
	{func() (rt.Workload, error) { return consensus.NewLiveBenOr(3, 1, 1, []int{0, 1, 0}) },
		rt.Options{Delay: 2, MaxEvents: 1 << 16}},
	{func() (rt.Workload, error) { return sharedmem.NewLiveMutex(sharedmem.NewTicketLock(3)), nil },
		rt.Options{Delay: 2, MaxEvents: 16384}},
}

// timedSink is a Sink that adds the time spent in the next sink's Publish.
type timedSink struct {
	next obs.Sink
	ns   atomic.Int64
}

func (s *timedSink) Publish(ev obs.Event) {
	t := time.Now()
	s.next.Publish(ev)
	s.ns.Add(int64(time.Since(t)))
}

// runLive runs every live case for liveSeeds seeds, refining each run
// against the case's model and streaming every run to one JSONL trace, as
// `hundred run -trace` does. Set-up explores the four models.
func runLive(seed int64, traced bool, start time.Time) repResult {
	r := repResult{Traced: traced}
	ws := make([]rt.Workload, len(liveCases))
	models := make([]*core.Graph[string], len(liveCases))
	t := time.Now()
	for i, c := range liveCases {
		w, err := c.build()
		if err != nil {
			r.check(err)
			return r
		}
		g, err := rt.ExploreModel(w)
		if err != nil {
			r.check(err)
			return r
		}
		ws[i], models[i] = w, g
	}
	modelS := seconds(t)
	f, err := os.CreateTemp("", "live-refine-*.jsonl")
	if err != nil {
		r.check(err)
		return r
	}
	defer os.Remove(f.Name())
	tw, err := obs.NewTraceWriter(f, obs.NewManifest("bench live-refine"))
	if err != nil {
		f.Close()
		r.check(err)
		return r
	}
	var sink obs.Sink = tw
	timed := &timedSink{next: tw}
	if traced {
		sink = timed
	}
	r.SetupS = seconds(start)

	var runS, refineS float64
	var batch obs.HistSnap
	events := 0
	t0 := time.Now()
	for i, c := range liveCases {
		for k := int64(0); k < liveSeeds; k++ {
			opts := c.opts
			opts.Seed, opts.Sink = seed+k, sink
			t := time.Now()
			res, err := rt.Run(ws[i], opts)
			runS += seconds(t)
			if err == nil {
				events += res.Events
				batch.Add(res.BatchLat)
				t = time.Now()
				_, err = rt.Refine(ws[i], res, models[i])
				refineS += seconds(t)
			}
			r.check(err)
		}
	}
	r.check(tw.Close())
	r.WallS = seconds(t0)
	r.Work = float64(events)
	if !traced {
		return r
	}
	var traceMB float64
	if fi, err := os.Stat(f.Name()); err == nil {
		traceMB = float64(fi.Size()) / mib
	}
	r.Layers = map[string]float64{
		"runtime.model_s":      modelS,
		"runtime.run_s":        runS,
		"runtime.batch_p50_us": float64(batch.QuantileNs(0.5)) / 1e3,
		"runtime.batch_p99_us": float64(batch.QuantileNs(0.99)) / 1e3,
		"runtime.refine_s":     refineS,
		"runtime.events":       float64(events),
		"obs.publish_s":        float64(timed.ns.Load()) / 1e9,
		"obs.trace_mb":         traceMB,
	}
	return r
}

// suiteLayer names the per-layer metric an experiment's time goes to.
func suiteLayer(id string) string {
	switch id {
	case "E01", "E03":
		return "synth.search_s"
	case "E20":
		return "registers.search_s"
	case "E08":
		return "consensus.chain_s"
	}
	return "suite.rest_s"
}

// runSuite runs the hundred CLI, found beside this program, over all
// experiments and byte-compares its output with the golden. Set-up is
// `hundred -list`: process start and the experiment table. A traced
// repetition runs one process per experiment, timing each, and compares
// the concatenated output.
func runSuite(_ int64, traced bool, start time.Time) repResult {
	r := repResult{Traced: traced}
	self, err := os.Executable()
	if err != nil {
		r.check(err)
		return r
	}
	hundred := filepath.Join(filepath.Dir(self), "hundred")
	list, _, err := runCmd(exec.Command(hundred, "-list"), os.TempDir())
	if err != nil {
		r.check(fmt.Errorf("hundred -list: %w", err))
		return r
	}
	var ids []string
	for _, line := range strings.Split(strings.TrimSpace(string(list)), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			ids = append(ids, f[0])
		}
	}
	r.SetupS = seconds(start)
	r.Work = float64(len(ids))

	runs := [][]string{nil} // one process, all experiments
	if traced {
		runs = nil
		for _, id := range ids {
			runs = append(runs, []string{id})
		}
		r.Layers = map[string]float64{}
	}
	var all bytes.Buffer
	for _, args := range runs {
		t := time.Now()
		out, rss, err := runCmd(exec.Command(hundred, args...), os.TempDir())
		d := seconds(t)
		if err != nil {
			r.check(fmt.Errorf("hundred %s: %w", strings.Join(args, " "), err))
			return r
		}
		all.Write(out)
		r.WallS += d
		// Maxrss also covers this process's peak when it started hundred:
		// a few MiB, well under hundred's own.
		r.PeakRSSMB = max(r.PeakRSSMB, rss)
		if traced {
			r.Layers[suiteLayer(args[0])] += d
		}
	}
	r.check(checkSuite(all.Bytes()))
	return r
}
