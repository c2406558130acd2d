package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/datalink"
	"repro/internal/engine"
	"repro/internal/flp"
	"repro/internal/ring"
	"repro/internal/rounds"
	"repro/internal/sharedmem"
	"repro/internal/synth"
)

// benchSchemaVersion identifies the BENCH_hundred.json layout. Version 2
// wraps the former single-record layout in {schema_version, runs: [...]},
// appending one run per -bench-json invocation so regressions are visible
// in the committed history, and adds partial-order-reduction rows next to
// the quotient rows. Version 3 adds the memory axis: per-row store-backend
// figures (kind, budget, spilled bytes, segments) and peak process RSS,
// so budget-bounded big-instance runs are comparable across history. The
// additions are all omitempty, so v2 readers' fields are unchanged and v2
// histories load as-is. Version 4 adds the allocation axis: per-row
// allocs_per_state and bytes_per_state measured as runtime.MemStats deltas
// across the full-mode exploration, so the zero-alloc hot-path contract is
// gated by `hundred bench-compare` alongside throughput and determinism.
// Again omitempty: v3 histories load as-is with the alloc gate inactive on
// pre-v4 rows. Version 5 added a worker-scaling sweep for a work-stealing
// scheduler the engine no longer has; new runs write no scaling points,
// but the field stays so v5 history survives an append byte for byte.
// Version 6 adds the attribution axis: per-row phase fractions of the
// full-mode exploration (expand/barrier/store-I/O/replay shares of the
// summed worker clock, plus the sampled canon/intern split), so a
// throughput regression in history comes annotated with which phase grew.
// Omitempty once more: pre-v6 rows carry no phases object.
const benchSchemaVersion = 6

// benchHistoryCap bounds the committed run history: the newest runs win.
const benchHistoryCap = 16

// benchFile is the on-disk BENCH_hundred.json layout.
type benchFile struct {
	SchemaVersion int           `json:"schema_version"`
	Runs          []benchRecord `json:"runs"`
}

// benchRecord is one -bench-json run: one exploration row per system
// comparing the full graph against its orbit quotient and/or its ample-set
// reduction, and one synth row per exhaustive search comparing sequential
// and multicore pair checking.
type benchRecord struct {
	Timestamp    string             `json:"timestamp,omitempty"`
	GOOS         string             `json:"goos"`
	GOARCH       string             `json:"goarch"`
	GOMAXPROCS   int                `json:"gomaxprocs"`
	Explorations []explorationBench `json:"explorations"`
	Synth        []synthBench       `json:"synth"`
}

type explorationBench struct {
	System string `json:"system"`
	// Full-graph exploration.
	FullStates       int     `json:"full_states"`
	FullSeconds      float64 `json:"full_seconds"`
	FullStatesPerSec float64 `json:"full_states_per_sec"`
	// Quotient exploration under the system's symmetry canonicalizer.
	QuotientStates       int     `json:"quotient_states,omitempty"`
	QuotientSeconds      float64 `json:"quotient_seconds,omitempty"`
	QuotientStatesPerSec float64 `json:"quotient_states_per_sec,omitempty"`
	RawStates            int     `json:"raw_states,omitempty"`
	ReductionFactor      float64 `json:"reduction_factor,omitempty"`
	// Ample-set partial-order reduction under the system's independence
	// relation, and the POR+quotient stack where both exist.
	PORStates          int     `json:"por_states,omitempty"`
	PORSeconds         float64 `json:"por_seconds,omitempty"`
	PORStatesPerSec    float64 `json:"por_states_per_sec,omitempty"`
	PORReductionFactor float64 `json:"por_reduction_factor,omitempty"`
	PORQuotientStates  int     `json:"por_quotient_states,omitempty"`
	// PORQuotientSeconds and PORQuotientStatesPerSec time the POR+quotient
	// stack. They joined schema v6 later, omitempty and ungated by
	// bench-compare, so earlier v6 rows simply lack them.
	PORQuotientSeconds      float64 `json:"por_quotient_seconds,omitempty"`
	PORQuotientStatesPerSec float64 `json:"por_quotient_states_per_sec,omitempty"`
	// Store-backend figures of the full-mode exploration (schema v3; zero
	// for the default mem backend on pre-v3 rows).
	StoreKind         string `json:"store,omitempty"`
	MaxStoreBytes     int64  `json:"max_store_bytes,omitempty"`
	StoreBytesSpilled int64  `json:"store_bytes_spilled,omitempty"`
	StoreSegments     int    `json:"store_segments,omitempty"`
	// PeakRSSBytes is the process's peak resident set after the full-mode
	// exploration (process-wide and monotone: rows later in a run inherit
	// at least the peaks of earlier rows).
	PeakRSSBytes int64 `json:"peak_rss_bytes,omitempty"`
	// AllocsPerState and BytesPerState are heap-allocation counts and bytes
	// per discovered state across the full-mode exploration (schema v4),
	// measured as runtime.MemStats deltas. They are process-wide, so they
	// include the graph the exploration returns — the point is the trend:
	// a hot path that starts allocating per successor moves these by an
	// order of magnitude, which `hundred bench-compare` gates on.
	AllocsPerState float64 `json:"allocs_per_state,omitempty"`
	BytesPerState  float64 `json:"bytes_per_state,omitempty"`
	// Scaling is the schema-v5 worker-scaling sweep of a since-removed
	// scheduler. History only: no run writes it any more, and it is kept
	// opaque so older runs round-trip unchanged.
	Scaling json.RawMessage `json:"scaling,omitempty"`
	// Phases is the schema-v6 phase attribution of the full-mode
	// exploration (see phaseBench). Absent on pre-v6 rows.
	Phases *phaseBench `json:"phases,omitempty"`
}

// phaseBench is one row's phase-fraction record: each exact phase's share
// of the full-mode run's summed per-worker clock, in [0,1], plus the
// sampled canon/intern split (fractions of sampled expansion time). Pure
// timing — bench-compare never gates on it; its job is to annotate a
// throughput move with which phase grew.
type phaseBench struct {
	Expand  float64 `json:"expand"`
	Barrier float64 `json:"barrier,omitempty"`
	StoreIO float64 `json:"store_io,omitempty"`
	Replay  float64 `json:"replay,omitempty"`
	Canon   float64 `json:"canon_frac,omitempty"`
	Intern  float64 `json:"intern_frac,omitempty"`
}

// benchPhases converts a run's phase profile into the v6 fraction record
// (nil when the run recorded no profile).
func benchPhases(st engine.Stats) *phaseBench {
	p := st.Phases
	total := p.TotalNs()
	if total <= 0 {
		return nil
	}
	f := func(ns int64) float64 { return round4(float64(ns) / float64(total)) }
	return &phaseBench{
		Expand:  f(p.ExpandNs),
		Barrier: f(p.BarrierWaitNs),
		StoreIO: f(p.StoreIONs),
		Replay:  f(p.ReplayNs),
		Canon:   round4(p.CanonFrac()),
		Intern:  round4(p.InternFrac()),
	}
}

// round4 keeps the committed JSON readable (four decimal places).
func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }

type synthBench struct {
	Search       string  `json:"search"`
	PairsChecked uint64  `json:"pairs_checked"`
	Passed       uint64  `json:"passed"`
	SeqSeconds   float64 `json:"seq_seconds"`
	ParSeconds   float64 `json:"par_seconds"`
	ParWorkers   int     `json:"par_workers"`
	Speedup      float64 `json:"speedup"`
	PairsPerSec  float64 `json:"pairs_per_sec_parallel"`
}

// exploreMode selects which reduction stack a workload runs under.
type exploreMode int

const (
	modeFull exploreMode = iota
	modeQuotient
	modePOR
	modePORQuotient
)

// benchWorkload is one system: an explore function parameterized by the
// reduction mode. Unsupported modes return 0 states and are skipped.
type benchWorkload struct {
	name    string
	explore func(mode exploreMode) (states int, st engine.Stats, err error)
}

func benchWorkloads(base engine.Options, big bool) ([]benchWorkload, error) {
	withStats := func(st *engine.Stats) engine.Options {
		o := base
		o.Stats = st
		return o
	}
	var out []benchWorkload
	shared := func(alg sharedmem.Algorithm) benchWorkload {
		return benchWorkload{name: alg.Name(), explore: func(mode exploreMode) (int, engine.Stats, error) {
			var st engine.Stats
			opts := withStats(&st)
			switch mode {
			case modeQuotient:
				opts.Canon = sharedmem.CanonFor(alg)
			case modePOR, modePORQuotient:
				return 0, st, nil
			}
			g, err := sharedmem.ExploreWith(alg, opts)
			if err != nil {
				return 0, st, err
			}
			return g.Len(), st, nil
		}}
	}
	out = append(out,
		shared(sharedmem.NewPeterson2()),
		shared(sharedmem.NewTicketLock(4)),
		shared(sharedmem.NewTournament4()),
	)
	// FLP wait-quorum: the resilience-1 rows carry the quotient comparison
	// (that space is provably POR-irreducible; see flp.DeliveryIndependence),
	// the crash-free rows carry POR and the POR+quotient stack.
	for _, cfg := range []struct {
		n, resilience int
	}{{3, 1}, {4, 1}, {3, 0}, {4, 0}} {
		cfg := cfg
		p := flp.NewWaitQuorum(cfg.n)
		canonFn, err := flp.PermutationCanon(p)
		if err != nil {
			return nil, err
		}
		canonB, err := flp.PermutationCanonBytes(p)
		if err != nil {
			return nil, err
		}
		out = append(out, benchWorkload{
			name: fmt.Sprintf("%s(n=%d,r=%d)", p.Name(), cfg.n, cfg.resilience),
			explore: func(mode exploreMode) (int, engine.Stats, error) {
				var st engine.Stats
				opts := withStats(&st)
				switch mode {
				case modeQuotient:
					opts.Canon = canonFn
					opts.CanonBytes = canonB
				case modePOR, modePORQuotient:
					if cfg.resilience != 0 {
						return 0, st, nil // irreducible; don't re-explore 563k states to show 1.00x
					}
					opts.Independent = flp.DeliveryIndependence(p)
					opts.Visible = flp.DecisionVisibility(p)
					if mode == modePORQuotient {
						opts.Canon = canonFn
						opts.CanonBytes = canonB
					}
				}
				g, err := core.Explore[string](flp.NewSystem(p, nil, cfg.resilience), opts)
				if err != nil {
					return 0, st, err
				}
				return g.Len(), st, nil
			},
		})
	}
	crash := rounds.CrashSpace{Procs: 8, MaxFaults: 4, Rounds: 16}
	crashSys, err := crash.System()
	if err != nil {
		return nil, err
	}
	out = append(out, benchWorkload{
		name: "crash-space(n=8,t=4,r=16)",
		explore: func(mode exploreMode) (int, engine.Stats, error) {
			var st engine.Stats
			opts := withStats(&st)
			switch mode {
			case modeQuotient:
				opts.Canon = crash.Canon()
			case modePOR, modePORQuotient:
				return 0, st, nil
			}
			g, err := core.Explore[string](crashSys, opts)
			if err != nil {
				return 0, st, err
			}
			return g.Len(), st, nil
		},
	})
	asyncLCR, err := ring.NewAsyncLCR(ring.DescendingIDs(7))
	if err != nil {
		return nil, err
	}
	out = append(out, benchWorkload{
		// No symmetry canonicalizer (distinct ids break the symmetry); the
		// row records full-graph throughput and the disjoint-links POR.
		name: "async-lcr(n=7)",
		explore: func(mode exploreMode) (int, engine.Stats, error) {
			var st engine.Stats
			opts := withStats(&st)
			switch mode {
			case modeQuotient, modePORQuotient:
				return 0, st, nil
			case modePOR:
				opts.Independent = asyncLCR.Independence()
			}
			g, err := asyncLCR.CheckElection(opts)
			if err != nil {
				return 0, st, err
			}
			return g.Len(), st, nil
		},
	})
	asyncABP, err := datalink.NewAsyncABP(8)
	if err != nil {
		return nil, err
	}
	if big {
		// The budget-bounded big instances (-bench-big): the next n of the
		// suite's two scaling series, sized past the old all-in-RAM design
		// point. Full mode only — the point of these rows is the memory
		// axis (spill figures + peak RSS), not the reduction comparison.
		bigLCR, err := ring.NewAsyncLCR(ring.DescendingIDs(8))
		if err != nil {
			return nil, err
		}
		out = append(out, benchWorkload{
			name: "async-lcr(n=8)",
			explore: func(mode exploreMode) (int, engine.Stats, error) {
				var st engine.Stats
				if mode != modeFull {
					return 0, st, nil
				}
				opts := withStats(&st)
				opts.MaxStates = 200_000_000
				g, err := bigLCR.CheckElection(opts)
				if err != nil {
					return 0, st, err
				}
				return g.Len(), st, nil
			},
		})
		p5 := flp.NewWaitQuorum(5)
		out = append(out, benchWorkload{
			name: "wait-quorum(n=5,r=0)",
			explore: func(mode exploreMode) (int, engine.Stats, error) {
				var st engine.Stats
				if mode != modeFull {
					return 0, st, nil
				}
				opts := withStats(&st)
				opts.MaxStates = 200_000_000
				g, err := core.Explore[string](flp.NewSystem(p5, nil, 0), opts)
				if err != nil {
					return 0, st, err
				}
				return g.Len(), st, nil
			},
		})
	}
	out = append(out, benchWorkload{
		// The cyclic workload: retransmission loops exercise the C3 proviso.
		name: "async-abp(m=8)",
		explore: func(mode exploreMode) (int, engine.Stats, error) {
			var st engine.Stats
			opts := withStats(&st)
			switch mode {
			case modeQuotient, modePORQuotient:
				return 0, st, nil
			case modePOR:
				opts.Independent = asyncABP.Independence()
				opts.Visible = asyncABP.ProgressVisibility()
			}
			g, err := asyncABP.CheckDelivery(opts)
			if err != nil {
				return 0, st, err
			}
			return g.Len(), st, nil
		},
	})
	out = append(out, benchWorkload{
		// The deep-narrow workload: level width never exceeds braidLanes,
		// so the level loop pays a barrier every handful of states. Full
		// mode only; bench-compare gates its throughput and state count.
		name: fmt.Sprintf("braid(lanes=%d,depth=%dk)", braidLanes, braidDepth/1000),
		explore: func(mode exploreMode) (int, engine.Stats, error) {
			var st engine.Stats
			if mode != modeFull {
				return 0, st, nil
			}
			opts := withStats(&st)
			root := string(appendBraidState(nil, -1, 0))
			res, err := engine.Explore([]string{root}, braidExpand(braidLanes, braidDepth), opts)
			if err != nil {
				return 0, st, err
			}
			return len(res.States), st, nil
		},
	})
	return out, nil
}

// braidLanes/braidDepth size the deep-narrow workload: 1 + lanes*depth
// states whose frontier never exceeds lanes, so at 2-4 workers the level
// loop forks and joins once per 64 states (at more workers every level
// falls under the frontier < workers*16 sequential bailout).
const (
	braidLanes = 64
	braidDepth = 6_250
)

// appendBraidState appends one state of the braid workload, `braidLanes`
// disjoint chains hanging off a shared root (lane -1): 8 bytes, the lane
// and the position as little-endian int32s.
func appendBraidState(b []byte, lane, pos int32) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(lane))
	return binary.LittleEndian.AppendUint32(b, uint32(pos))
}

// braidExpand expands the braid. Every expansion runs braidWork first so
// the row measures a realistic per-state derivation cost rather than a
// no-op successor function.
func braidExpand(lanes, depth int32) engine.ExpandFunc[string] {
	return func(s string, x *engine.Ctx[string]) {
		lane := int32(binary.LittleEndian.Uint32([]byte(s[:4])))
		pos := int32(binary.LittleEndian.Uint32([]byte(s[4:])))
		if braidWork(lane, pos) == 0 {
			return // unreachable (braidWork is nonzero); anchors the work dose
		}
		if lane < 0 {
			for l := int32(0); l < lanes; l++ {
				x.Scratch = appendBraidState(x.Scratch[:0], l, 1)
				x.EmitBytes(x.Scratch, "start", int(l))
			}
			return
		}
		if pos < depth {
			x.Scratch = appendBraidState(x.Scratch[:0], lane, pos+1)
			x.EmitBytes(x.Scratch, "step", int(lane))
		}
	}
}

// braidWork is a fixed dose (~2-3µs) of pure 64-bit mixing, standing in
// for the guard evaluation and state derivation a real protocol expansion
// performs per successor.
func braidWork(lane, pos int32) uint64 {
	h := uint64(uint32(lane))<<32 | uint64(uint32(pos)) | 1
	for i := 0; i < 2000; i++ {
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
	}
	return h
}

// runBench executes the benchmark suite and returns the run record.
func runBench(base engine.Options, big bool) (benchRecord, error) {
	rec := benchRecord{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	workloads, err := benchWorkloads(base, big)
	if err != nil {
		return rec, err
	}
	for _, w := range workloads {
		row, err := benchRow(w)
		if err != nil {
			return rec, err
		}
		rec.Explorations = append(rec.Explorations, row)
	}

	searches := []struct {
		name string
		run  func(workers int) (synth.Result, error)
	}{
		{"tas-mutex(v=2,t=2,lockout-free)", func(w int) (synth.Result, error) {
			return synth.SearchTASMutex(synth.TASSearchConfig{
				Values: 2, TryStates: 2, RequireLockoutFree: true, Workers: w,
			})
		}},
		{"rw-mutex(v=2,t=2)", func(w int) (synth.Result, error) {
			return synth.SearchRWMutex(synth.RWSearchConfig{Values: 2, TryStates: 2, Workers: w})
		}},
	}
	for _, s := range searches {
		seqStart := time.Now()
		seqRes, err := s.run(1)
		if err != nil {
			return rec, fmt.Errorf("%s seq: %w", s.name, err)
		}
		seqSec := time.Since(seqStart).Seconds()
		parStart := time.Now()
		parRes, err := s.run(0)
		if err != nil {
			return rec, fmt.Errorf("%s par: %w", s.name, err)
		}
		parSec := time.Since(parStart).Seconds()
		if parRes.PairsChecked != seqRes.PairsChecked || parRes.Passed != seqRes.Passed {
			return rec, fmt.Errorf("%s: parallel search diverged from sequential (%d/%d pairs, %d/%d passed)",
				s.name, parRes.PairsChecked, seqRes.PairsChecked, parRes.Passed, seqRes.Passed)
		}
		rec.Synth = append(rec.Synth, synthBench{
			Search:       s.name,
			PairsChecked: parRes.PairsChecked,
			Passed:       parRes.Passed,
			SeqSeconds:   seqSec,
			ParSeconds:   parSec,
			ParWorkers:   runtime.GOMAXPROCS(0),
			Speedup:      seqSec / parSec,
			PairsPerSec:  float64(parRes.PairsChecked) / parSec,
		})
	}
	return rec, nil
}

// benchRow explores one workload in every reduction mode it supports and
// assembles its row; the full mode also carries the allocation, store and
// phase figures.
func benchRow(w benchWorkload) (explorationBench, error) {
	// Bracket the full-mode exploration with MemStats reads for the v4
	// allocation axis. GC first so the delta measures this workload's
	// allocations, not a collection boundary.
	runtime.GC()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	full, fullStats, err := w.explore(modeFull)
	if err != nil {
		return explorationBench{}, fmt.Errorf("%s full: %w", w.name, err)
	}
	runtime.ReadMemStats(&msAfter)
	row := explorationBench{
		System:           w.name,
		FullStates:       full,
		FullSeconds:      fullStats.Elapsed.Seconds(),
		FullStatesPerSec: fullStats.StatesPerSec,

		StoreKind:         string(fullStats.Store.Kind),
		MaxStoreBytes:     fullStats.Store.MaxBytes,
		StoreBytesSpilled: fullStats.Store.BytesSpilled,
		StoreSegments:     fullStats.Store.Segments,
		PeakRSSBytes:      fullStats.PeakRSSBytes,
	}
	if full > 0 {
		row.AllocsPerState = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(full)
		row.BytesPerState = float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / float64(full)
	}
	row.Phases = benchPhases(fullStats)
	quo, quoStats, err := w.explore(modeQuotient)
	if err != nil {
		return row, fmt.Errorf("%s quotient: %w", w.name, err)
	}
	if quo > 0 {
		row.QuotientStates = quo
		row.QuotientSeconds = quoStats.Elapsed.Seconds()
		row.QuotientStatesPerSec = quoStats.StatesPerSec
		row.RawStates = quoStats.RawStates
		// Report the end-to-end reduction (full vs quotient), not the
		// engine's sampled lower bound.
		row.ReductionFactor = float64(full) / float64(quo)
	}
	por, porStats, err := w.explore(modePOR)
	if err != nil {
		return row, fmt.Errorf("%s por: %w", w.name, err)
	}
	if por > 0 {
		row.PORStates = por
		row.PORSeconds = porStats.Elapsed.Seconds()
		row.PORStatesPerSec = porStats.StatesPerSec
		row.PORReductionFactor = float64(full) / float64(por)
	}
	both, bothStats, err := w.explore(modePORQuotient)
	if err != nil {
		return row, fmt.Errorf("%s por+quotient: %w", w.name, err)
	}
	if both > 0 {
		row.PORQuotientStates = both
		row.PORQuotientSeconds = bothStats.Elapsed.Seconds()
		row.PORQuotientStatesPerSec = bothStats.StatesPerSec
	}
	return row, nil
}

// loadBenchFile reads an existing bench record file, migrating the legacy
// pre-versioned single-record layout into a one-run history. A missing
// file yields an empty history; an unreadable one is an error (refuse to
// clobber data we cannot parse).
func loadBenchFile(path string) (benchFile, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return benchFile{SchemaVersion: benchSchemaVersion}, nil
	}
	if err != nil {
		return benchFile{}, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err == nil && bf.SchemaVersion >= 2 {
		if bf.SchemaVersion > benchSchemaVersion {
			return benchFile{}, fmt.Errorf("%s: schema_version %d is newer than this binary's %d; upgrade the binary or move the file aside (refusing to rewrite newer history)",
				path, bf.SchemaVersion, benchSchemaVersion)
		}
		return bf, nil
	}
	var legacy benchRecord
	if err := json.Unmarshal(data, &legacy); err != nil || len(legacy.Explorations) == 0 {
		return benchFile{}, fmt.Errorf("%s: unrecognized bench record layout; fix the JSON or move/delete the file and re-run (refusing to overwrite bench history)", path)
	}
	return benchFile{SchemaVersion: benchSchemaVersion, Runs: []benchRecord{legacy}}, nil
}

// runBenchJSON executes the suite and records the results. With an output
// path it appends the run to the file's history (migrating the legacy
// layout, capping at benchHistoryCap runs) and prints a warn-only
// comparison against the run bench-compare will gate it against
// (benchBaseline); with an empty path it emits the single-run record as
// JSON on stdout.
func runBenchJSON(outPath string, base engine.Options, big bool) error {
	// Validate the history file before spending minutes on the suite: a
	// malformed file should fail fast, not after the benchmarks ran.
	var bf benchFile
	if outPath != "" {
		var err error
		if bf, err = loadBenchFile(outPath); err != nil {
			return err
		}
	}
	rec, err := runBench(base, big)
	if err != nil {
		return err
	}
	if outPath == "" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(benchFile{SchemaVersion: benchSchemaVersion, Runs: []benchRecord{rec}})
	}
	prev, n, err := appendBenchRun(outPath, bf, rec)
	if err != nil {
		return err
	}
	fmt.Printf("appended run %s to %s (%d runs in history)\n", rec.Timestamp, outPath, n)
	compareBenchRuns(os.Stdout, prev, &rec)
	return nil
}

// appendBenchRun appends rec to the loaded history bf, keeps the newest
// benchHistoryCap runs and writes the result to outPath. It returns rec's
// baseline in the history (benchBaseline; nil for an empty history) and
// the history length.
func appendBenchRun(outPath string, bf benchFile, rec benchRecord) (*benchRecord, int, error) {
	prev := benchBaseline(bf.Runs, &rec)
	bf.Runs = append(bf.Runs, rec)
	// The appended run carries current-schema fields, so the file is now a
	// current-schema document — stamp it as such (previously the loaded
	// version was written back unchanged, leaving v3+ fields in files still
	// labeled v2).
	bf.SchemaVersion = benchSchemaVersion
	if excess := len(bf.Runs) - benchHistoryCap; excess > 0 {
		bf.Runs = append([]benchRecord(nil), bf.Runs[excess:]...)
	}
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return nil, 0, err
	}
	return prev, len(bf.Runs), os.WriteFile(outPath, append(data, '\n'), 0o644)
}

// compareBenchRuns prints a warn-only comparison of the new run against
// its baseline: the no-baseline note when prev is a fallback from other
// hardware, the per-system states/s table, then the findings of the
// bench-compare gate (diffBenchRecords) — each violation as WARN and each
// gate a hardware mismatch skipped as skip. It never fails the run: this
// comparison runs before the new record is committed, on hardware the
// history may not share; `hundred bench-compare` is the hard gate.
func compareBenchRuns(w io.Writer, prev, cur *benchRecord) {
	if prev == nil {
		fmt.Fprintln(w, "no previous run to compare against")
		return
	}
	if note := noBaselineNote(prev, cur); note != "" {
		fmt.Fprintln(w, note)
	}
	prevRows := make(map[string]explorationBench, len(prev.Explorations))
	for _, r := range prev.Explorations {
		prevRows[r.System] = r
	}
	fmt.Fprintf(w, "%-28s %14s %14s %8s\n", "system", "prev states/s", "cur states/s", "delta")
	for _, r := range cur.Explorations {
		p, ok := prevRows[r.System]
		if !ok {
			fmt.Fprintf(w, "%-28s %14s %14.0f %8s\n", r.System, "-", r.FullStatesPerSec, "new")
			continue
		}
		delta := 0.0
		if p.FullStatesPerSec > 0 {
			delta = (r.FullStatesPerSec - p.FullStatesPerSec) / p.FullStatesPerSec * 100
		}
		fmt.Fprintf(w, "%-28s %14.0f %14.0f %+7.1f%%\n", r.System, p.FullStatesPerSec, r.FullStatesPerSec, delta)
	}
	bad, skipped, _ := diffBenchRecords(prev, cur, benchCompareThreshold, benchAllocThreshold)
	for _, msg := range skipped {
		fmt.Fprintf(w, "skip %s\n", msg)
	}
	for _, msg := range bad {
		fmt.Fprintf(w, "WARN %s\n", msg)
	}
}
