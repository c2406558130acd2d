package engine

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/store"
)

// This file is the differential-testing oracle over the engine's mode
// stack. Given one system plus optional reduction hooks and optional
// planted ground truth (see internal/spacegen for the generator that
// supplies both), Differential explores the system under every applicable
// mode — full graph, symmetry quotient, ample-set POR, and the composed
// stack — at several worker counts, and cross-checks everything the
// determinism and soundness contracts promise:
//
//   - byte-identical Results and telemetry at every worker count per mode,
//     and between the profiled reference run and an unprofiled one;
//   - full-mode Results (no canon, no POR, every exact store) equal to
//     referenceExplore's: states, initials, row offsets, edges, label
//     table, parents, parent edges and truncation;
//   - planted state/terminal/decided counts for the full graph and the
//     quotient;
//   - POR reduction soundness: the reduced graph is a subgraph of the full
//     one and preserves the exact terminal state set (and, composed with
//     the quotient, the quotient's terminal set);
//   - Stats internal consistency (RawStates vs States vs full size,
//     CanonHits vs generated states, AmpleStates vs Expansions,
//     worker-step accounting).
//
//   - trace-digest equality across worker counts per mode: the
//     deterministic telemetry skeleton (obs.Digest over level and run_end
//     events) is part of the determinism contract.
//
// Any violation is reported as an error wrapping ErrDiverged (and the
// underlying engine error, when there is one), carrying enough context to
// replay: mode, worker count, the spec name — and, where results diverge,
// the trace digests of both runs, so the corresponding JSONL traces can
// be re-recorded with -trace and diffed.

// ErrDiverged is wrapped by every error Differential returns: some mode
// disagreed with another mode, with the planted ground truth, or with the
// Stats consistency contract.
var ErrDiverged = errors.New("engine: differential oracle divergence")

// ErrLossyStore is returned (wrapping ErrDiverged) when DiffSpec.Stores
// names a lossy backend without AllowLossy: a store that can merge
// distinct states has no byte-identical graph to promise, so admitting it
// into the oracle must be an explicit opt-in, never a default.
var ErrLossyStore = errors.New("engine: lossy store backend in differential spec (set AllowLossy to accept undercounting)")

// DiffTruth is planted ground truth for a Differential run. All counts are
// exact; quotient fields are only consulted when the spec carries a
// canonicalizer.
type DiffTruth struct {
	// States, Terminals, Decided describe the full reachable graph.
	States, Terminals, Decided int
	// QuotientStates, QuotientTerminals, QuotientDecided describe the
	// symmetry quotient under the spec's Canon.
	QuotientStates, QuotientTerminals, QuotientDecided int
}

// DiffSpec is one system under differential test.
type DiffSpec struct {
	// Name tags divergence reports.
	Name string
	// Inits and Expand define the system, as for Explore.
	Inits  []string
	Expand ExpandFunc
	// Canon, when non-nil, enables the quotient modes. It must be sound
	// (Differential runs it under VerifyCanon=1, so an unsound canon fails
	// the run — by design: the oracle's planted hooks are correct by
	// construction, and the falsifier tripping on them is a divergence).
	Canon Canonicalizer
	// CanonBytes, when non-nil, is threaded as Options.CanonBytes into
	// every quotient arm, so the byte-level canonicalizer is held to the
	// same cross-mode/cross-worker byte-identity bar (and to VerifyCanon's
	// agreement check) as everything else.
	CanonBytes func() BytesCanonicalizer
	// VerifyAliasing is threaded as Options.VerifyAliasing into every arm:
	// 1 re-expands every state with poisoned scratch, so a system that
	// retains emitted buffers fails the oracle loudly.
	VerifyAliasing int
	// Independent, when non-nil, enables the POR modes (run under
	// VerifyPOR=1, same reasoning).
	Independent Independence
	// Visible, when non-nil, is threaded as Options.Visible into the POR
	// modes.
	Visible Visibility
	// Decided, when non-nil, classifies terminal states for the decided
	// counts.
	Decided func(string) bool
	// Truth, when non-nil, is checked against every mode's outcome.
	Truth *DiffTruth
	// Workers are the worker counts every mode runs at (default 1, 2, 8).
	Workers []int
	// MaxStates bounds each exploration (0 = DefaultMaxStates). Truncated
	// runs still check determinism but skip the count assertions.
	MaxStates int
	// Stores re-runs the full mode under each listed visited-set backend
	// and cross-checks it against the default in-memory run. Exact
	// backends (spill) must reproduce the mem run bit for bit — Result,
	// invariant telemetry and trace digest — at every worker count. Lossy
	// backends (bitstate) are rejected with ErrLossyStore unless
	// AllowLossy is set; with it, the lossy run must flag itself Lossy and
	// may only ever undercount (never exceed the exact state count, nor
	// the planted truth when present).
	Stores []store.Config
	// AllowLossy admits lossy backends listed in Stores, downgrading
	// their check from byte equality to the undercount bound.
	AllowLossy bool
}

// DiffMode is the outcome of one mode of a Differential run.
type DiffMode struct {
	// Mode is "full", "canon", "por" or "canon+por".
	Mode string
	// Stats is the telemetry of the mode's reference run (the first
	// configured worker count).
	Stats Stats
	// TraceDigest is the deterministic-event digest (obs.Digest) of the
	// mode's reference run: the fingerprint a JSONL trace of the same
	// system under the same mode must reproduce at any worker count. Two
	// modes that agree on the Result can still digest differently (levels
	// fill in a different order under reduction); within one mode the
	// digest is part of the determinism contract and is checked across
	// worker counts.
	TraceDigest string
}

// DiffReport summarizes a passing Differential run.
type DiffReport struct {
	// Name echoes the spec name.
	Name string
	// Modes holds one entry per mode explored, in execution order.
	Modes []DiffMode
}

// Differential runs spec under every applicable mode and worker count and
// returns a report, or an error wrapping ErrDiverged on the first
// violation.
func Differential(spec DiffSpec) (*DiffReport, error) {
	workers := spec.Workers
	if len(workers) == 0 {
		workers = []int{1, 2, 8}
	}
	rep := &DiffReport{Name: spec.Name}
	fail := func(mode string, par int, format string, args ...any) error {
		return fmt.Errorf("%w: %s [mode=%s workers=%d]: %s",
			ErrDiverged, spec.Name, mode, par, fmt.Sprintf(format, args...))
	}

	run := func(mode string, opts Options) (*Result, error) {
		// Every exploration runs with a trace-digest sink attached: the
		// deterministic event skeleton (level barriers, final totals) must
		// be worker-count invariant too, and a divergence report names the
		// digests so the corresponding -trace JSONL files can be diffed.
		refDig := obs.NewDigest()
		o := opts
		o.Sink, o.SnapshotEvery = refDig, -1
		ref, err := Explore(spec.Inits, spec.Expand, o)
		if err != nil && !errors.Is(err, ErrStateLimit) {
			// ErrStateLimit still carries the canonical partial Result; the
			// determinism checks below apply to it unchanged.
			return nil, fmt.Errorf("%w: %s [mode=%s workers=%d]: %w",
				ErrDiverged, spec.Name, mode, opts.Parallelism, err)
		}
		for _, par := range workers[1:] {
			gotDig := obs.NewDigest()
			o := opts
			o.Parallelism = par
			o.Sink, o.SnapshotEvery = gotDig, -1
			got, err := Explore(spec.Inits, spec.Expand, o)
			if err != nil && !errors.Is(err, ErrStateLimit) {
				return nil, fmt.Errorf("%w: %s [mode=%s workers=%d]: %w",
					ErrDiverged, spec.Name, mode, par, err)
			}
			if msg := diffResults(ref, got); msg != "" {
				return nil, fail(mode, par, "diverged from workers=%d run: %s (trace digests %s vs %s)",
					workers[0], msg, refDig.Sum(), gotDig.Sum())
			}
			if msg := diffStats(ref.Stats, got.Stats); msg != "" {
				return nil, fail(mode, par, "telemetry diverged from workers=%d run: %s (trace digests %s vs %s)",
					workers[0], msg, refDig.Sum(), gotDig.Sum())
			}
			if refDig.Sum() != gotDig.Sum() {
				return nil, fail(mode, par, "trace digest diverged from workers=%d run: %s vs %s",
					workers[0], refDig.Sum(), gotDig.Sum())
			}
			if msg := statsConsistency(got); msg != "" {
				return nil, fail(mode, par, "inconsistent telemetry: %s", msg)
			}
		}
		if msg := statsConsistency(ref); msg != "" {
			return nil, fail(mode, workers[0], "inconsistent telemetry: %s", msg)
		}
		// The sink above switches phase profiling on, so every run so far
		// took the profiled path. One more run with neither Sink nor Stats
		// takes the unprofiled path untraced callers get, and must match
		// the profiled reference result and counters exactly.
		plain, err := Explore(spec.Inits, spec.Expand, opts)
		if err != nil && !errors.Is(err, ErrStateLimit) {
			return nil, fmt.Errorf("%w: %s [mode=%s workers=%d unprofiled]: %w",
				ErrDiverged, spec.Name, mode, opts.Parallelism, err)
		}
		if msg := diffResults(ref, plain); msg != "" {
			return nil, fail(mode, workers[0], "unprofiled run diverged from the profiled one: %s", msg)
		}
		if msg := diffStats(ref.Stats, plain.Stats); msg != "" {
			return nil, fail(mode, workers[0], "unprofiled run's telemetry diverged from the profiled one: %s", msg)
		}
		rep.Modes = append(rep.Modes, DiffMode{Mode: mode, Stats: ref.Stats, TraceDigest: refDig.Sum()})
		return ref, nil
	}

	base := Options{MaxStates: spec.MaxStates, Parallelism: workers[0], VerifyAliasing: spec.VerifyAliasing}

	bfs, err := referenceExplore(spec.Inits, spec.Expand, spec.MaxStates)
	if err != nil && !errors.Is(err, ErrStateLimit) {
		return nil, fmt.Errorf("%w: %s [reference]: %w", ErrDiverged, spec.Name, err)
	}
	full, err := run("full", base)
	if err != nil {
		return nil, err
	}
	if msg := diffResults(bfs, full); msg != "" {
		return nil, fail("full", workers[0], "diverged from the reference BFS: %s", msg)
	}
	fullDigest := rep.Modes[len(rep.Modes)-1].TraceDigest
	fullTerm := terminalSet(full)
	if spec.Truth != nil && !full.Truncated {
		if got := len(full.States); got != spec.Truth.States {
			return nil, fail("full", workers[0], "states = %d, planted truth %d", got, spec.Truth.States)
		}
		if got := len(fullTerm); got != spec.Truth.Terminals {
			return nil, fail("full", workers[0], "terminals = %d, planted truth %d", got, spec.Truth.Terminals)
		}
		if spec.Decided != nil {
			if got := countDecided(fullTerm, spec.Decided); got != spec.Truth.Decided {
				return nil, fail("full", workers[0], "decided terminals = %d, planted truth %d", got, spec.Truth.Decided)
			}
		}
	}

	// Cross-backend comparison: the store is an implementation detail of
	// the visited set, so under an exact backend everything the
	// determinism contract covers — including the trace digest, which
	// hashes no store field — must come out bit-identical to the mem run.
	for _, sc := range spec.Stores {
		mode := "full+" + string(sc.ResolvedKind())
		if sc.Lossy() && !spec.AllowLossy {
			return nil, fmt.Errorf("%w: %s [mode=%s]: %w", ErrDiverged, spec.Name, mode, ErrLossyStore)
		}
		opts := base
		opts.Store = sc
		if sc.Lossy() {
			// One configuration only: under forced collisions (small
			// FingerprintBits) which payload survives a merge is
			// first-intern-wins, i.e. scheduling-dependent, so there is no
			// cross-worker-count promise to check — only the undercount
			// bound and the taint flag.
			dig := obs.NewDigest()
			opts.Sink, opts.SnapshotEvery = dig, -1
			res, err := Explore(spec.Inits, spec.Expand, opts)
			if err != nil && !errors.Is(err, ErrStateLimit) {
				return nil, fmt.Errorf("%w: %s [mode=%s]: %w", ErrDiverged, spec.Name, mode, err)
			}
			if !res.Stats.Lossy || !res.Stats.Store.Lossy {
				return nil, fail(mode, workers[0], "bitstate run not flagged lossy: %+v", res.Stats.Store)
			}
			if len(res.States) > len(full.States) {
				return nil, fail(mode, workers[0], "lossy backend overcounted: %d states > exact %d",
					len(res.States), len(full.States))
			}
			if spec.Truth != nil && len(res.States) > spec.Truth.States {
				return nil, fail(mode, workers[0], "lossy backend overcounted: %d states > planted truth %d",
					len(res.States), spec.Truth.States)
			}
			rep.Modes = append(rep.Modes, DiffMode{Mode: mode, Stats: res.Stats, TraceDigest: dig.Sum()})
			continue
		}
		alt, err := run(mode, opts)
		if err != nil {
			return nil, err
		}
		if msg := diffResults(bfs, alt); msg != "" {
			return nil, fail(mode, workers[0], "diverged from the reference BFS: %s", msg)
		}
		if msg := diffStats(full.Stats, alt.Stats); msg != "" {
			return nil, fail(mode, workers[0], "telemetry diverged from mem backend: %s", msg)
		}
		if altDigest := rep.Modes[len(rep.Modes)-1].TraceDigest; altDigest != fullDigest {
			return nil, fail(mode, workers[0], "trace digest diverged from mem backend: %s vs %s",
				altDigest, fullDigest)
		}
	}

	var quo *Result
	if spec.Canon != nil {
		opts := base
		opts.Canon = spec.Canon
		opts.CanonBytes = spec.CanonBytes
		opts.VerifyCanon = 1
		if quo, err = run("canon", opts); err != nil {
			return nil, err
		}
		st := quo.Stats
		if !quo.Truncated {
			if st.RawStates < len(quo.States) {
				return nil, fail("canon", workers[0], "RawStates %d < quotient states %d", st.RawStates, len(quo.States))
			}
			if !full.Truncated && st.RawStates > len(full.States) {
				return nil, fail("canon", workers[0], "RawStates %d > full states %d", st.RawStates, len(full.States))
			}
			if maxGen := st.DedupHits + uint64(len(quo.States)) + uint64(len(spec.Inits)); st.CanonHits > maxGen {
				return nil, fail("canon", workers[0], "CanonHits %d > generated states %d", st.CanonHits, maxGen)
			}
			if spec.Truth != nil {
				qt := terminalSet(quo)
				if got := len(quo.States); got != spec.Truth.QuotientStates {
					return nil, fail("canon", workers[0], "quotient states = %d, planted truth %d", got, spec.Truth.QuotientStates)
				}
				if got := len(qt); got != spec.Truth.QuotientTerminals {
					return nil, fail("canon", workers[0], "quotient terminals = %d, planted truth %d", got, spec.Truth.QuotientTerminals)
				}
				if spec.Decided != nil {
					if got := countDecided(qt, spec.Decided); got != spec.Truth.QuotientDecided {
						return nil, fail("canon", workers[0], "quotient decided = %d, planted truth %d", got, spec.Truth.QuotientDecided)
					}
				}
			}
		}
	}

	if spec.Independent != nil {
		opts := base
		opts.Independent = spec.Independent
		opts.Visible = spec.Visible
		opts.VerifyPOR = 1
		por, err := run("por", opts)
		if err != nil {
			return nil, err
		}
		if !por.Truncated && !full.Truncated {
			if msg := porSoundVsFull(por, full, fullTerm); msg != "" {
				return nil, fail("por", workers[0], "%s", msg)
			}
		}

		if spec.Canon != nil {
			opts.Canon = spec.Canon
			opts.CanonBytes = spec.CanonBytes
			opts.VerifyCanon = 1
			both, err := run("canon+por", opts)
			if err != nil {
				return nil, err
			}
			if !both.Truncated && quo != nil && !quo.Truncated {
				if msg := porSoundVsFull(both, quo, terminalSet(quo)); msg != "" {
					return nil, fail("canon+por", workers[0], "vs quotient: %s", msg)
				}
			}
		}
	}
	return rep, nil
}

// referenceExplore is the executable specification of the canonical order
// every full-mode Explore result must reproduce: a plain single-threaded
// breadth-first search that numbers states in discovery order, records
// each state's transitions in emission order, numbers labels on first
// sight in that edge order, and stops — leaving the expanding state
// without a row — on discovering the state past limit (0 means
// DefaultMaxStates). It shares nothing with the engine but the
// collect-mode Ctx, so comparing against it checks the engine's levels,
// store and replay together rather than the engine against itself.
func referenceExplore(inits []string, expand ExpandFunc, limit int) (*Result, error) {
	if limit <= 0 {
		limit = DefaultMaxStates
	}
	res := &Result{Off: []uint32{0}}
	index := make(map[string]int32)
	intern := func(s string) (int32, bool) {
		if id, ok := index[s]; ok {
			return id, false
		}
		id := int32(len(res.States))
		index[s] = id
		res.States = append(res.States, s)
		res.Parents = append(res.Parents, -1)
		res.ParentEdges = append(res.ParentEdges, -1)
		return id, true
	}
	for _, s := range inits {
		if id, fresh := intern(s); fresh {
			res.Inits = append(res.Inits, int(id))
		}
	}
	if len(res.Inits) == 0 {
		return nil, ErrNoInitialStates
	}
	labelIDs := make(map[string]uint32)
	var acts []Action
	x := CollectCtx(func(to, label string, actor int) {
		acts = append(acts, Action{To: to, Label: label, Actor: actor})
	})
	// Ids are assigned in discovery order, so walking them in order is the
	// BFS queue.
	for id := 0; id < len(res.States); id++ {
		acts = acts[:0]
		expand(res.States[id], x)
		for _, a := range acts {
			to, fresh := intern(a.To)
			if fresh {
				if len(res.States) > limit {
					res.Truncated = true
					return res, fmt.Errorf("%w: limit %d", ErrStateLimit, limit)
				}
				res.Parents[to] = int32(id)
				res.ParentEdges[to] = int32(len(res.Edges))
			}
			l, ok := labelIDs[a.Label]
			if !ok {
				l = uint32(len(res.Labels))
				labelIDs[a.Label] = l
				res.Labels = append(res.Labels, a.Label)
			}
			res.Edges = append(res.Edges, Edge{To: to, Actor: int32(a.Actor), Label: l})
		}
		res.Off = append(res.Off, uint32(len(res.Edges)))
	}
	return res, nil
}

// diffResults compares two Results field by field and describes the first
// difference ("" when byte-identical). Empty and nil slices compare equal.
func diffResults(a, b *Result) string {
	switch {
	case !slices.Equal(a.States, b.States):
		return fmt.Sprintf("state orderings differ (%d vs %d states)", len(a.States), len(b.States))
	case !slices.Equal(a.Inits, b.Inits):
		return fmt.Sprintf("initial ids differ: %v vs %v", a.Inits, b.Inits)
	case !slices.Equal(a.Off, b.Off):
		return fmt.Sprintf("row offsets differ (%d vs %d rows)", len(a.Off)-1, len(b.Off)-1)
	case !slices.Equal(a.Edges, b.Edges):
		return "edge lists differ"
	case !slices.Equal(a.Labels, b.Labels):
		return fmt.Sprintf("label tables differ: %q vs %q", a.Labels, b.Labels)
	case !slices.Equal(a.Parents, b.Parents):
		return "parent trees differ"
	case !slices.Equal(a.ParentEdges, b.ParentEdges):
		return "parent edges differ"
	case a.Truncated != b.Truncated:
		return fmt.Sprintf("truncation flags differ: %v vs %v", a.Truncated, b.Truncated)
	}
	return ""
}

// diffStats compares the worker-count-invariant telemetry fields.
func diffStats(a, b Stats) string {
	type inv struct {
		name string
		a, b uint64
	}
	for _, f := range []inv{
		{"States", uint64(a.States), uint64(b.States)},
		{"Edges", uint64(a.Edges), uint64(b.Edges)},
		{"Depth", uint64(a.Depth), uint64(b.Depth)},
		{"PeakFrontier", uint64(a.PeakFrontier), uint64(b.PeakFrontier)},
		{"Expansions", a.Expansions, b.Expansions},
		{"DedupHits", a.DedupHits, b.DedupHits},
		{"RawStates", uint64(a.RawStates), uint64(b.RawStates)},
		{"CanonHits", a.CanonHits, b.CanonHits},
		{"AmpleStates", a.AmpleStates, b.AmpleStates},
		{"DeferredActions", a.DeferredActions, b.DeferredActions},
	} {
		if f.a != f.b {
			return fmt.Sprintf("%s = %d vs %d", f.name, f.a, f.b)
		}
	}
	return ""
}

// statsConsistency checks one run's telemetry against its Result and the
// engine's internal accounting invariants.
func statsConsistency(res *Result) string {
	st := res.Stats
	if st.States != len(res.States) {
		return fmt.Sprintf("Stats.States %d != len(States) %d", st.States, len(res.States))
	}
	if edges := res.NumEdges(); st.Edges != edges {
		return fmt.Sprintf("Stats.Edges %d != recorded edges %d", st.Edges, edges)
	}
	if len(st.WorkerSteps) != st.Workers {
		return fmt.Sprintf("len(WorkerSteps) %d != Workers %d", len(st.WorkerSteps), st.Workers)
	}
	var steps uint64
	for _, s := range st.WorkerSteps {
		steps += s
	}
	if steps != st.Expansions {
		return fmt.Sprintf("sum(WorkerSteps) %d != Expansions %d", steps, st.Expansions)
	}
	if !st.Truncated && st.Expansions != uint64(st.States) {
		return fmt.Sprintf("Expansions %d != States %d on a complete run", st.Expansions, st.States)
	}
	if st.Truncated != res.Truncated {
		return fmt.Sprintf("Stats.Truncated %v != Result.Truncated %v", st.Truncated, res.Truncated)
	}
	if st.AmpleStates > st.Expansions {
		return fmt.Sprintf("AmpleStates %d > Expansions %d", st.AmpleStates, st.Expansions)
	}
	if st.AmpleStates == 0 && st.DeferredActions != 0 {
		return fmt.Sprintf("DeferredActions %d with zero AmpleStates", st.DeferredActions)
	}
	if st.AmpleStates > 0 && st.DeferredActions < st.AmpleStates {
		return fmt.Sprintf("DeferredActions %d < AmpleStates %d (every ample expansion defers at least one action)",
			st.DeferredActions, st.AmpleStates)
	}
	if !st.CanonEnabled && (st.RawStates != 0 || st.CanonHits != 0) {
		return "canon telemetry nonzero without a canonicalizer"
	}
	// The store interns every state the run discovers: on a complete run
	// the counts coincide; a truncated run's store holds the overshoot the
	// replay cut off.
	if !st.Truncated && st.Store.States != st.States {
		return fmt.Sprintf("Store.States %d != States %d on a complete run", st.Store.States, st.States)
	}
	if st.Truncated && st.Store.States < st.States {
		return fmt.Sprintf("Store.States %d < replayed States %d", st.Store.States, st.States)
	}
	if st.Lossy != st.Store.Lossy {
		return fmt.Sprintf("Stats.Lossy %v != Store.Lossy %v", st.Lossy, st.Store.Lossy)
	}
	if !st.POREnabled && (st.AmpleStates != 0 || st.DeferredActions != 0) {
		return "POR telemetry nonzero without an independence relation"
	}
	return ""
}

// porSoundVsFull checks the reduced graph against its unreduced
// counterpart: a subgraph (state- and edge-wise) that preserves the exact
// terminal state set.
func porSoundVsFull(por, full *Result, fullTerm map[string]bool) string {
	if len(por.States) > len(full.States) {
		return fmt.Sprintf("reduced states %d > unreduced %d", len(por.States), len(full.States))
	}
	if st := por.Stats; st.Edges > full.Stats.Edges {
		return fmt.Sprintf("reduced edges %d > unreduced %d", st.Edges, full.Stats.Edges)
	}
	unreduced := make(map[string]bool, len(full.States))
	for _, s := range full.States {
		unreduced[s] = true
	}
	for _, s := range por.States {
		if !unreduced[s] {
			return fmt.Sprintf("reduced graph reaches state %v absent from the unreduced graph", s)
		}
	}
	porTerm := terminalSet(por)
	if len(porTerm) != len(fullTerm) {
		return fmt.Sprintf("reduced graph has %d terminals, unreduced %d (deadlock preservation violated)",
			len(porTerm), len(fullTerm))
	}
	for s := range porTerm {
		if !fullTerm[s] {
			return fmt.Sprintf("reduced terminal %v is not terminal in the unreduced graph", s)
		}
	}
	return ""
}

// terminalSet collects the terminal states of a Result.
func terminalSet(res *Result) map[string]bool {
	out := make(map[string]bool)
	// Only expanded states have rows: on a truncated result the states
	// past them were cut off, not terminal.
	for i := 0; i+1 < len(res.Off); i++ {
		if res.Off[i] == res.Off[i+1] {
			out[res.States[i]] = true
		}
	}
	return out
}

// countDecided counts the states in set satisfying pred.
func countDecided(set map[string]bool, pred func(string) bool) int {
	n := 0
	for s := range set {
		if pred(s) {
			n++
		}
	}
	return n
}
