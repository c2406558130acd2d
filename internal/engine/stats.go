package engine

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// Stats is the exploration telemetry of one Explore run: the observability
// hook the CLIs and benchmarks surface. All fields describe the completed
// run (the engine does not stream them mid-exploration).
type Stats struct {
	// States is the number of canonical states in the Result.
	States int
	// Edges is the number of transitions in the Result.
	Edges int
	// Depth is the number of BFS levels expanded (the frontier depth).
	Depth int
	// PeakFrontier is the largest BFS level, in states.
	PeakFrontier int
	// Expansions is the number of states expanded (ExpandFunc calls). It
	// can exceed States on a truncated run: the parallel phase finishes the
	// level in flight when the limit trips.
	Expansions uint64
	// DedupHits counts generated successors that were already known — the
	// visited-set hit rate is DedupHits / (DedupHits + new states).
	DedupHits uint64
	// Workers is the resolved worker count.
	Workers int
	// WorkerSteps[i] is the number of states worker i expanded; its spread
	// shows how evenly the frontier sharded.
	WorkerSteps []uint64
	// Elapsed is the wall-clock time of the exploration, canonicalization
	// included.
	Elapsed time.Duration
	// StatesPerSec is States / Elapsed.
	StatesPerSec float64
	// Truncated reports that the state limit cut the exploration short.
	Truncated bool
	// CanonEnabled reports that a symmetry canonicalizer was installed and
	// the run explored the quotient graph.
	CanonEnabled bool
	// RawStates is the number of distinct raw (pre-canonicalization) states
	// generated while exploring the quotient, counted by fingerprint. It is
	// a lower bound on the full state space: only successors of orbit
	// representatives are ever generated, so orbits are sampled, not
	// enumerated. Zero when CanonEnabled is false.
	RawStates int
	// CanonHits counts generated states the canonicalizer remapped to a
	// different orbit representative.
	CanonHits uint64
	// POREnabled reports that an independence relation was installed and
	// the run used ample-set partial-order reduction.
	POREnabled bool
	// AmpleStates counts expanded states where a proper ample subset was
	// selected (the remaining states were expanded fully, because no
	// proper dependence component existed or the cycle proviso vetoed it).
	AmpleStates uint64
	// DeferredActions counts enabled actions skipped by ample-set
	// selection across all expansions — the per-state branching the
	// reduction removed. The end-to-end state savings compound beyond this
	// count: every deferred action also prunes the subtree that
	// interleaving order would have spawned.
	DeferredActions uint64
	// Store is the visited-set backend's end-of-run telemetry: resident
	// and spilled bytes, segment traffic, lossiness. Its spill counters
	// depend on page layout and therefore on scheduling — they are NOT
	// part of the worker-count-invariant set diffStats compares.
	Store store.Stats
	// Lossy mirrors Store.Lossy at the top level: a true value taints the
	// whole run — distinct states may have been merged, so the explored
	// counts are lower bounds and any "no violation" outcome means "none
	// found", never "none exists". Checkers must downgrade their verdicts.
	Lossy bool
	// PeakRSSBytes is the process's peak resident set size at run end
	// (process-wide and monotone across runs; 0 if unmeasurable, or if
	// neither Options.Stats nor Options.Sink is set: getrusage would cost
	// a tiny exploration more than its search).
	PeakRSSBytes int64
	// GraphBytes is the memory the Result's graph layout holds: edge
	// chunks, span table, label table and parent tree (state payloads
	// excluded). ArenaBytes is the part of it in edge chunks: the capacity
	// of every chunk the workers allocated, which replay rewrites in place
	// and the Result keeps. Both are byte accounting, not part of the
	// determinism comparisons or trace digests.
	GraphBytes int64
	ArenaBytes int64
	// Phases is the run's aggregate phase-attribution profile (expand,
	// barrier-wait, store I/O, replay — plus the
	// sampled canon/intern split), summed over workers; WorkerPhases is the
	// per-worker breakdown and ExpandLat the sampled expansion-latency
	// histogram. Recorded whenever Options.Stats or Options.Sink is set.
	// Pure timing: scheduling- and machine-dependent, excluded from the
	// determinism comparisons and from trace digests.
	Phases       obs.Phases
	WorkerPhases []obs.Phases
	ExpandLat    obs.HistSnap
}

// DedupRate returns the fraction of generated successors that hit an
// already-known state, in [0, 1].
func (s Stats) DedupRate() float64 {
	total := s.DedupHits + uint64(s.States)
	if total == 0 {
		return 0
	}
	return float64(s.DedupHits) / float64(total)
}

// ReductionFactor is the observed orbit reduction RawStates / States: how
// many raw states collapsed into each explored representative. It is ≥ 1 on
// any quotient run and a lower bound on the full-space reduction (see
// RawStates). Zero when no canonicalizer was installed.
func (s Stats) ReductionFactor() float64 {
	if !s.CanonEnabled || s.States == 0 {
		return 0
	}
	return float64(s.RawStates) / float64(s.States)
}

// PORReductionFactor is the observed branching reduction
// (Edges + DeferredActions) / Edges: how many enabled actions existed per
// action actually explored. It is ≥ 1 on any POR run and a lower bound on
// the full-space state reduction (deferred actions also prune their
// interleaving subtrees, which this ratio cannot see). Zero when no
// independence relation was installed.
func (s Stats) PORReductionFactor() float64 {
	if !s.POREnabled || s.Edges == 0 {
		return 0
	}
	return float64(uint64(s.Edges)+s.DeferredActions) / float64(s.Edges)
}

// Snapshot converts the end-of-run telemetry into the observability
// layer's final progress snapshot. It is the single source of the run_end
// event's payload, so "the trace's final snapshot totals equal the
// returned Stats" holds by construction.
func (s Stats) Snapshot() obs.ProgressSnapshot {
	snap := obs.ProgressSnapshot{
		Elapsed:         s.Elapsed,
		States:          s.States,
		Edges:           s.Edges,
		Depth:           s.Depth,
		PeakFrontier:    s.PeakFrontier,
		Expansions:      s.Expansions,
		DedupHits:       s.DedupHits,
		CanonHits:       s.CanonHits,
		RawStates:       s.RawStates,
		AmpleStates:     s.AmpleStates,
		DeferredActions: s.DeferredActions,
		WorkerSteps:     append([]uint64(nil), s.WorkerSteps...),
		Truncated:       s.Truncated,
		Final:           true,
		PeakRSSBytes:    s.PeakRSSBytes,
		GraphBytes:      s.GraphBytes,
		ArenaBytes:      s.ArenaBytes,
	}
	stampStore(&snap, s.Store)
	if !s.Phases.Zero() {
		ph := s.Phases
		snap.Phases = &ph
		snap.WorkerPhases = append([]obs.Phases(nil), s.WorkerPhases...)
	}
	if s.ExpandLat.Count > 0 {
		el := s.ExpandLat
		snap.ExpandLat = &el
	}
	return snap
}

// PhaseString renders the aggregate phase profile as one report line ("" when
// no profile was recorded). Wall-clock percentages are of the summed
// per-worker clock (≈ Workers × Elapsed); the canon/intern split comes from
// the 1-in-64 fine samples.
func (s Stats) PhaseString() string {
	p := s.Phases
	if p.Zero() {
		return ""
	}
	total := p.TotalNs()
	if total == 0 {
		return ""
	}
	pct := func(ns int64) float64 { return 100 * float64(ns) / float64(total) }
	line := fmt.Sprintf("phases: expand=%.1f%% barrier=%.1f%% store-io=%.1f%% replay=%.1f%%",
		pct(p.ExpandNs), pct(p.BarrierWaitNs), pct(p.StoreIONs), pct(p.ReplayNs))
	if p.SampledStates > 0 && p.SampleExpandNs > 0 {
		line += fmt.Sprintf(" | sampled=%d canon=%.1f%% intern=%.1f%% of expand",
			p.SampledStates, 100*p.CanonFrac(), 100*p.InternFrac())
		if s.ExpandLat.Count > 0 {
			line += fmt.Sprintf(" p50=%s p99=%s",
				time.Duration(s.ExpandLat.QuantileNs(0.5)), time.Duration(s.ExpandLat.QuantileNs(0.99)))
		}
	}
	return line
}

// String renders the telemetry as a single report line.
func (s Stats) String() string {
	line := fmt.Sprintf("states=%d edges=%d depth=%d peak-frontier=%d dedup=%.1f%% workers=%d %s states/sec=%.0f",
		s.States, s.Edges, s.Depth, s.PeakFrontier, 100*s.DedupRate(), s.Workers, s.Elapsed.Round(time.Microsecond), s.StatesPerSec)
	if s.CanonEnabled {
		line += fmt.Sprintf(" raw=%d reduction=%.2fx", s.RawStates, s.ReductionFactor())
	}
	if s.POREnabled {
		line += fmt.Sprintf(" ample=%d deferred=%d por-branch=%.2fx", s.AmpleStates, s.DeferredActions, s.PORReductionFactor())
	}
	if s.Truncated {
		line += " (truncated)"
	}
	if s.Lossy {
		line += " (LOSSY: bitstate sweep, counts are lower bounds)"
	}
	return line
}

// StoreString renders the store telemetry as one report line ("" for the
// default mem backend, which has nothing actionable to report).
func (s Stats) StoreString() string {
	ss := s.Store
	switch ss.Kind {
	case store.Spill:
		return fmt.Sprintf("store=spill budget=%s ram=%s spilled=%d states (%s raw, %s on disk) segments=%d seg-reads=%d confirms=%d",
			byteCount(ss.MaxBytes), byteCount(ss.BytesInRAM), ss.SpilledStates,
			byteCount(ss.BytesSpilled), byteCount(ss.CompressedBytes), ss.Segments, ss.SegmentReads, ss.CollisionConfirms)
	case store.Bitstate:
		bits := ss.FingerprintBits
		if bits == 0 {
			bits = 64
		}
		return fmt.Sprintf("store=bitstate fp-bits=%d ram=%s (lossy)", bits, byteCount(ss.BytesInRAM))
	}
	return ""
}

// byteCount renders n in binary units with one decimal.
func byteCount(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%dB", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%ciB", float64(n)/float64(div), "KMGTPE"[exp])
}
