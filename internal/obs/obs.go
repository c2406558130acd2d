// Package obs is the streaming observability layer of the exploration
// engine: typed telemetry events, synchronous fan-out to sinks, JSONL run
// traces with a versioned schema, live progress snapshots, and an opt-in
// HTTP metrics endpoint.
//
// The engine (internal/engine) is the producer: with a Sink installed in
// its Options it publishes a run_start event, one level event per BFS
// barrier, timer-driven snapshot events from a monitor goroutine, a
// truncated event when the state limit trips, and a run_end event whose
// final snapshot totals equal the returned Stats. With no Sink installed
// the engine skips every telemetry branch — the disabled path costs one
// nil check and zero allocations (see Publish).
//
// The cardinal rule is that observing a run never changes it: sinks only
// read, events are published outside the worker hot loops (at level
// barriers and from the monitor goroutine), and the exploration Result is
// byte-identical with and without sinks attached, at any worker count.
// The engine's tests assert exactly that.
//
// Everything in this package is engine-agnostic: it imports no other
// internal package, so the engine, core, and the CLIs can all depend on it
// without cycles.
package obs

import (
	"fmt"
	"runtime/debug"
	"strings"
	"time"
)

// SchemaVersion identifies the trace event layout. Policy: additive
// changes (new optional snapshot fields) do not bump the version —
// consumers must ignore unknown fields; new event *kinds* do bump it,
// because ValidateTrace rejects kinds it does not know. Renaming,
// removing, or changing the meaning of an existing field also bumps.
// Validators reject traces written by a newer schema than they understand.
//
//   - v1: exploration runs (run_start/level/snapshot/truncated/run_end).
//   - v2: adds live-runtime runs (rt_start/rt_event/rt_end) — see
//     RuntimeConfig.
//   - v3: phase-attribution profiling — snapshot
//     phases/worker_phases/expand_lat, store page-cache + segment-latency
//     fields, rt batch_lat, and per-event elapsed_ns. Purely additive, so
//     v2 readers still parse v3 traces; the version is bumped deliberately
//     (an exception to the additive rule) so post-hoc tooling like
//     `hundred report` can tell whether a missing phase block means
//     "profiling off" (v3) or "producer predates profiling" (v2).
//
// Earlier v3 producers also wrote a work-stealing scheduler's fields
// (run_start sched; snapshot steals/handoff_batches/queue_occupancy;
// phases steal_ns/handoff_ns/idle_ns). All were omitempty and excluded
// from digests, so dropping them needs no bump: readers skip them as
// unknown fields, and such traces still validate, report and diff.
const SchemaVersion = 3

// EventKind discriminates trace events.
type EventKind string

const (
	// KindManifest tags the first line of a JSONL trace (a Manifest, not
	// an Event; listed here so validators can name it).
	KindManifest EventKind = "manifest"
	// KindRunStart opens one exploration run and carries its RunConfig.
	KindRunStart EventKind = "run_start"
	// KindLevel is published at every BFS level barrier with a
	// point-in-time snapshot. Its counter fields are worker-count
	// invariant (the engine's determinism contract extends to them), so
	// level events are the replay-comparable skeleton of a trace.
	KindLevel EventKind = "level"
	// KindSnapshot is a timer-driven live snapshot (worker utilization,
	// throughput). Timing-dependent: excluded from digests.
	KindSnapshot EventKind = "snapshot"
	// KindTruncated reports that the state limit cut the run short.
	KindTruncated EventKind = "truncated"
	// KindRunEnd closes a run; its snapshot is final (totals equal the
	// run's Stats).
	KindRunEnd EventKind = "run_end"

	// KindRTStart opens one live adversarial runtime run (internal/runtime)
	// and carries its RuntimeConfig. Runtime runs and exploration runs may
	// share a trace file, sequentially, never nested.
	KindRTStart EventKind = "rt_start"
	// KindRTEvent is one scheduled runtime action: a message delivery, a
	// local protocol step, an adversary drop/duplication, or a crash or
	// restart injection. The stream of rt_events under a fixed seed and
	// config is deterministic at any GOMAXPROCS — it is the replayable
	// record the refinement oracle embeds into the explored state space.
	KindRTEvent EventKind = "rt_event"
	// KindRTEnd closes a runtime run with its RuntimeSummary totals.
	KindRTEnd EventKind = "rt_end"
)

// Event is one telemetry record. Exactly one payload field is set,
// according to Kind. Run and Seq are stamped by TraceWriter, not by the
// producer.
type Event struct {
	Kind EventKind `json:"kind"`
	// Run numbers the exploration run within a trace file (1-based),
	// stamped by TraceWriter.
	Run int `json:"run,omitempty"`
	// Seq orders events within a trace file (1-based, strictly
	// increasing), stamped by TraceWriter.
	Seq uint64 `json:"seq,omitempty"`
	// ElapsedNs is the monotonic time since the trace writer was created,
	// stamped by TraceWriter under its write lock — so it is non-decreasing
	// across a trace file by construction (ValidateTrace checks), and
	// reports can order and window events without trusting wall clocks.
	// Timing, not structure: excluded from trace digests.
	ElapsedNs int64 `json:"elapsed_ns,omitempty"`
	// Config accompanies run_start.
	Config *RunConfig `json:"config,omitempty"`
	// Snapshot accompanies level, snapshot, truncated and run_end.
	Snapshot *ProgressSnapshot `json:"snapshot,omitempty"`
	// RTConfig accompanies rt_start.
	RTConfig *RuntimeConfig `json:"rt_config,omitempty"`
	// RT accompanies rt_event.
	RT *RuntimeEvent `json:"rt,omitempty"`
	// RTSummary accompanies rt_end.
	RTSummary *RuntimeSummary `json:"rt_summary,omitempty"`
}

// RunConfig describes one exploration run, published with run_start.
type RunConfig struct {
	// Workers is the resolved worker count.
	Workers int `json:"workers"`
	// MaxStates is the resolved state limit.
	MaxStates int `json:"max_states"`
	// Inits is the number of deduplicated initial states.
	Inits int `json:"inits"`
	// Canon reports that a symmetry canonicalizer is installed.
	Canon bool `json:"canon,omitempty"`
	// POR reports that an independence relation is installed.
	POR bool `json:"por,omitempty"`
	// Store names the state-store backend ("mem", "spill", "bitstate").
	// Empty in traces from before the pluggable store (reads as "mem").
	Store string `json:"store,omitempty"`
	// MaxStoreBytes is the spill backend's resident-payload budget.
	MaxStoreBytes int64 `json:"max_store_bytes,omitempty"`
}

// Mode names the reduction stack of a run: "full", "canon", "por" or
// "canon+por" — the same vocabulary engine.Differential uses.
func (c RunConfig) Mode() string {
	switch {
	case c.Canon && c.POR:
		return "canon+por"
	case c.Canon:
		return "canon"
	case c.POR:
		return "por"
	}
	return "full"
}

// ProgressSnapshot is a point-in-time view of one exploration run. Level
// and run_end snapshots carry barrier-accurate (worker-count-invariant)
// counters; timer-driven snapshots carry live values that may be mid-level.
type ProgressSnapshot struct {
	// Elapsed is the time since the run started. Serialized in
	// nanoseconds (Go's time.Duration JSON form).
	Elapsed time.Duration `json:"elapsed"`
	// States is the number of distinct states interned so far.
	States int `json:"states"`
	// Edges is the number of recorded transitions (final snapshots only;
	// zero mid-run — edge arenas are per-worker until replay).
	Edges int `json:"edges,omitempty"`
	// Depth is the number of BFS levels completed.
	Depth int `json:"depth"`
	// Frontier is the size of the level currently being expanded (zero on
	// final snapshots: the frontier is empty when the run ends).
	Frontier int `json:"frontier,omitempty"`
	// PeakFrontier is the largest level seen so far.
	PeakFrontier int `json:"peak_frontier,omitempty"`
	// Expansions counts ExpandFunc calls so far.
	Expansions uint64 `json:"expansions"`
	// DedupHits counts generated successors that were already known.
	DedupHits uint64 `json:"dedup_hits"`
	// CanonHits counts states remapped to a different orbit
	// representative (canonicalizer runs only).
	CanonHits uint64 `json:"canon_hits,omitempty"`
	// RawStates is the distinct raw pre-canonicalization state count
	// (final snapshots of canonicalizer runs only; unioning the
	// per-worker sets mid-run would not be lock-light).
	RawStates int `json:"raw_states,omitempty"`
	// AmpleStates and DeferredActions are the POR counters.
	AmpleStates     uint64 `json:"ample_states,omitempty"`
	DeferredActions uint64 `json:"deferred_actions,omitempty"`
	// WorkerSteps[i] is the number of states worker i has expanded.
	WorkerSteps []uint64 `json:"worker_steps,omitempty"`
	// MaxStates echoes the run's state limit, for ETA arithmetic.
	MaxStates int `json:"max_states,omitempty"`
	// Truncated reports that the state limit cut the run short.
	Truncated bool `json:"truncated,omitempty"`
	// Final marks the run_end snapshot: totals equal the run's Stats.
	Final bool `json:"final,omitempty"`

	// State-store telemetry (absent in traces from before the pluggable
	// store). Spill byte/segment counters depend on page layout, which
	// depends on scheduling: like WorkerSteps and Elapsed they are NOT
	// worker-count invariant and are excluded from trace digests.

	// StoreBytesInRAM is the store's resident footprint estimate.
	StoreBytesInRAM int64 `json:"store_bytes_in_ram,omitempty"`
	// StoreBytesSpilled is the raw payload bytes written to segment files.
	StoreBytesSpilled int64 `json:"store_bytes_spilled,omitempty"`
	// StoreSegments is the number of segment files written.
	StoreSegments int `json:"store_segments,omitempty"`
	// StoreSegmentReads counts page fetches served from disk.
	StoreSegmentReads uint64 `json:"store_segment_reads,omitempty"`
	// StoreCollisionConfirms counts fingerprint hits confirmed against a
	// spilled payload.
	StoreCollisionConfirms uint64 `json:"store_collision_confirms,omitempty"`
	// StoreLossy flags a lossy (bitstate) store: state counts are lower
	// bounds and any verdict is "no violation found", never impossibility.
	StoreLossy bool `json:"store_lossy,omitempty"`
	// StorePageCacheHits counts spilled-payload reads served from the
	// store's decompressed-page cache (spill backend only). Together with
	// StoreSegmentReads (the misses) it gives the page-cache hit rate.
	StorePageCacheHits uint64 `json:"store_page_cache_hits,omitempty"`
	// StoreReadLat and StoreWriteLat are the spill backend's segment I/O
	// latency histograms: per-page decompress-read and compress-write.
	StoreReadLat  *HistSnap `json:"store_read_lat,omitempty"`
	StoreWriteLat *HistSnap `json:"store_write_lat,omitempty"`
	// PeakRSSBytes is the process's peak resident set size, sampled at
	// publish time. Process-wide and monotone, so it bounds every run in a
	// multi-run trace from above; zero on platforms without rusage.
	PeakRSSBytes int64 `json:"peak_rss_bytes,omitempty"`
	// GraphBytes is the memory the explored graph's layout holds (edge
	// chunks, row spans, label table, parent tree; state payloads
	// excluded), and ArenaBytes the part of it in the workers' edge
	// chunks. Final snapshots only; byte accounting, excluded from trace
	// digests.
	GraphBytes int64 `json:"graph_bytes,omitempty"`
	ArenaBytes int64 `json:"arena_bytes,omitempty"`

	// Phase-attribution profile (schema v3, present when the engine runs
	// with profiling enabled — any Stats or Sink installed). Pure timing:
	// excluded from trace digests, so worker-count invariance holds.

	// Phases is the run-wide aggregate across workers plus the
	// coordinator-only phases (store I/O, replay).
	Phases *Phases `json:"phases,omitempty"`
	// WorkerPhases[i] is worker i's own profile (final snapshots only).
	WorkerPhases []Phases `json:"worker_phases,omitempty"`
	// ExpandLat is the sampled per-state expansion latency histogram.
	ExpandLat *HistSnap `json:"expand_lat,omitempty"`
}

// Phases attributes a run's worker time to coarse engine phases, in
// nanoseconds. The coarse counters (Expand through Replay) are exact wall
// time measured at phase transitions; the Sample* counters are a
// 1-in-64-states sampling profile that splits expansion time into
// canonicalization and hash+intern without per-emission clock reads —
// scale them against each other (CanonFrac, InternFrac), not against the
// exact counters. All fields are timing, never structure: two runs of the
// same system agree on everything else and may differ arbitrarily here.
type Phases struct {
	// ExpandNs is time spent inside worker expansion loops: ExpandFunc
	// calls plus per-state bookkeeping (chunk claiming, span recording,
	// dedup, canon, intern — the sampled counters below split these out).
	ExpandNs int64 `json:"expand_ns,omitempty"`
	// BarrierWaitNs is time waiting at level barriers: the coordinator's
	// fork/join wait.
	BarrierWaitNs int64 `json:"barrier_wait_ns,omitempty"`
	// StoreIONs is coordinator time in store maintenance (segment spill
	// between levels). Worker-side segment reads during interning count as
	// expand time here; the store's own latency histograms isolate them.
	StoreIONs int64 `json:"store_io_ns,omitempty"`
	// ReplayNs is the sequential deterministic-replay pass that assigns
	// final IDs and edges.
	ReplayNs int64 `json:"replay_ns,omitempty"`

	// SampledStates counts the states profiled at fine grain (1 in 64).
	SampledStates uint64 `json:"sampled_states,omitempty"`
	// SampleExpandNs is the sampled states' total expansion time;
	// SampleCanonNs and SampleInternNs are the canonicalization and
	// hash+intern shares within it.
	SampleExpandNs int64 `json:"sample_expand_ns,omitempty"`
	SampleCanonNs  int64 `json:"sample_canon_ns,omitempty"`
	SampleInternNs int64 `json:"sample_intern_ns,omitempty"`
}

// Add accumulates o into p, field-wise.
func (p *Phases) Add(o Phases) {
	p.ExpandNs += o.ExpandNs
	p.BarrierWaitNs += o.BarrierWaitNs
	p.StoreIONs += o.StoreIONs
	p.ReplayNs += o.ReplayNs
	p.SampledStates += o.SampledStates
	p.SampleExpandNs += o.SampleExpandNs
	p.SampleCanonNs += o.SampleCanonNs
	p.SampleInternNs += o.SampleInternNs
}

// Zero reports whether no phase time has been recorded.
func (p Phases) Zero() bool { return p == Phases{} }

// TotalNs is the sum of the exact (non-sampled) phase counters.
func (p Phases) TotalNs() int64 {
	return p.ExpandNs + p.BarrierWaitNs + p.StoreIONs + p.ReplayNs
}

// CanonFrac estimates the fraction of expansion time spent canonicalizing,
// from the sampling profile. Zero when nothing was sampled.
func (p Phases) CanonFrac() float64 {
	if p.SampleExpandNs <= 0 {
		return 0
	}
	return float64(p.SampleCanonNs) / float64(p.SampleExpandNs)
}

// InternFrac estimates the fraction of expansion time spent hashing and
// interning successors, from the sampling profile.
func (p Phases) InternFrac() float64 {
	if p.SampleExpandNs <= 0 {
		return 0
	}
	return float64(p.SampleInternNs) / float64(p.SampleExpandNs)
}

// String renders the profile as one log line: exact phases with their
// share of TotalNs, then the sampled canon/intern split.
func (p Phases) String() string {
	total := p.TotalNs()
	if total <= 0 {
		return ""
	}
	var b strings.Builder
	frac := func(name string, ns int64) {
		if ns > 0 {
			fmt.Fprintf(&b, " %s=%s(%.0f%%)", name, time.Duration(ns).Round(time.Millisecond), 100*float64(ns)/float64(total))
		}
	}
	frac("expand", p.ExpandNs)
	frac("barrier", p.BarrierWaitNs)
	frac("store_io", p.StoreIONs)
	frac("replay", p.ReplayNs)
	if p.SampledStates > 0 {
		fmt.Fprintf(&b, " ~canon=%.0f%% ~intern=%.0f%% (n=%d sampled)",
			100*p.CanonFrac(), 100*p.InternFrac(), p.SampledStates)
	}
	return strings.TrimSpace(b.String())
}

// StatesPerSec is the run-average throughput, States / Elapsed.
func (p ProgressSnapshot) StatesPerSec() float64 {
	if secs := p.Elapsed.Seconds(); secs > 0 {
		return float64(p.States) / secs
	}
	return 0
}

// Rate is the windowed throughput between prev and p: Δstates / Δelapsed.
// It is the instantaneous figure a live display wants (a stuck frontier
// shows up here long before it dents the run average). Zero when the
// snapshots are not ordered or coincide.
func (p ProgressSnapshot) Rate(prev ProgressSnapshot) float64 {
	dt := (p.Elapsed - prev.Elapsed).Seconds()
	if dt <= 0 {
		return 0
	}
	return float64(p.States-prev.States) / dt
}

// Utilization is the worker-balance figure mean(WorkerSteps)/max(WorkerSteps),
// in (0, 1]: 1.0 means the frontier sharded perfectly evenly, lower values
// mean some workers idled. Zero when no worker has stepped yet.
func (p ProgressSnapshot) Utilization() float64 {
	var max, sum uint64
	for _, s := range p.WorkerSteps {
		sum += s
		if s > max {
			max = s
		}
	}
	if max == 0 {
		return 0
	}
	return float64(sum) / float64(len(p.WorkerSteps)) / float64(max)
}

// ReductionFactor is the live orbit reduction RawStates / States (zero
// unless RawStates is populated — final snapshots of canonicalizer runs).
func (p ProgressSnapshot) ReductionFactor() float64 {
	if p.RawStates == 0 || p.States == 0 {
		return 0
	}
	return float64(p.RawStates) / float64(p.States)
}

// ETA extrapolates the time remaining until the run hits MaxStates at the
// run-average rate — an upper bound on the time to completion, since most
// runs exhaust their space below the limit. Zero when MaxStates is unset,
// already reached, or no rate is measurable yet.
func (p ProgressSnapshot) ETA() time.Duration {
	rate := p.StatesPerSec()
	if p.MaxStates <= 0 || p.States >= p.MaxStates || rate <= 0 {
		return 0
	}
	return time.Duration(float64(p.MaxStates-p.States) / rate * float64(time.Second))
}

// String renders the snapshot as one log line.
func (p ProgressSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "states=%d depth=%d", p.States, p.Depth)
	if p.Frontier > 0 {
		fmt.Fprintf(&b, " frontier=%d", p.Frontier)
	}
	fmt.Fprintf(&b, " %s states/sec=%.0f", p.Elapsed.Round(time.Millisecond), p.StatesPerSec())
	if len(p.WorkerSteps) > 1 {
		fmt.Fprintf(&b, " util=%.0f%%", 100*p.Utilization())
	}
	if p.RawStates > 0 {
		fmt.Fprintf(&b, " raw=%d reduction=%.2fx", p.RawStates, p.ReductionFactor())
	}
	if p.DeferredActions > 0 {
		fmt.Fprintf(&b, " deferred=%d", p.DeferredActions)
	}
	if eta := p.ETA(); eta > 0 && !p.Final {
		fmt.Fprintf(&b, " eta(max)=%s", eta.Round(time.Second))
	}
	if p.Truncated {
		b.WriteString(" (truncated)")
	}
	if p.Final {
		b.WriteString(" (final)")
	}
	return b.String()
}

// Sink consumes telemetry events. Publish must be safe for concurrent
// calls (the engine publishes from the coordinator and from a monitor
// goroutine). It is synchronous and lossless: a slow sink slows its
// producer and never loses an event. Once Publish returns, the event and
// everything it points to belong to the caller again, so a sink that
// keeps a payload must copy it.
type Sink interface {
	Publish(ev Event)
}

// Publish forwards ev to sink, tolerating a nil sink. The nil branch is
// the engine's disabled-telemetry fast path: one comparison, zero
// allocations (asserted by TestNilSinkZeroAllocs).
func Publish(sink Sink, ev Event) {
	if sink != nil {
		sink.Publish(ev)
	}
}

// MultiSink fans every event out to each member, synchronously and in
// order.
type MultiSink []Sink

// Publish implements Sink.
func (m MultiSink) Publish(ev Event) {
	for _, s := range m {
		s.Publish(ev)
	}
}

// VCSVersion reports the build's VCS revision ("git describe"-grade
// provenance for run manifests): the short commit hash, "+dirty" when the
// working tree was modified, or "unknown" for builds without VCS stamping
// (go run from a non-repo, test binaries).
func VCSVersion() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
