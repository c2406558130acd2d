package obs

import (
	"fmt"
	"io"
)

// TraceSummary is ValidateTrace's account of a well-formed trace.
type TraceSummary struct {
	// SchemaVersion and Tool echo the manifest.
	SchemaVersion int
	Tool          string
	// Events counts event lines (the manifest excluded).
	Events int
	// Runs counts run_start/run_end pairs.
	Runs int
	// Levels counts per-barrier level events (the deterministic progress
	// record; present however fast the run was).
	Levels int
	// Snapshots counts timer-driven snapshot events.
	Snapshots int
	// FinalStates[i] is run i's final state count (from its run_end).
	FinalStates []int
	// RTRuns counts rt_start/rt_end pairs (live runtime runs) and RTEvents
	// their scheduled actions.
	RTRuns   int
	RTEvents int
	// Digest is the deterministic-event digest recomputed from the file;
	// it equals a Digest subscribed beside the producing TraceWriter, such
	// as the one SetupCLI reports.
	Digest string
}

// ValidateTrace checks a JSONL trace against the schema: a current-version
// manifest first; then events with known kinds, strictly increasing
// sequence numbers, and correctly nested runs (run_start opens, run_end
// with a final snapshot closes, nothing outside a run); snapshot-carrying
// events must have a snapshot payload whose counters are internally
// consistent (Expansions equals the worker-step sum when worker steps are
// present, monotone non-decreasing States/Depth within a run). Store
// telemetry, when present, must cohere with the run's configured backend:
// spill counters only under a spill store, the lossy flag exactly under a
// bitstate store. Traces from before the store fields existed carry all
// zeros there and lint clean.
//
// Runtime runs (schema v2) follow the same nesting discipline: rt_start
// opens with a well-formed RuntimeConfig (probabilities in [0,1], positive
// procs/batch/budget), rt_events carry known kinds with consecutive
// 1-based indices and in-range process references, and rt_end's summary
// totals must account exactly for the observed events. Exploration and
// runtime runs may share a file sequentially, never interleaved. The
// per-event elapsed_ns stamp (schema v3) must be non-decreasing across the
// file, and phase profiles, when present, must carry non-negative
// counters. It returns a summary, or the first violation with its line
// number.
func ValidateTrace(r io.Reader) (*TraceSummary, error) {
	fail := func(line int, format string, args ...any) error {
		return fmt.Errorf("trace line %d: %s", line, fmt.Sprintf(format, args...))
	}
	sum := &TraceSummary{}
	digest := NewDigest()
	var (
		lastSeq             uint64
		lastElapsed         int64
		inRun               bool
		runStates, runDepth int
		runCfg              RunConfig
		inRT                bool
		rtCfg               RuntimeConfig
		rtSeen              runtimeTally
	)
	m, err := scanTrace(r, true, func(line int, ev Event) error {
		sum.Events++
		if ev.Seq <= lastSeq {
			return fail(line, "seq %d is not strictly increasing (previous %d)", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		// elapsed_ns (schema v3) is stamped under the writer's lock from a
		// monotonic clock, so within one file it never decreases. Traces
		// from before the field carry zeros throughout, which pass trivially.
		if ev.ElapsedNs < lastElapsed {
			return fail(line, "elapsed_ns regressed %d -> %d", lastElapsed, ev.ElapsedNs)
		}
		lastElapsed = ev.ElapsedNs

		switch ev.Kind {
		case KindRunStart:
			if inRun {
				return fail(line, "run_start inside an open run")
			}
			if inRT {
				return fail(line, "run_start inside an open runtime run")
			}
			if ev.Config == nil {
				return fail(line, "run_start without a config payload")
			}
			if ev.Config.Workers <= 0 || ev.Config.MaxStates <= 0 || ev.Config.Inits <= 0 {
				return fail(line, "run_start config has non-positive workers/max_states/inits: %+v", *ev.Config)
			}
			switch ev.Config.Store {
			case "", "mem", "spill", "bitstate":
			default:
				return fail(line, "run_start config names unknown store backend %q", ev.Config.Store)
			}
			if ev.Config.MaxStoreBytes < 0 {
				return fail(line, "run_start config has negative max_store_bytes %d", ev.Config.MaxStoreBytes)
			}
			inRun, runStates, runDepth, runCfg = true, 0, 0, *ev.Config
		case KindLevel, KindSnapshot, KindTruncated, KindRunEnd:
			if inRT {
				return fail(line, "%s event inside a runtime run", ev.Kind)
			}
			if !inRun {
				return fail(line, "%s event outside a run", ev.Kind)
			}
			s := ev.Snapshot
			if s == nil {
				return fail(line, "%s event without a snapshot payload", ev.Kind)
			}
			if s.States < 0 || s.Depth < 0 || s.Frontier < 0 {
				return fail(line, "snapshot has negative counters: %+v", *s)
			}
			if s.StoreBytesInRAM < 0 || s.StoreBytesSpilled < 0 || s.StoreSegments < 0 || s.PeakRSSBytes < 0 {
				return fail(line, "snapshot has negative store/RSS counters: %+v", *s)
			}
			if s.GraphBytes < 0 || s.ArenaBytes < 0 {
				return fail(line, "snapshot has negative graph/arena byte counts: %+v", *s)
			}
			if p := s.Phases; p != nil {
				if p.ExpandNs < 0 || p.BarrierWaitNs < 0 || p.StoreIONs < 0 || p.ReplayNs < 0 ||
					p.SampleExpandNs < 0 || p.SampleCanonNs < 0 || p.SampleInternNs < 0 {
					return fail(line, "snapshot phase profile has negative counters: %+v", *p)
				}
			}
			if (s.StoreBytesSpilled > 0) != (s.StoreSegments > 0) {
				return fail(line, "spill accounting disagrees: %d bytes across %d segments",
					s.StoreBytesSpilled, s.StoreSegments)
			}
			if s.StoreSegments > 0 && runCfg.Store != "spill" {
				return fail(line, "segments written under store backend %q", runCfg.Store)
			}
			if s.StoreLossy != (runCfg.Store == "bitstate") && ev.Kind == KindRunEnd {
				return fail(line, "run_end lossy flag %v under store backend %q", s.StoreLossy, runCfg.Store)
			}
			if len(s.WorkerSteps) > 0 {
				var steps uint64
				for _, w := range s.WorkerSteps {
					steps += w
				}
				if steps != s.Expansions {
					return fail(line, "snapshot expansions %d != worker-step sum %d", s.Expansions, steps)
				}
			}
			// Timer-driven snapshots may race one barrier behind the live
			// state counter; monotonicity is only promised barrier-to-barrier.
			if ev.Kind != KindSnapshot {
				if s.States < runStates {
					return fail(line, "states regressed %d -> %d within a run", runStates, s.States)
				}
				if s.Depth < runDepth {
					return fail(line, "depth regressed %d -> %d within a run", runDepth, s.Depth)
				}
				runStates, runDepth = s.States, s.Depth
			}
			switch ev.Kind {
			case KindLevel:
				sum.Levels++
			case KindSnapshot:
				sum.Snapshots++
			case KindRunEnd:
				if !s.Final {
					return fail(line, "run_end snapshot is not marked final")
				}
				sum.Runs++
				sum.FinalStates = append(sum.FinalStates, s.States)
				inRun = false
			}
		case KindRTStart:
			if inRun || inRT {
				return fail(line, "rt_start inside an open run")
			}
			c := ev.RTConfig
			if c == nil {
				return fail(line, "rt_start without a config payload")
			}
			if c.Workload == "" {
				return fail(line, "rt_start config has no workload name")
			}
			if c.Procs <= 0 || c.Batch <= 0 || c.MaxEvents <= 0 {
				return fail(line, "rt_start config has non-positive procs/batch/max_events: %+v", *c)
			}
			if bad(c.Drop) || bad(c.Dup) || bad(c.Crash) {
				return fail(line, "rt_start config probability outside [0,1]: drop=%g dup=%g crash=%g",
					c.Drop, c.Dup, c.Crash)
			}
			if c.Delay < 0 || c.RestartAfter < 0 {
				return fail(line, "rt_start config has negative delay/restart_after: %+v", *c)
			}
			inRT, rtCfg, rtSeen = true, *c, runtimeTally{}
		case KindRTEvent:
			if !inRT {
				return fail(line, "rt_event outside a runtime run")
			}
			e := ev.RT
			if e == nil {
				return fail(line, "rt_event without a payload")
			}
			if e.Event != rtSeen.events+1 {
				return fail(line, "rt_event index %d, want %d (consecutive 1-based)", e.Event, rtSeen.events+1)
			}
			if e.To < 0 || e.To >= rtCfg.Procs {
				return fail(line, "rt_event targets process %d outside [0,%d)", e.To, rtCfg.Procs)
			}
			if e.From < -1 || e.From >= rtCfg.Procs || e.Actor < -1 {
				return fail(line, "rt_event has out-of-range from=%d actor=%d", e.From, e.Actor)
			}
			switch e.Kind {
			case RTDeliver:
				rtSeen.deliveries++
			case RTLocal:
				rtSeen.locals++
			case RTDrop:
				rtSeen.drops++
			case RTDup:
				rtSeen.dups++
			case RTCrash:
				rtSeen.crashes++
			case RTRestart:
				rtSeen.restarts++
			default:
				return fail(line, "unknown runtime event kind %q", e.Kind)
			}
			rtSeen.events++
			sum.RTEvents++
		case KindRTEnd:
			if !inRT {
				return fail(line, "rt_end outside a runtime run")
			}
			s := ev.RTSummary
			if s == nil {
				return fail(line, "rt_end without a summary payload")
			}
			want := runtimeTally{
				events: s.Events, deliveries: s.Deliveries, locals: s.LocalSteps,
				drops: s.Drops, dups: s.Dups, crashes: s.Crashes, restarts: s.Restarts,
			}
			if want != rtSeen {
				return fail(line, "rt_end totals %+v disagree with observed events %+v", want, rtSeen)
			}
			if s.Pending < 0 || s.Halted < 0 || s.Halted > rtCfg.Procs {
				return fail(line, "rt_end has out-of-range pending=%d halted=%d", s.Pending, s.Halted)
			}
			if s.Quiesced && s.Pending > 0 {
				return fail(line, "rt_end claims quiescence with %d actions pending", s.Pending)
			}
			sum.RTRuns++
			inRT = false
		default:
			return fail(line, "unknown event kind %q", ev.Kind)
		}
		digest.Publish(ev)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sum.SchemaVersion, sum.Tool = m.SchemaVersion, m.Tool
	if inRun {
		return nil, fmt.Errorf("trace ends inside an open run (missing run_end)")
	}
	if inRT {
		return nil, fmt.Errorf("trace ends inside an open runtime run (missing rt_end)")
	}
	if sum.Runs == 0 && sum.RTRuns == 0 {
		return nil, fmt.Errorf("trace contains no completed runs")
	}
	sum.Digest = digest.Sum()
	return sum, nil
}

// runtimeTally accumulates per-kind rt_event counts inside one runtime run
// so rt_end's summary can be checked against what was actually observed.
type runtimeTally struct {
	events, deliveries, locals, drops, dups, crashes, restarts int
}

// bad reports whether p is outside [0,1] (not a probability).
func bad(p float64) bool { return p < 0 || p > 1 }

// firstOf renders err when non-nil, else the fallback format.
func firstOf(err error, format string, args ...any) string {
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf(format, args...)
}
