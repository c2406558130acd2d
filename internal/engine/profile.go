package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Phase-attribution profiling. Enabled whenever the caller can observe the
// result (Options.Stats or Options.Sink installed); with neither, every
// worker's prof pointer stays nil and no clock is read. The design keeps
// clock reads off the per-state hot path:
//
//   - Coarse counters (expand, barrier-wait) are read per level, never per
//     state: a worker times its whole expand loop for the level as one
//     interval, and the coordinator times its wait at the level barrier.
//   - The fine canon/intern split inside expansion time is *sampled*: one
//     state in 64 (by provisional id) is timed end-to-end, and its
//     canonicalization and hash+intern sections time themselves through
//     the worker's clock/lap helpers. Every emit route runs those same
//     sections; off a sampled state each costs one predictable branch and
//     no clock read. Sample counters are reported raw (obs.Phases.Sample*)
//     so consumers scale them against each other.
//   - Coordinator-only phases (store maintenance, replay) are timed
//     directly around their calls.
//
// Everything recorded here is timing, never structure: profiles are
// excluded from trace digests and from diffStats, so the determinism
// contract (byte-identical results at any worker count, with or without
// profiling) is untouched. The overhead contract is the obs layer's ≤3%;
// measured figures live in EXPERIMENTS.md.

// Phase-clock indices (phaseProf.counters).
const (
	phExpand = iota
	phBarrier
	phCount
)

// Fine-sampled section indices (phaseProf.sections): the two sections of
// a successor's route into the store that the sampled fractions split out
// of the sampled expansion time.
const (
	sampleCanon = iota
	sampleIntern
	sampleSections
)

// profSampleMask selects 1 state in 64 (provisional id & mask == 0) for
// fine-grained timing. Provisional ids are scheduling-dependent, which is
// fine: the sample population varies run to run, the reported fractions
// converge, and nothing digest-relevant depends on them.
const profSampleMask = 63

// phaseProf is one worker's phase profile. The counters are atomics so
// the telemetry monitor can read mid-run; last (the expand-loop clock) is
// owned by the worker's current goroutine and never read elsewhere.
type phaseProf struct {
	counters [phCount]atomic.Int64
	last     time.Time

	sampled      atomic.Uint64
	sampleExpand atomic.Int64
	sections     [sampleSections]atomic.Int64
	expandLat    obs.Hist
}

// start begins timing a worker's expand loop (once per level).
func (p *phaseProf) start() { p.last = time.Now() }

// flush folds the time since start into the expand phase (loop exit).
func (p *phaseProf) flush() { p.counters[phExpand].Add(int64(time.Since(p.last))) }

// noteSample records one fine-sampled state's end-to-end expansion time.
func (p *phaseProf) noteSample(d time.Duration) {
	ns := int64(d)
	p.sampled.Add(1)
	p.sampleExpand.Add(ns)
	p.expandLat.Observe(ns)
}

// clock reads the sample clock: the current time while the worker's
// current expansion is fine-sampled, the zero Time (and no clock read)
// otherwise. Safe on unprofiled workers, which never sample.
func (ws *worker[S]) clock() time.Time {
	if !ws.profSampling {
		return time.Time{}
	}
	return time.Now()
}

// lap closes one timed section that began at t (a clock reading), adding
// its duration to the worker's sample counter for section, and returns
// the reading that starts the next section. Outside a fine-sampled
// expansion it reads no clock and records nothing.
func (ws *worker[S]) lap(section int, t time.Time) time.Time {
	if !ws.profSampling {
		return t
	}
	return ws.prof.lap(section, t)
}

// lap is worker.lap's sampled half, kept out of line so the guard inlines.
func (p *phaseProf) lap(section int, t time.Time) time.Time {
	now := time.Now()
	p.sections[section].Add(int64(now.Sub(t)))
	return now
}

// snapshot renders the worker's counters as an obs.Phases (coordinator
// phases excluded; collectPhases adds those to the aggregate only).
func (p *phaseProf) snapshot() obs.Phases {
	return obs.Phases{
		ExpandNs:       p.counters[phExpand].Load(),
		BarrierWaitNs:  p.counters[phBarrier].Load(),
		SampledStates:  p.sampled.Load(),
		SampleExpandNs: p.sampleExpand.Load(),
		SampleCanonNs:  p.sections[sampleCanon].Load(),
		SampleInternNs: p.sections[sampleIntern].Load(),
	}
}

// waitBarrier is the coordinator's fork/join wait, attributed to the
// coordinating worker's barrier phase (nil-tolerant for unprofiled runs).
func waitBarrier(p *phaseProf, wg *sync.WaitGroup) {
	if p == nil {
		wg.Wait()
		return
	}
	t := time.Now()
	wg.Wait()
	p.counters[phBarrier].Add(int64(time.Since(t)))
}

// profiled reports whether this run records phases.
func (e *explorer[S]) profiled() bool { return e.workers[0].prof != nil }

// maintainStore wraps store.Maintain with store-I/O attribution.
func (e *explorer[S]) maintainStore(keepFrom int32) error {
	if !e.profiled() {
		return e.store.Maintain(keepFrom)
	}
	t := time.Now()
	err := e.store.Maintain(keepFrom)
	e.profStoreIO.Add(int64(time.Since(t)))
	return err
}

// replayTimed wraps the sequential replay pass with its attribution.
func (e *explorer[S]) replayTimed(initIDs []int32, limit, expanded, maxEdges int) (*Result[S], error) {
	if !e.profiled() {
		return e.replay(initIDs, limit, expanded, maxEdges)
	}
	t := time.Now()
	res, err := e.replay(initIDs, limit, expanded, maxEdges)
	e.profReplay.Add(int64(time.Since(t)))
	return res, err
}

// livePhases is the telemetry monitor's mid-run aggregate view: worker
// counters summed, coordinator phases added, plus the merged sampled
// expansion-latency histogram (nil while empty). Reads only atomics, so it
// is safe against running workers; in-flight phase intervals are simply
// not yet folded in.
func (e *explorer[S]) livePhases() (obs.Phases, *obs.HistSnap) {
	var agg obs.Phases
	var lat obs.HistSnap
	if !e.profiled() {
		return agg, nil
	}
	for _, ws := range e.workers {
		agg.Add(ws.prof.snapshot())
		lat.Add(ws.prof.expandLat.Snapshot())
	}
	agg.StoreIONs = e.profStoreIO.Load()
	agg.ReplayNs = e.profReplay.Load()
	if lat.Count == 0 {
		return agg, nil
	}
	return agg, &lat
}

// collectPhases fills st's final phase profile: per-worker breakdowns,
// the run-wide aggregate, and the merged sampled-latency histogram.
func (e *explorer[S]) collectPhases(st *Stats) {
	if !e.profiled() {
		return
	}
	var agg obs.Phases
	var lat obs.HistSnap
	for _, ws := range e.workers {
		p := ws.prof.snapshot()
		st.WorkerPhases = append(st.WorkerPhases, p)
		agg.Add(p)
		lat.Add(ws.prof.expandLat.Snapshot())
	}
	agg.StoreIONs = e.profStoreIO.Load()
	agg.ReplayNs = e.profReplay.Load()
	st.Phases = agg
	st.ExpandLat = lat
}
