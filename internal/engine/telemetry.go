package engine

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// DefaultSnapshotEvery is the period of timer-driven progress snapshots
// when Options.Sink is set and Options.SnapshotEvery is zero.
const DefaultSnapshotEvery = time.Second

// telemetry is the engine side of the observability layer: the
// coordinator publishes deterministic events (run_start, one level event
// per barrier, truncated, run_end) synchronously, and a monitor goroutine
// publishes timer-driven snapshots built purely from concurrency-safe
// reads of the explorer — the store's length and stats, the per-worker
// step counters, the live phase aggregate — and the barrier-published
// aggregates below. The monitor reads nothing else of the explorer, so
// attaching a sink cannot perturb the exploration; the determinism tests
// assert byte-identical Results with and without one.
type telemetry struct {
	e         *explorer
	sink      obs.Sink
	start     time.Time
	maxStates int

	// Barrier-published live values: written by the coordinator between
	// levels, read by the monitor goroutine.
	depth        atomic.Int64
	frontier     atomic.Int64
	peakFrontier atomic.Int64
	dedup        atomic.Uint64
	canonHits    atomic.Uint64
	ample        atomic.Uint64
	deferred     atomic.Uint64

	stop chan struct{}
	done chan struct{}
}

// newTelemetry wires a telemetry for one Explore run of e and publishes
// its run_start event.
func newTelemetry(e *explorer, sink obs.Sink, start time.Time, maxStates, inits int, storeCfg store.Config) *telemetry {
	t := &telemetry{e: e, sink: sink, start: start, maxStates: maxStates}
	cfg := &obs.RunConfig{
		Workers:   len(e.workers),
		MaxStates: maxStates,
		Inits:     inits,
		Canon:     e.canon != nil,
		POR:       e.indep != nil,
		Store:     string(storeCfg.ResolvedKind()),
	}
	if storeCfg.ResolvedKind() == store.Spill {
		cfg.MaxStoreBytes = storeCfg.MaxBytes
		if cfg.MaxStoreBytes == 0 {
			cfg.MaxStoreBytes = store.DefaultMaxBytes
		}
	}
	sink.Publish(obs.Event{Kind: obs.KindRunStart, Config: cfg})
	return t
}

// startMonitor launches the snapshot goroutine. every <= 0 disables it
// (barrier and final events are still published).
func (t *telemetry) startMonitor(every time.Duration) {
	if every <= 0 {
		return
	}
	t.stop = make(chan struct{})
	t.done = make(chan struct{})
	go func() {
		defer close(t.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
				snap := t.snapshot(t.e.store.Len(), int(t.depth.Load()), int(t.frontier.Load()), int(t.peakFrontier.Load()))
				t.sink.Publish(obs.Event{Kind: obs.KindSnapshot, Snapshot: &snap})
			}
		}
	}()
}

// stopMonitor halts the snapshot goroutine and waits for it, so no event
// can trail the run_end the coordinator publishes next. Idempotent.
func (t *telemetry) stopMonitor() {
	if t.stop == nil {
		return
	}
	select {
	case <-t.stop:
	default:
		close(t.stop)
	}
	<-t.done
}

// snapshot assembles a progress snapshot around the caller's States,
// Depth, Frontier and PeakFrontier: the live counters for a timer-driven
// snapshot, the barrier's exact figures for a level or truncated event.
// Everything else comes from atomics. The per-edge counters (dedup, canon,
// POR) are barrier-fresh; WorkerSteps, Elapsed and the store, peak-RSS and
// phase figures are live and scheduling-dependent, so trace digests
// exclude them, and at a barrier every digested counter is exact and
// worker-count-invariant.
func (t *telemetry) snapshot(states, depth, frontier, peak int) obs.ProgressSnapshot {
	steps := make([]uint64, len(t.e.workers))
	var exp uint64
	for i, ws := range t.e.workers {
		steps[i] = ws.steps.Load()
		exp += steps[i]
	}
	snap := obs.ProgressSnapshot{
		Elapsed:         time.Since(t.start),
		States:          states,
		Depth:           depth,
		Frontier:        frontier,
		PeakFrontier:    peak,
		Expansions:      exp,
		DedupHits:       t.dedup.Load(),
		CanonHits:       t.canonHits.Load(),
		AmpleStates:     t.ample.Load(),
		DeferredActions: t.deferred.Load(),
		WorkerSteps:     steps,
		MaxStates:       t.maxStates,
	}
	stampStore(&snap, t.e.store.Stats())
	snap.PeakRSSBytes = obs.PeakRSS()
	if ph, lat := t.e.livePhases(); !ph.Zero() {
		snap.Phases = &ph
		snap.ExpandLat = lat
	}
	return snap
}

// stampStore copies the store figures into a snapshot; telemetry snapshots
// and Stats.Snapshot share it.
func stampStore(snap *obs.ProgressSnapshot, ss store.Stats) {
	snap.StoreBytesInRAM = ss.BytesInRAM
	snap.StoreBytesSpilled = ss.BytesSpilled
	snap.StoreSegments = ss.Segments
	snap.StoreSegmentReads = ss.SegmentReads
	snap.StoreCollisionConfirms = ss.CollisionConfirms
	snap.StorePageCacheHits = ss.PageCacheHits
	if ss.ReadLat.Count > 0 {
		rl := ss.ReadLat
		snap.StoreReadLat = &rl
	}
	if ss.WriteLat.Count > 0 {
		wl := ss.WriteLat
		snap.StoreWriteLat = &wl
	}
	snap.StoreLossy = ss.Lossy
}

// level is the coordinator's barrier hook: it refreshes the
// barrier-published aggregates from the (quiescent) workers and publishes
// the level event. frontier is the size of the next level about to start.
func (t *telemetry) level(states, depth, frontier, peak int) {
	var dedup, canon, ample, deferred uint64
	for _, ws := range t.e.workers {
		dedup += ws.dedup
		canon += ws.canonHits
		ample += ws.ampleStates
		deferred += ws.deferred
	}
	t.dedup.Store(dedup)
	t.canonHits.Store(canon)
	t.ample.Store(ample)
	t.deferred.Store(deferred)
	t.depth.Store(int64(depth))
	t.frontier.Store(int64(frontier))
	t.peakFrontier.Store(int64(peak))
	snap := t.snapshot(states, depth, frontier, peak)
	t.sink.Publish(obs.Event{Kind: obs.KindLevel, Snapshot: &snap})
}

// truncated publishes the limit-trip event.
func (t *telemetry) truncated(states, depth, peak int) {
	snap := t.snapshot(states, depth, 0, peak)
	snap.Truncated = true
	t.sink.Publish(obs.Event{Kind: obs.KindTruncated, Snapshot: &snap})
}

// runEnd stops the monitor and publishes the final snapshot, whose totals
// equal the run's Stats by construction (both come from Stats.Snapshot).
func (t *telemetry) runEnd(st Stats) {
	t.stopMonitor()
	snap := st.Snapshot()
	snap.MaxStates = t.maxStates
	t.sink.Publish(obs.Event{Kind: obs.KindRunEnd, Snapshot: &snap})
}
