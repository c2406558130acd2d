package engine

import (
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// collectSink records every event, concurrency-safe (the engine publishes
// from the coordinator and the monitor goroutine).
type collectSink struct {
	mu  sync.Mutex
	evs []obs.Event
}

func (c *collectSink) Publish(ev obs.Event) {
	c.mu.Lock()
	c.evs = append(c.evs, ev)
	c.mu.Unlock()
}

func (c *collectSink) events() []obs.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]obs.Event(nil), c.evs...)
}

// telemetryModes is the mode grid the observation-invariance tests sweep —
// the same vocabulary Differential uses.
func telemetryModes() map[string]Options {
	return map[string]Options{
		"full":  {},
		"canon": {Canon: mirrorGridCanon},
		"por":   {Independent: gridIndep},
		"canon+por": {
			Canon:       mirrorGridCanon,
			Independent: gridIndep,
		},
	}
}

// TestSinkDoesNotPerturbResults is the passive-observation contract: under
// every mode and worker count, the Result with a sink attached is
// byte-identical to the Result without one, and the deterministic trace
// digest is identical across worker counts within a mode.
func TestSinkDoesNotPerturbResults(t *testing.T) {
	const n = 16
	for mode, base := range telemetryModes() {
		var refDigest string
		for _, workers := range []int{1, 2, 8} {
			bare := base
			bare.Parallelism = workers
			plain, err := Explore([]string{"0,0"}, gridExpand(n), bare)
			if err != nil {
				t.Fatalf("%s/w%d without sink: %v", mode, workers, err)
			}

			observed := base
			observed.Parallelism = workers
			dig := obs.NewDigest()
			sink := &collectSink{}
			observed.Sink = obs.MultiSink{sink, dig}
			observed.SnapshotEvery = -1 // deterministic events only
			traced, err := Explore([]string{"0,0"}, gridExpand(n), observed)
			if err != nil {
				t.Fatalf("%s/w%d with sink: %v", mode, workers, err)
			}
			mustEqualResults(t, mode+" observed vs bare", plain, traced)

			if refDigest == "" {
				refDigest = dig.Sum()
			} else if dig.Sum() != refDigest {
				t.Fatalf("%s: digest diverged across worker counts: %s vs %s (workers=%d)",
					mode, dig.Sum(), refDigest, workers)
			}
			if len(sink.events()) == 0 {
				t.Fatalf("%s/w%d: sink saw no events", mode, workers)
			}
		}
	}
}

// TestDigestSeparatesModes: reductions change the level structure, so the
// digest must tell the modes apart (that is what makes it useful as a
// trace fingerprint in divergence reports).
func TestDigestSeparatesModes(t *testing.T) {
	const n = 16
	sums := map[string]string{}
	for mode, base := range telemetryModes() {
		dig := obs.NewDigest()
		base.Sink = dig
		base.SnapshotEvery = -1
		if _, err := Explore([]string{"0,0"}, gridExpand(n), base); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		sums[mode] = dig.Sum()
	}
	seen := map[string]string{}
	for mode, sum := range sums {
		if prev, dup := seen[sum]; dup {
			t.Fatalf("modes %s and %s share digest %s", prev, mode, sum)
		}
		seen[sum] = mode
	}
}

// TestTelemetryEventStream checks the event protocol: run_start first
// (with the resolved config), one level event per completed BFS level with
// monotone depth, and a final run_end whose snapshot totals equal the
// returned Stats.
func TestTelemetryEventStream(t *testing.T) {
	const n = 12
	sink := &collectSink{}
	res, err := Explore([]string{"0,0"}, gridExpand(n), Options{
		Parallelism: 4, Sink: sink, SnapshotEvery: -1,
	})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	evs := sink.events()
	if len(evs) < 3 {
		t.Fatalf("got %d events, want at least run_start + levels + run_end", len(evs))
	}
	first, last := evs[0], evs[len(evs)-1]
	if first.Kind != obs.KindRunStart || first.Config == nil {
		t.Fatalf("first event = %+v, want run_start with config", first)
	}
	if first.Config.Workers != 4 || first.Config.Inits != 1 || first.Config.MaxStates != DefaultMaxStates {
		t.Fatalf("run_start config = %+v", *first.Config)
	}
	depth := -1
	levels := 0
	for _, ev := range evs[1 : len(evs)-1] {
		if ev.Kind != obs.KindLevel {
			t.Fatalf("mid-stream event kind %s, want level", ev.Kind)
		}
		if ev.Snapshot.Depth <= depth {
			t.Fatalf("level depth not increasing: %d after %d", ev.Snapshot.Depth, depth)
		}
		depth = ev.Snapshot.Depth
		levels++
	}
	// The grid explores one level per diagonal: 2n-1 levels, the last of
	// which finds no new states.
	if levels != 2*n-1 {
		t.Fatalf("saw %d level events, want %d", levels, 2*n-1)
	}
	if last.Kind != obs.KindRunEnd {
		t.Fatalf("last event = %s, want run_end", last.Kind)
	}
	snap := last.Snapshot
	if snap == nil || !snap.Final {
		t.Fatalf("run_end snapshot = %+v, want final", snap)
	}
	st := res.Stats
	if snap.States != st.States || snap.Edges != st.Edges || snap.Depth != st.Depth ||
		snap.Expansions != st.Expansions || snap.DedupHits != st.DedupHits ||
		snap.PeakFrontier != st.PeakFrontier || snap.Truncated != st.Truncated {
		t.Fatalf("run_end totals %+v != returned stats %+v", *snap, st)
	}
	if len(snap.WorkerSteps) != len(st.WorkerSteps) {
		t.Fatalf("run_end worker steps %v != stats %v", snap.WorkerSteps, st.WorkerSteps)
	}
}

// TestTelemetryTruncated: the limit trip publishes a truncated event before
// run_end, and both carry Truncated.
func TestTelemetryTruncated(t *testing.T) {
	sink := &collectSink{}
	res, err := Explore([]string{"0,0"}, gridExpand(64), Options{
		MaxStates: 100, Sink: sink, SnapshotEvery: -1,
	})
	if !errors.Is(err, ErrStateLimit) {
		t.Fatalf("err = %v, want ErrStateLimit", err)
	}
	if !res.Truncated {
		t.Fatal("expected a truncated result")
	}
	evs := sink.events()
	var sawTruncated bool
	for _, ev := range evs {
		if ev.Kind == obs.KindTruncated {
			sawTruncated = true
			if !ev.Snapshot.Truncated {
				t.Fatal("truncated event's snapshot not marked truncated")
			}
		}
	}
	if !sawTruncated {
		t.Fatal("no truncated event published")
	}
	last := evs[len(evs)-1]
	if last.Kind != obs.KindRunEnd || !last.Snapshot.Truncated {
		t.Fatalf("last event = %+v, want truncated run_end", last)
	}
}

// TestMonitorSnapshotsDuringExploration is the -race regression for the
// live-read paths: a fast monitor publishes timer snapshots (reading the
// interned-state counter and the per-worker step counters, which workers
// are concurrently incrementing) while external readers hammer snapshot
// formatting and the /metrics endpoint. Before worker.steps became atomic
// this raced; mid-run engine.Stats reads were never supported — the
// snapshot stream asserted race-free here is the replacement.
func TestMonitorSnapshotsDuringExploration(t *testing.T) {
	live := obs.NewLive(nil)
	sink := &collectSink{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rr := httptest.NewRecorder()
			live.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
			for _, ev := range sink.events() {
				if ev.Snapshot != nil {
					_ = ev.Snapshot.String()
					_ = ev.Snapshot.Utilization()
				}
			}
		}
	}()
	for i := 0; i < 3; i++ {
		res, err := Explore([]string{"0,0"}, gridExpand(48), Options{
			Parallelism:   8,
			Sink:          obs.MultiSink{live, sink},
			SnapshotEvery: 50 * time.Microsecond,
		})
		if err != nil {
			t.Fatalf("Explore: %v", err)
		}
		_ = res.Stats.String() // the post-run read is always safe
	}
	close(stop)
	wg.Wait()
}

// TestSnapshotEveryDefault: zero means DefaultSnapshotEvery, negative
// disables the monitor entirely; both still publish the deterministic
// skeleton.
func TestSnapshotEveryDefault(t *testing.T) {
	sink := &collectSink{}
	if _, err := Explore([]string{"0,0"}, gridExpand(6), Options{Sink: sink}); err != nil {
		t.Fatalf("Explore: %v", err)
	}
	evs := sink.events()
	// A millisecond-scale run cannot tick a 1s timer: every event must be
	// deterministic, and the skeleton must be complete.
	for _, ev := range evs {
		if ev.Kind == obs.KindSnapshot {
			t.Fatalf("unexpected timer snapshot on a sub-second run")
		}
	}
	if evs[0].Kind != obs.KindRunStart || evs[len(evs)-1].Kind != obs.KindRunEnd {
		t.Fatalf("incomplete event skeleton: first=%s last=%s", evs[0].Kind, evs[len(evs)-1].Kind)
	}
}
