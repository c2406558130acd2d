package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// profiledSnapshot builds a snapshot carrying every profiling payload the
// Prometheus view renders, so exposition tests exercise the full surface.
func profiledSnapshot() *ProgressSnapshot {
	var lat Hist
	lat.Observe(2000)
	lat.Observe(int64(time.Millisecond))
	snap := lat.Snapshot()
	return &ProgressSnapshot{
		States: 50, Depth: 3, Frontier: 10, PeakFrontier: 20,
		Expansions: 48, Elapsed: time.Second,
		WorkerSteps: []uint64{30, 18},
		Phases: &Phases{
			ExpandNs: 8e8, BarrierWaitNs: 1e8, ReplayNs: 1e8,
			SampledStates: 7, SampleExpandNs: 7000, SampleCanonNs: 1400, SampleInternNs: 2100,
		},
		ExpandLat:          &snap,
		StorePageCacheHits: 12,
		StoreReadLat:       &snap,
	}
}

func TestPrometheusExposition(t *testing.T) {
	m := NewManifest("obs-test")
	live := NewLive(&m)
	live.Publish(Event{Kind: KindRunStart, Config: &RunConfig{Workers: 2, MaxStates: 100, Inits: 1}})
	live.Publish(Event{Kind: KindSnapshot, Snapshot: profiledSnapshot()})
	live.Publish(Event{Kind: KindRTStart})
	live.Publish(Event{Kind: KindRTEvent, RT: &RuntimeEvent{Kind: "deliver"}})
	live.Publish(Event{Kind: KindRTEvent, RT: &RuntimeEvent{Kind: "drop"}})

	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "text/plain;version=0.0.4")
	rr := httptest.NewRecorder()
	live.ServeHTTP(rr, req)
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	body := rr.Body.String()
	for _, want := range []string{
		"# TYPE explore_states gauge",
		"explore_states 50",
		"explore_workers 2",
		`explore_worker_steps_total{worker="0"} 30`,
		`explore_phase_seconds_total{phase="expand"} 0.8`,
		`explore_phase_seconds_total{phase="barrier_wait"} 0.1`,
		"explore_sampled_states_total 7",
		"explore_canon_fraction 0.2",
		"explore_intern_fraction 0.3",
		"# TYPE explore_expand_latency_seconds histogram",
		"explore_expand_latency_seconds_count 2",
		"explore_store_page_cache_hits_total 12",
		"explore_store_read_latency_seconds_sum",
		"rt_runs_total 1",
		`rt_events_total{kind="deliver"} 1`,
		`rt_events_total{kind="drop"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	// Histogram buckets are cumulative and end with the canonical +Inf.
	if !strings.Contains(body, `explore_expand_latency_seconds_bucket{le="+Inf"} 2`) {
		t.Fatalf("histogram missing +Inf bucket:\n%s", body)
	}

	// ?format=prometheus forces the text view regardless of Accept.
	rr = httptest.NewRecorder()
	live.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	if !strings.Contains(rr.Body.String(), "explore_states 50") {
		t.Fatal("?format=prometheus did not force the text exposition")
	}

	// A browser-ish Accept keeps the JSON document.
	req = httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "*/*")
	rr = httptest.NewRecorder()
	live.ServeHTTP(rr, req)
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Accept */* got Content-Type %q, want application/json", ct)
	}
	if !json.Valid(rr.Body.Bytes()) {
		t.Fatal("JSON view is not valid JSON")
	}
}

func TestLiveConcurrentScrape(t *testing.T) {
	// The scrape-safety contract: /metrics may be hit, in both
	// representations, while a hot producer publishes — every response is
	// well-formed and no snapshot tears (run under -race in CI).
	live := NewLive(nil)
	stop := make(chan struct{})
	var producer, scrapers sync.WaitGroup
	producer.Add(1)
	go func() {
		defer producer.Done()
		var seq int
		for {
			select {
			case <-stop:
				return
			default:
			}
			seq++
			live.Publish(Event{Kind: KindRunStart, Config: &RunConfig{Workers: 4, MaxStates: 1000, Inits: 1}})
			s := profiledSnapshot()
			s.States = seq
			live.Publish(Event{Kind: KindSnapshot, Snapshot: s})
			live.Publish(Event{Kind: KindRunEnd, Snapshot: s})
		}
	}()

	for scraper := 0; scraper < 4; scraper++ {
		scrapers.Add(1)
		go func(prom bool) {
			defer scrapers.Done()
			for i := 0; i < 200; i++ {
				url := "/metrics"
				if prom {
					url += "?format=prometheus"
				}
				rr := httptest.NewRecorder()
				live.ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
				if prom {
					if !strings.Contains(rr.Body.String(), "explore_runs_total") {
						t.Errorf("prometheus scrape %d malformed:\n%s", i, rr.Body.String())
						return
					}
				} else if !json.Valid(rr.Body.Bytes()) {
					t.Errorf("JSON scrape %d is not valid JSON", i)
					return
				}
			}
		}(scraper%2 == 0)
	}
	// Scrapers exit after their fixed quota; then stop the producer.
	done := make(chan struct{})
	go func() { scrapers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent scrape deadlocked")
	}
	close(stop)
	producer.Wait()
}

// TestLiveCopiesPayloads holds Live to the Sink contract: the payloads it
// keeps are its own copies, so a producer may reuse or overwrite its
// events once Publish returns.
func TestLiveCopiesPayloads(t *testing.T) {
	live := NewLive(nil)
	cfg := &RunConfig{Workers: 2, MaxStates: 1000, Inits: 1}
	snap := profiledSnapshot()
	snap.WorkerPhases = []Phases{{ExpandNs: 5}, {ExpandNs: 6}}
	lat := *snap.ExpandLat
	summary := &RuntimeSummary{Events: 9, LocalSteps: 9, Quiesced: true, BatchLat: &lat}
	live.Publish(Event{Kind: KindRunStart, Config: cfg})
	live.Publish(Event{Kind: KindRunEnd, Snapshot: snap})
	live.Publish(Event{Kind: KindRTEnd, RTSummary: summary})
	kept := func() string {
		m := live.metrics()
		b, err := json.Marshal([]any{m.Config, m.Snapshot, m.Final, m.RTFinal})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	before := kept()

	*cfg = RunConfig{}
	snap.WorkerSteps[0], snap.WorkerPhases[0].ExpandNs, snap.Phases.ExpandNs = 0, 0, 0
	snap.ExpandLat.Counts[len(snap.ExpandLat.Counts)-1] = 99
	*snap = ProgressSnapshot{}
	summary.BatchLat.Count = 0
	*summary = RuntimeSummary{}
	if after := kept(); after != before {
		t.Errorf("Live's view changed with the producer's payloads:\nbefore %s\nafter  %s", before, after)
	}
}
