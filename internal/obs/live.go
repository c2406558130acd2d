package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"slices"
	"strings"
	"sync"
	"time"
)

// Live is a Sink that retains the latest state of the event stream for
// the -serve debug endpoint: the current run's config, the most recent
// snapshot, and expvar-style event counters. It is the read model behind
// /metrics. Publish copies the payloads it keeps under a short lock; an
// rt_event only bumps a counter.
type Live struct {
	mu        sync.RWMutex
	manifest  *Manifest
	config    *RunConfig
	last      *ProgressSnapshot
	final     *ProgressSnapshot
	runs      int
	events    uint64
	snapshots uint64
	rtRuns    int
	rtEvents  map[string]uint64
	rtFinal   *RuntimeSummary
	started   time.Time
}

// NewLive returns a Live sink, optionally carrying the producer's
// manifest (shown by /metrics for provenance).
func NewLive(m *Manifest) *Live {
	return &Live{manifest: m, started: time.Now()}
}

// Publish implements Sink.
func (l *Live) Publish(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events++
	switch ev.Kind {
	case KindRunStart:
		l.runs++
		l.config = clone(ev.Config)
		l.last, l.final = nil, nil
	case KindSnapshot:
		l.snapshots++
		l.last = cloneSnapshot(ev.Snapshot)
	case KindLevel, KindTruncated:
		l.last = cloneSnapshot(ev.Snapshot)
	case KindRunEnd:
		l.last = cloneSnapshot(ev.Snapshot)
		l.final = l.last
	case KindRTStart:
		l.rtRuns++
	case KindRTEvent:
		if ev.RT != nil {
			if l.rtEvents == nil {
				l.rtEvents = make(map[string]uint64)
			}
			l.rtEvents[ev.RT.Kind]++
		}
	case KindRTEnd:
		if l.rtFinal = clone(ev.RTSummary); l.rtFinal != nil {
			l.rtFinal.BatchLat = cloneHist(l.rtFinal.BatchLat)
		}
	}
}

// clone returns a copy of *p, or nil. Live keeps payloads past Publish,
// when they belong to the producer again (see Sink).
func clone[T any](p *T) *T {
	if p == nil {
		return nil
	}
	c := *p
	return &c
}

// cloneHist copies h and its bucket counts.
func cloneHist(h *HistSnap) *HistSnap {
	if h = clone(h); h != nil {
		h.Counts = slices.Clone(h.Counts)
	}
	return h
}

// cloneSnapshot copies s and everything it points to.
func cloneSnapshot(s *ProgressSnapshot) *ProgressSnapshot {
	if s = clone(s); s != nil {
		s.WorkerSteps = slices.Clone(s.WorkerSteps)
		s.WorkerPhases = slices.Clone(s.WorkerPhases)
		s.StoreReadLat = cloneHist(s.StoreReadLat)
		s.StoreWriteLat = cloneHist(s.StoreWriteLat)
		s.Phases = clone(s.Phases)
		s.ExpandLat = cloneHist(s.ExpandLat)
	}
	return s
}

// liveMetrics is the /metrics JSON document.
type liveMetrics struct {
	SchemaVersion int               `json:"schema_version"`
	Manifest      *Manifest         `json:"manifest,omitempty"`
	UptimeSec     float64           `json:"uptime_sec"`
	Runs          int               `json:"runs"`
	Events        uint64            `json:"events"`
	Snapshots     uint64            `json:"snapshots"`
	Config        *RunConfig        `json:"config,omitempty"`
	Snapshot      *ProgressSnapshot `json:"snapshot,omitempty"`
	Final         *ProgressSnapshot `json:"final,omitempty"`
	StatesPerSec  float64           `json:"states_per_sec,omitempty"`
	Utilization   float64           `json:"utilization,omitempty"`
	RTRuns        int               `json:"rt_runs,omitempty"`
	RTEvents      map[string]uint64 `json:"rt_events,omitempty"`
	RTFinal       *RuntimeSummary   `json:"rt_final,omitempty"`
}

// wantsPrometheus decides the /metrics representation: Prometheus text for
// scrapers (an Accept header naming text/plain or OpenMetrics, as
// prometheus sends, or an explicit ?format=prometheus), JSON otherwise —
// so curl and browsers (Accept: */*) keep the original document.
func wantsPrometheus(r *http.Request) bool {
	if r == nil {
		return false
	}
	if r.URL.Query().Get("format") == "prometheus" {
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

// ServeHTTP implements http.Handler: the latest counters, as the
// Prometheus text exposition format when the scraper asks for it (see
// wantsPrometheus and WritePrometheus) and as JSON by default. Both render
// from a consistent copy taken under the read lock, so scraping mid-run is
// safe however hot the producer is.
func (l *Live) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		l.WritePrometheus(w)
		return
	}
	m := l.metrics()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(m) //nolint:errcheck // best-effort debug endpoint
}

// metrics assembles the current liveMetrics document under the read lock.
func (l *Live) metrics() liveMetrics {
	l.mu.RLock()
	m := liveMetrics{
		SchemaVersion: SchemaVersion,
		Manifest:      l.manifest,
		UptimeSec:     time.Since(l.started).Seconds(),
		Runs:          l.runs,
		Events:        l.events,
		Snapshots:     l.snapshots,
		Config:        l.config,
		Snapshot:      l.last,
		Final:         l.final,
		RTRuns:        l.rtRuns,
		RTFinal:       l.rtFinal,
	}
	if len(l.rtEvents) > 0 {
		m.RTEvents = make(map[string]uint64, len(l.rtEvents))
		for k, v := range l.rtEvents {
			m.RTEvents[k] = v
		}
	}
	l.mu.RUnlock()
	if m.Snapshot != nil {
		m.StatesPerSec = m.Snapshot.StatesPerSec()
		m.Utilization = m.Snapshot.Utilization()
	}
	return m
}

// Handler returns the -serve debug mux: /metrics (the Live JSON document)
// plus the standard pprof profile endpoints under /debug/pprof/.
func Handler(l *Live) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", l)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "exploration telemetry\n  /metrics      live counters (JSON; Prometheus text with Accept: text/plain or ?format=prometheus)\n  /debug/pprof/ profiles\n")
	})
	return mux
}

// Serve listens on addr (e.g. ":6060", or ":0" for an ephemeral port) and
// serves Handler(l) in a background goroutine. It returns the bound
// address and a shutdown function.
func Serve(addr string, l *Live) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: Handler(l)}
	go srv.Serve(ln) //nolint:errcheck // closed by shutdown below
	return ln.Addr().String(), func() { srv.Close() }, nil
}
