package obs_test

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

func TestSetupCLINilFastPath(t *testing.T) {
	sink, cleanup, err := obs.SetupCLI(obs.CLIConfig{Tool: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if sink != nil {
		t.Fatal("no flags set, want a nil Sink so the engine keeps its fast path")
	}
	cleanup() // must be a safe no-op
}

func TestSetupCLITraceAndProgress(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.jsonl")
	var log bytes.Buffer
	sink, cleanup, err := obs.SetupCLI(obs.CLIConfig{
		Tool: "cli-test", Progress: true, TracePath: path, LogTo: &log,
		Seed: 42, Options: map[string]string{"workload": "toy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sink == nil {
		t.Fatal("flags set but sink is nil")
	}
	for seed := int64(1); seed <= 2; seed++ {
		sink.Publish(obs.Event{Kind: obs.KindRTStart, RTConfig: &obs.RuntimeConfig{
			Workload: "toy", Procs: 1, Seed: seed, MaxEvents: 1, Batch: 1}})
		sink.Publish(obs.Event{Kind: obs.KindRTEvent, RT: &obs.RuntimeEvent{
			Kind: obs.RTLocal, Event: 1, Actor: 0, From: 0, To: 0, Label: fmt.Sprintf("step %d", seed)}})
		sink.Publish(obs.Event{Kind: obs.KindRTEnd, RTSummary: &obs.RuntimeSummary{Events: 1, LocalSteps: 1, Quiesced: true}})
	}
	cleanup()

	sum := validateReported(t, path, log.String())
	if sum.RTRuns != 2 || sum.RTEvents != 2 || sum.Tool != "cli-test" {
		t.Errorf("summary = %+v, want rt_runs=2 rt_events=2 tool=cli-test", sum)
	}
}

// validateReported validates the trace file at path and checks that the
// digest cleanup reported on log is the file's, as the validator
// recomputes it.
func validateReported(t *testing.T, path, log string) *obs.TraceSummary {
	t.Helper()
	m := regexp.MustCompile(`trace written to (\S+) \(digest ([0-9a-f]{16})\)`).FindStringSubmatch(log)
	if m == nil || m[1] != path {
		t.Fatalf("cleanup did not report the trace digest; log:\n%s", log)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sum, err := obs.ValidateTrace(f)
	if err != nil {
		t.Fatalf("trace file does not validate: %v", err)
	}
	if m[2] != sum.Digest {
		t.Errorf("reported digest %s, file digest %s", m[2], sum.Digest)
	}
	return sum
}

// TestSetupCLITraceIsLossless holds SetupCLI's sink to the Sink contract:
// however fast the producers, the file gets every event and the reported
// digest is the file's.
func TestSetupCLITraceIsLossless(t *testing.T) {
	t.Run("rt_events", func(t *testing.T) {
		const n = 100_000
		path := filepath.Join(t.TempDir(), "rt.jsonl")
		var log bytes.Buffer
		sink, cleanup, err := obs.SetupCLI(obs.CLIConfig{Tool: "cli-test", TracePath: path, LogTo: &log})
		if err != nil {
			t.Fatal(err)
		}
		sink.Publish(obs.Event{Kind: obs.KindRTStart, RTConfig: &obs.RuntimeConfig{
			Workload: "toy", Procs: 1, Seed: 1, MaxEvents: n, Batch: 1}})
		ev := &obs.RuntimeEvent{Kind: obs.RTLocal, Label: "step"}
		for i := 1; i <= n; i++ {
			ev.Event = i
			sink.Publish(obs.Event{Kind: obs.KindRTEvent, RT: ev})
		}
		sink.Publish(obs.Event{Kind: obs.KindRTEnd, RTSummary: &obs.RuntimeSummary{Events: n, LocalSteps: n, Budget: true}})
		cleanup()
		if sum := validateReported(t, path, log.String()); sum.Events != n+2 || sum.RTEvents != n {
			t.Errorf("trace holds %d events, %d rt_events; want %d and %d", sum.Events, sum.RTEvents, n+2, n)
		}
	})
	t.Run("explore", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "explore.jsonl")
		var log bytes.Buffer
		sink, cleanup, err := obs.SetupCLI(obs.CLIConfig{Tool: "cli-test", TracePath: path, LogTo: &log})
		if err != nil {
			t.Fatal(err)
		}
		// Some 30 levels, each holding one state whose expansion sleeps
		// a millisecond, so the snapshot monitor publishes between the
		// coordinator's events.
		const depth, width = 30, 200
		expand := func(s string, x *engine.Ctx) {
			i, _ := strconv.Atoi(s)
			if i%width == 0 {
				time.Sleep(time.Millisecond)
			}
			if i < depth*width {
				x.Emit(strconv.Itoa(i+width), "down", 0)
				x.Emit(strconv.Itoa(i+width+1), "slant", 1)
			}
		}
		inits := make([]string, width)
		for i := range inits {
			inits[i] = strconv.Itoa(i)
		}
		_, err = engine.Explore(inits, expand, engine.Options{
			Parallelism: 2, Sink: sink, SnapshotEvery: time.Millisecond})
		cleanup()
		if err != nil {
			t.Fatal(err)
		}
		if sum := validateReported(t, path, log.String()); sum.Runs != 1 || sum.Snapshots == 0 {
			t.Errorf("trace holds %d runs and %d snapshots; want 1 run with snapshots", sum.Runs, sum.Snapshots)
		}
	})
}

func TestSetupCLIBadTracePath(t *testing.T) {
	_, _, err := obs.SetupCLI(obs.CLIConfig{Tool: "t", TracePath: filepath.Join(t.TempDir(), "no", "such", "dir", "x.jsonl")})
	if err == nil || !strings.Contains(err.Error(), "create trace") {
		t.Fatalf("unwritable trace path: got %v, want create trace error", err)
	}
}

func TestSetupCLIServe(t *testing.T) {
	var log bytes.Buffer
	sink, cleanup, err := obs.SetupCLI(obs.CLIConfig{Tool: "t", ServeAddr: "127.0.0.1:0", LogTo: &log})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if sink == nil {
		t.Fatal("serve flag set but sink is nil")
	}
	line := log.String()
	i := strings.Index(line, "http://")
	j := strings.Index(line, "/metrics")
	if i < 0 || j < 0 {
		t.Fatalf("setup notice missing metrics URL: %q", line)
	}
	resp, err := http.Get(line[i : j+len("/metrics")])
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status %d", resp.StatusCode)
	}
}
