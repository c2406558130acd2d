package obs

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestSetupCLINilFastPath(t *testing.T) {
	sink, cleanup, err := SetupCLI(CLIConfig{Tool: "t"})
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
	sink, cleanup, err := SetupCLI(CLIConfig{
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
		sink.Publish(Event{Kind: KindRTStart, RTConfig: &RuntimeConfig{
			Workload: "toy", Procs: 1, Seed: seed, MaxEvents: 1, Batch: 1}})
		sink.Publish(Event{Kind: KindRTEvent, RT: &RuntimeEvent{
			Kind: RTLocal, Event: 1, Actor: 0, From: 0, To: 0, Label: fmt.Sprintf("step %d", seed)}})
		sink.Publish(Event{Kind: KindRTEnd, RTSummary: &RuntimeSummary{Events: 1, LocalSteps: 1, Quiesced: true}})
	}
	cleanup()

	// The reported digest is the file's, as the validator recomputes it.
	m := regexp.MustCompile(`trace written to (\S+) \(digest ([0-9a-f]{16})\)`).FindStringSubmatch(log.String())
	if m == nil || m[1] != path {
		t.Fatalf("cleanup did not report the trace digest; log:\n%s", log.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sum, err := ValidateTrace(f)
	if err != nil {
		t.Fatalf("trace file does not validate: %v", err)
	}
	if sum.RTRuns != 2 || sum.RTEvents != 2 || sum.Tool != "cli-test" {
		t.Errorf("summary = %+v, want rt_runs=2 rt_events=2 tool=cli-test", sum)
	}
	if m[2] != sum.Digest {
		t.Errorf("reported digest %s, file digest %s", m[2], sum.Digest)
	}
}

func TestSetupCLIBadTracePath(t *testing.T) {
	_, _, err := SetupCLI(CLIConfig{Tool: "t", TracePath: filepath.Join(t.TempDir(), "no", "such", "dir", "x.jsonl")})
	if err == nil || !strings.Contains(err.Error(), "create trace") {
		t.Fatalf("unwritable trace path: got %v, want create trace error", err)
	}
}

func TestSetupCLIServe(t *testing.T) {
	var log bytes.Buffer
	sink, cleanup, err := SetupCLI(CLIConfig{Tool: "t", ServeAddr: "127.0.0.1:0", LogTo: &log})
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
