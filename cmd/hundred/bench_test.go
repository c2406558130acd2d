package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadBenchFileMissing(t *testing.T) {
	bf, err := loadBenchFile(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil {
		t.Fatalf("missing file must yield an empty history, got %v", err)
	}
	if bf.SchemaVersion != benchSchemaVersion || len(bf.Runs) != 0 {
		t.Fatalf("empty history = %+v", bf)
	}
}

func TestLoadBenchFileCurrentSchema(t *testing.T) {
	path := writeTemp(t, "bench.json",
		`{"schema_version": 2, "runs": [{"goos": "linux", "goarch": "amd64", "gomaxprocs": 4, "explorations": [], "synth": []}]}`)
	bf, err := loadBenchFile(path)
	if err != nil {
		t.Fatalf("loadBenchFile: %v", err)
	}
	if len(bf.Runs) != 1 || bf.Runs[0].GOOS != "linux" {
		t.Fatalf("history = %+v", bf)
	}
}

func TestLoadBenchFileMigratesLegacy(t *testing.T) {
	legacy := benchRecord{GOOS: "linux", GOARCH: "arm64", GOMAXPROCS: 2,
		Explorations: []explorationBench{{System: "x", FullStates: 10}}}
	data, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := loadBenchFile(writeTemp(t, "legacy.json", string(data)))
	if err != nil {
		t.Fatalf("legacy migration: %v", err)
	}
	if bf.SchemaVersion != benchSchemaVersion || len(bf.Runs) != 1 || bf.Runs[0].Explorations[0].System != "x" {
		t.Fatalf("migrated history = %+v", bf)
	}
}

// TestLoadBenchFileMalformedRefusesWithHint is the regression test for the
// history-loss bug: a corrupt BENCH_hundred.json must produce an error that
// names the file, refuses to overwrite, and tells the user how to recover —
// never an empty history that the subsequent write would clobber.
func TestLoadBenchFileMalformedRefusesWithHint(t *testing.T) {
	for name, content := range map[string]string{
		"truncated":   `{"schema_version": 2, "runs": [{"goos": "li`,
		"not-json":    "states: many\n",
		"wrong-shape": `{"foo": [1, 2, 3]}`,
	} {
		path := writeTemp(t, name+".json", content)
		_, err := loadBenchFile(path)
		if err == nil {
			t.Errorf("%s: malformed file loaded without error (history would be clobbered)", name)
			continue
		}
		msg := err.Error()
		if !strings.Contains(msg, path) {
			t.Errorf("%s: error %q does not name the file", name, msg)
		}
		if !strings.Contains(msg, "refusing to overwrite") {
			t.Errorf("%s: error %q does not refuse the overwrite", name, msg)
		}
		if !strings.Contains(msg, "move/delete") {
			t.Errorf("%s: error %q carries no recovery hint", name, msg)
		}
	}
}

// TestLoadBenchFileRejectsNewerSchema pins forward compatibility: a file
// written by a newer binary must not be rewritten into this binary's layout.
func TestLoadBenchFileRejectsNewerSchema(t *testing.T) {
	path := writeTemp(t, "future.json", `{"schema_version": 99, "runs": []}`)
	_, err := loadBenchFile(path)
	if err == nil {
		t.Fatal("newer schema loaded without error")
	}
	if !strings.Contains(err.Error(), "newer than") {
		t.Fatalf("error %q does not explain the version conflict", err)
	}
}

func TestBenchHistoryCapKeepsNewest(t *testing.T) {
	bf := benchFile{SchemaVersion: benchSchemaVersion}
	for i := 0; i < benchHistoryCap+3; i++ {
		bf.Runs = append(bf.Runs, benchRecord{GOMAXPROCS: i})
	}
	// Mirror runBenchJSON's capping.
	if excess := len(bf.Runs) - benchHistoryCap; excess > 0 {
		bf.Runs = append([]benchRecord(nil), bf.Runs[excess:]...)
	}
	if len(bf.Runs) != benchHistoryCap {
		t.Fatalf("history length = %d, want %d", len(bf.Runs), benchHistoryCap)
	}
	if bf.Runs[len(bf.Runs)-1].GOMAXPROCS != benchHistoryCap+2 {
		t.Fatal("cap dropped the newest run instead of the oldest")
	}
}

// TestBenchRowRecordsPORQuotientTiming: a row times its POR+quotient
// exploration as it times the other modes, and a workload without that
// stack leaves the fields out of the JSON.
func TestBenchRowRecordsPORQuotientTiming(t *testing.T) {
	stacked := benchWorkload{name: "stacked", explore: func(mode exploreMode) (int, engine.Stats, error) {
		states := map[exploreMode]int{modeFull: 100, modeQuotient: 40, modePOR: 50, modePORQuotient: 20}[mode]
		return states, engine.Stats{States: states, Elapsed: 2 * time.Second, StatesPerSec: float64(states) / 2}, nil
	}}
	row, err := benchRow(stacked)
	if err != nil {
		t.Fatal(err)
	}
	if row.PORQuotientStates != 20 || row.PORQuotientSeconds != 2 || row.PORQuotientStatesPerSec != 10 {
		t.Fatalf("por+quotient figures = %d states, %gs, %g states/s; want 20, 2, 10",
			row.PORQuotientStates, row.PORQuotientSeconds, row.PORQuotientStatesPerSec)
	}
	data, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"por_quotient_seconds":2`, `"por_quotient_states_per_sec":10`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("row JSON lacks %s: %s", key, data)
		}
	}

	fullOnly := benchWorkload{name: "full-only", explore: func(mode exploreMode) (int, engine.Stats, error) {
		if mode != modeFull {
			return 0, engine.Stats{}, nil
		}
		return 10, engine.Stats{States: 10, Elapsed: time.Second, StatesPerSec: 10}, nil
	}}
	row, err = benchRow(fullOnly)
	if err != nil {
		t.Fatal(err)
	}
	if data, err = json.Marshal(row); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "por_quotient") {
		t.Errorf("full-only row carries POR+quotient fields: %s", data)
	}
}
