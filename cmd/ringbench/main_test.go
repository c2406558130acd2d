package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// TestRunWritesValidTrace: run returns its status instead of exiting, so
// its deferred cleanup flushes a trace holding one run per async LCR ring
// size (3..7).
func TestRunWritesValidTrace(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.jsonl")
	if code := run([]string{"-max", "8", "-trace", trace}); code != 0 {
		t.Fatalf("run exit %d, want 0", code)
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sum, err := obs.ValidateTrace(f)
	if err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if sum.Tool != "ringbench" || sum.Runs != 5 {
		t.Fatalf("trace: tool %q with %d runs, want ringbench with 5", sum.Tool, sum.Runs)
	}
}

// TestRunUsageErrors: bad flags exit 2.
func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-store", "nope"}, {"-no-such-flag"}} {
		if code := run(args); code != 2 {
			t.Errorf("run %v: exit %d, want 2", args, code)
		}
	}
}
