package cli

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/store"
)

// setup registers the shared flags on a fresh flag set, parses args and
// runs Setup.
func setup(t *testing.T, args ...string) (Exploration, func(), error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fl := Register(fs, "the test", "test reduction")
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return fl.Setup("test", 7, map[string]string{"extra": "1"})
}

// TestSetupMapsFlags: a fixed argv lands field for field in the base
// options and the two booleans.
func TestSetupMapsFlags(t *testing.T) {
	x, cleanup, err := setup(t, "-parallel", "3", "-por", "-stats", "-verify-aliasing", "5",
		"-snapshot-every", "2s", "-store", "spill", "-max-store-bytes", "1024")
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	want := Exploration{
		Base: engine.Options{
			Parallelism: 3, VerifyAliasing: 5, SnapshotEvery: 2 * time.Second,
			Store: store.Config{Kind: store.Spill, MaxBytes: 1024},
		},
		Stats: true,
		POR:   true,
	}
	if !reflect.DeepEqual(x, want) {
		t.Fatalf("Setup = %+v, want %+v", x, want)
	}
}

// TestDefaultsLeaveEngineOff: with no flag set the store is mem, no
// Stats is allocated and — with no observability flag — the sink is nil,
// so nothing forces the engine's telemetry paths on.
func TestDefaultsLeaveEngineOff(t *testing.T) {
	x, cleanup, err := setup(t)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if x.Base.Sink != nil {
		t.Errorf("sink = %v with no observability flag, want nil", x.Base.Sink)
	}
	if x.Stats || x.POR {
		t.Errorf("Stats=%v POR=%v by default, want false", x.Stats, x.POR)
	}
	if x.Base.Store.ResolvedKind() != store.Mem {
		t.Errorf("store = %q by default, want mem", x.Base.Store.ResolvedKind())
	}
	if o := x.Options(); o.Stats != nil {
		t.Error("Options allocated Stats with neither -stats nor a non-mem store")
	}
}

// TestStatsRule: -stats, or a backend other than mem, gives every
// exploration its own Stats.
func TestStatsRule(t *testing.T) {
	for _, args := range [][]string{{"-stats"}, {"-store", "spill"}, {"-store", "bitstate"}} {
		x, cleanup, err := setup(t, args...)
		if err != nil {
			t.Fatal(err)
		}
		a, b := x.Options(), x.Options()
		if a.Stats == nil || b.Stats == nil {
			t.Errorf("%v: Options left Stats nil", args)
		} else if a.Stats == b.Stats {
			t.Errorf("%v: two explorations share one Stats", args)
		}
		if x.Base.Stats != nil {
			t.Errorf("%v: Base carries a Stats", args)
		}
		cleanup()
	}
}

// TestBadStoreIsUsageError: a bad -store or -max-store-bytes value exits
// 2 like any flag error; a failure to start a profile exits 1.
func TestBadStoreIsUsageError(t *testing.T) {
	for _, args := range [][]string{{"-store", "nope"}, {"-max-store-bytes", "-1"}} {
		_, _, err := setup(t, args...)
		if err == nil {
			t.Fatalf("%v: Setup accepted it", args)
		}
		if code := ExitCode(err); code != 2 {
			t.Errorf("%v: ExitCode = %d, want 2", args, code)
		}
	}
	if _, _, err := setup(t, "-store", "nope"); !errors.Is(err, store.ErrUnknownKind) {
		t.Errorf("-store nope: error %v does not wrap store.ErrUnknownKind", err)
	}
	_, _, err := setup(t, "-cpuprofile", filepath.Join(t.TempDir(), "missing", "cpu.pb"))
	if err == nil {
		t.Fatal("Setup started a CPU profile in a missing directory")
	}
	if code := ExitCode(err); code != 1 {
		t.Errorf("profile failure: ExitCode = %d, want 1", code)
	}
}

// TestCleanupWritesProfilesAndTrace: the one cleanup stops the CPU
// profile, writes the heap profile and flushes a valid trace of an
// exploration run under the returned options.
func TestCleanupWritesProfilesAndTrace(t *testing.T) {
	dir := t.TempDir()
	cpu, mem, trace := filepath.Join(dir, "cpu.pb"), filepath.Join(dir, "mem.pb"), filepath.Join(dir, "t.jsonl")
	x, cleanup, err := setup(t, "-cpuprofile", cpu, "-memprofile", mem, "-trace", trace)
	if err != nil {
		t.Fatal(err)
	}
	if x.Base.Sink == nil {
		t.Fatal("-trace left the sink nil")
	}
	count := func(s string, c *engine.Ctx) {
		if s < "3" {
			c.Emit(string(s[0]+1), "inc", 0)
		}
	}
	_, exploreErr := engine.Explore([]string{"0"}, count, x.Options())
	cleanup()
	if exploreErr != nil {
		t.Fatal(exploreErr)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s missing or empty after cleanup: %v", path, err)
		}
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
	if sum.Tool != "test" || sum.Runs != 1 || !reflect.DeepEqual(sum.FinalStates, []int{4}) {
		t.Errorf("trace: tool %q, %d runs, final states %v; want test, 1, [4]", sum.Tool, sum.Runs, sum.FinalStates)
	}
}

// TestAdaptersCarryBase: every exploration setting the flags can set
// reaches flp.Analyze and sharedmem.CheckMutex.
func TestAdaptersCarryBase(t *testing.T) {
	st := new(engine.Stats)
	sink := obs.NewLogger(io.Discard, "")
	o := engine.Options{
		MaxStates: 9, Parallelism: 2, Stats: st, VerifyAliasing: 3, Sink: sink,
		SnapshotEvery: -1, Store: store.Config{Kind: store.Spill},
	}
	a := AnalyzeOptions(o)
	if a.MaxStates != 9 || a.Parallelism != 2 || a.Stats != st || a.VerifyAliasing != 3 ||
		a.Sink != sink || a.SnapshotEvery != -1 || a.Store != o.Store {
		t.Errorf("AnalyzeOptions(%+v) = %+v", o, a)
	}
	m := MutexOptions(o)
	if m.MaxStates != 9 || m.Parallelism != 2 || m.Stats != st ||
		m.Sink != sink || m.SnapshotEvery != -1 || m.Store != o.Store {
		t.Errorf("MutexOptions(%+v) = %+v", o, m)
	}
}
