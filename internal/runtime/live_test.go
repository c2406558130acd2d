package runtime_test

import (
	"bytes"
	"io"
	"math/rand"
	gort "runtime"
	"testing"

	"repro/internal/consensus"
	"repro/internal/datalink"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/runtime"
	"repro/internal/sharedmem"
)

// liveCase is one live workload with the fault settings of the CI
// refinement smoke and the live-refine benchmark.
type liveCase struct {
	name  string
	build func() (runtime.Workload, error)
	opts  runtime.Options
}

var liveCases = []liveCase{
	{"lcr", func() (runtime.Workload, error) { return ring.NewLiveLCR(rand.New(rand.NewSource(12345)).Perm(5)) },
		runtime.Options{Delay: 2, Crash: 0.2, RestartAfter: 5, MaxEvents: 1 << 16}},
	{"abp", func() (runtime.Workload, error) { return datalink.NewLiveABP(3) },
		runtime.Options{Drop: 0.3, Delay: 2, MaxEvents: 1 << 16}},
	{"benor", func() (runtime.Workload, error) { return consensus.NewLiveBenOr(3, 1, 1, []int{0, 1, 0}) },
		runtime.Options{Delay: 2, MaxEvents: 1 << 16}},
	{"ticket", func() (runtime.Workload, error) { return sharedmem.NewLiveMutex(sharedmem.NewTicketLock(3)), nil },
		runtime.Options{Delay: 2, MaxEvents: 16384}},
}

// pinnedDigests are the Result.Digest values of liveCases under seeds
// 1, 2 and 3, recorded before the rt_event publish path moved off fmt and
// encoding/json. Any change to the scheduler's decisions, its RNG draw
// order, the record order or the digest line format shows up here.
var pinnedDigests = map[string][3]string{
	"lcr":    {"a1c007be8eea4fce", "0b6aaacfd8945bb5", "ed2ef98d69280f85"},
	"abp":    {"8351ca9685fe7858", "d261879f9f15542a", "c29c7b222c266e9d"},
	"benor":  {"eed83e82f7bd8465", "7f77dc57b98e6b6b", "c93b75882538da5a"},
	"ticket": {"edf1e0d3baa8b7cd", "aae018818d75a221", "7aec7d185c352d04"},
}

// pinnedTraceDigest is the digest of the trace file holding all twelve
// runs above, in liveCases order, seeds ascending, as ValidateTrace
// recomputes it.
const pinnedTraceDigest = "faf18e8dfb075f4e"

func TestLiveDigestsPinned(t *testing.T) {
	for _, procs := range []int{1, 2} {
		old := gort.GOMAXPROCS(procs)
		var buf bytes.Buffer
		tw, err := obs.NewTraceWriter(&buf, obs.NewManifest("runtime-test"))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range liveCases {
			w, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 3; k++ {
				opts := c.opts
				opts.Seed, opts.Sink = int64(1+k), tw
				res, err := runtime.Run(w, opts)
				if err != nil {
					t.Fatalf("%s seed %d: %v", c.name, opts.Seed, err)
				}
				if want := pinnedDigests[c.name][k]; res.Digest != want {
					t.Errorf("GOMAXPROCS=%d %s seed %d: digest %s, want %s", procs, c.name, opts.Seed, res.Digest, want)
				}
			}
		}
		gort.GOMAXPROCS(old)
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		sum, err := obs.ValidateTrace(&buf)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: trace fails validation: %v", procs, err)
		}
		if sum.Digest != pinnedTraceDigest {
			t.Errorf("GOMAXPROCS=%d: trace digest %s, want %s", procs, sum.Digest, pinnedTraceDigest)
		}
		if want := 3 * len(liveCases); sum.RTRuns != want {
			t.Errorf("GOMAXPROCS=%d: validator saw %d rt runs, want %d", procs, sum.RTRuns, want)
		}
	}
}

// TestRunAllocsFlat holds a run's allocations to a constant plus the
// doublings of its growing slices: a run sixteen times as long may make
// a few dozen more, never one more per event.
func TestRunAllocsFlat(t *testing.T) {
	c := liveCases[3]
	w, err := c.build()
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(events int) float64 {
		opts := c.opts
		opts.Seed, opts.MaxEvents = 1, events
		return testing.AllocsPerRun(3, func() {
			if _, err := runtime.Run(w, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(1024), allocs(16384)
	if long-short > 32 {
		t.Errorf("a 1024-event run makes %.0f allocations, a 16384-event run %.0f", short, long)
	}
}

// BenchmarkRunTicketMutex is one live run of the ticket-lock mutex case
// of live-refine: 16384 single-access rounds, each published as one
// rt_event to the run's own digest. The nosink case attaches nothing
// else; the trace case adds a TraceWriter on io.Discard, as `hundred run
// -trace` and live-refine do, so the difference is a trace's cost.
func BenchmarkRunTicketMutex(b *testing.B) {
	c := liveCases[3]
	w, err := c.build()
	if err != nil {
		b.Fatal(err)
	}
	tw, err := obs.NewTraceWriter(io.Discard, obs.NewManifest("runtime-bench"))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		sink obs.Sink
	}{{"nosink", nil}, {"trace", tw}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := c.opts
				opts.Seed, opts.Sink = 1, bc.sink
				if _, err := runtime.Run(w, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
