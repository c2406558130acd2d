// Command ringbench sweeps ring sizes and prints the message-complexity
// landscape of the §2.4 leader election algorithms: LCR worst/best case,
// Hirschberg–Sinclair, the variable-speeds counterexample algorithm, and
// Itai–Rodeh randomized election on anonymous rings — the series behind
// the Ω(n log n) lower bound discussion. It then exhaustively explores the
// asynchronous LCR state space for small rings, verifying the election
// invariant over every delivery schedule.
//
// Usage:
//
//	ringbench -max 256
//	ringbench -parallel 4 -stats   # multicore exploration with telemetry
//	ringbench -trace t.jsonl       # JSONL run trace of the async sweep
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
)

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/store"
)

func main() {
	os.Exit(run())
}

// run carries main's body so the deferred telemetry cleanup (trace flush,
// metrics-server shutdown) executes before the process exits.
func run() int {
	maxN := flag.Int("max", 128, "largest ring size (swept in powers of two from 8)")
	seed := flag.Int64("seed", 42, "seed for randomized election")
	parallelism := flag.Int("parallel", 0,
		"exploration worker count (0 = GOMAXPROCS; see core.ExploreOptions.Parallelism for when 1 runs the sequential explorer); results are identical at any setting")
	showStats := flag.Bool("stats", false, "print exploration engine telemetry for the async LCR sweep")
	usePOR := flag.Bool("por", false,
		"explore the async LCR sweep under ample-set partial-order reduction (disjoint-links independence); the election verdict is identical either way")
	verifyAliasing := flag.Int("verify-aliasing", 0,
		"debug falsifier: re-expand every Nth state over poisoned scratch buffers to catch expansions that retain emitted slices (0 = off)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	progress := flag.Bool("progress", false, "stream live exploration progress lines to stderr")
	tracePath := flag.String("trace", "", "write a JSONL run trace of the async LCR sweep to this file (\"-\" for stdout); validate with `hundred trace-lint`")
	serveAddr := flag.String("serve", "", "serve live /metrics and /debug/pprof on this address (e.g. :8080) for the life of the run")
	snapshotEvery := flag.Duration("snapshot-every", 0,
		"timer-driven snapshot period for -progress/-trace/-serve (0 = 1s default, negative = barrier events only)")
	storeKind := flag.String("store", "mem",
		"visited-set backend for the async LCR sweep: mem | spill | bitstate (bitstate is lossy: the schedule check becomes \"no violation found\")")
	maxStoreBytes := flag.Int64("max-store-bytes", 0,
		"spill backend's resident-payload budget in bytes (0 = 256 MiB default)")
	flag.Parse()
	storeCfg, err := store.ParseFlags(*storeKind, *maxStoreBytes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	sink, obsCleanup, err := obs.SetupCLI(obs.CLIConfig{
		Tool: "ringbench", Progress: *progress, TracePath: *tracePath, ServeAddr: *serveAddr,
		Seed: *seed,
		Options: map[string]string{
			"max":      strconv.Itoa(*maxN),
			"parallel": strconv.Itoa(*parallelism),
			"por":      strconv.FormatBool(*usePOR),
			"store":    string(storeCfg.ResolvedKind()),
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer obsCleanup()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	fmt.Printf("%-6s %12s %12s %12s %14s %10s %12s\n",
		"n", "LCR worst", "LCR best", "HS", "var-speeds", "n log n", "Itai-Rodeh")
	rng := rand.New(rand.NewSource(*seed))
	for n := 8; n <= *maxN; n *= 2 {
		worst, err := ring.RunLCR(ring.DescendingIDs(n))
		exitOn(err)
		best, err := ring.RunLCR(ring.AscendingIDs(n))
		exitOn(err)
		hs, err := ring.RunHS(ring.DescendingIDs(n))
		exitOn(err)
		small := make([]int, n)
		for i := range small {
			small[i] = (i + 1) % n
		}
		vs, err := ring.RunVariableSpeeds(small)
		exitOn(err)
		ir, err := ring.RunItaiRodeh(n, n, rng, 1000)
		exitOn(err)
		fmt.Printf("%-6d %12d %12d %12d %14d %10.0f %12d\n",
			n, worst.Messages, best.Messages, hs.Messages, vs.Messages,
			float64(n)*math.Log2(float64(n)), ir.Messages)
	}

	fmt.Printf("\nasync LCR: every delivery schedule, worst-case ids\n")
	fmt.Printf("%-6s %10s %10s\n", "n", "states", "schedules OK")
	for n := 3; n <= 7; n++ {
		a, err := ring.NewAsyncLCR(ring.DescendingIDs(n))
		exitOn(err)
		var st engine.Stats
		opts := core.ExploreOptions{
			Parallelism: *parallelism, Sink: sink, SnapshotEvery: *snapshotEvery,
			Store: storeCfg, VerifyAliasing: *verifyAliasing,
		}
		if *showStats || storeCfg.ResolvedKind() != store.Mem {
			opts.Stats = &st
		}
		if *usePOR {
			opts.Independent = a.Independence()
			opts.VerifyPOR = 16
		}
		g, err := a.CheckElection(opts)
		exitOn(err)
		verdict := "yes"
		if st.Lossy {
			verdict = "none found (lossy)"
		}
		fmt.Printf("%-6d %10d %18s\n", n, g.Len(), verdict)
		if *showStats {
			fmt.Printf("       [engine] %s\n", st)
		}
		if line := st.StoreString(); line != "" {
			fmt.Printf("       [store]  %s\n", line)
		}
	}
	return 0
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
