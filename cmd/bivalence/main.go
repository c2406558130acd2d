// Command bivalence runs the FLP bivalence analyzer on one of the built-in
// asynchronous consensus protocols and prints the analysis: configuration
// counts, bivalent initial configurations, and the horn of the FLP theorem
// the protocol falls on (with witness executions).
//
// Usage:
//
//	bivalence -proto wait-all -n 3
//	bivalence -proto wait-quorum -n 3 -resilience 1
//	bivalence -proto adopt-swap -n 2 -resilience 0
//	bivalence -proto wait-quorum -n 4 -resilience 0 -progress -trace t.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"

	"repro/internal/engine"
	"repro/internal/flp"
	"repro/internal/obs"
	"repro/internal/store"
)

func main() {
	os.Exit(run())
}

// run carries main's body so the deferred telemetry cleanup (trace flush,
// metrics-server shutdown) executes before the process exits.
func run() int {
	proto := flag.String("proto", "adopt-swap", "protocol: wait-all | wait-quorum | adopt-swap")
	n := flag.Int("n", 2, "number of processes")
	resilience := flag.Int("resilience", 1, "number of crash events the adversary may inject")
	parallel := flag.Int("parallel", 0, "exploration worker count (0 = GOMAXPROCS; see core.ExploreOptions.Parallelism for when 1 runs the sequential explorer); results are identical at any setting")
	stats := flag.Bool("stats", false, "print exploration engine telemetry")
	usePOR := flag.Bool("por", false,
		"analyze under ample-set partial-order reduction (delivery independence + decision visibility); verdicts are identical, configuration counts shrink")
	verifyAliasing := flag.Int("verify-aliasing", 0,
		"debug falsifier: re-expand every Nth state over poisoned scratch buffers to catch expansions that retain emitted slices (0 = off)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	progress := flag.Bool("progress", false, "stream live exploration progress lines to stderr")
	tracePath := flag.String("trace", "", "write a JSONL run trace of the main exploration to this file (\"-\" for stdout); validate with `hundred trace-lint`")
	serveAddr := flag.String("serve", "", "serve live /metrics and /debug/pprof on this address (e.g. :8080) for the life of the run")
	snapshotEvery := flag.Duration("snapshot-every", 0,
		"timer-driven snapshot period for -progress/-trace/-serve (0 = 1s default, negative = barrier events only)")
	storeKind := flag.String("store", "mem",
		"visited-set backend: mem | spill | bitstate (bitstate is lossy: verdicts downgrade to \"no violation found\")")
	maxStoreBytes := flag.Int64("max-store-bytes", 0,
		"spill backend's resident-payload budget in bytes (0 = 256 MiB default)")
	flag.Parse()

	storeCfg, err := store.ParseFlags(*storeKind, *maxStoreBytes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	var p flp.Protocol
	switch *proto {
	case "wait-all":
		p = flp.NewWaitAll(*n)
	case "wait-quorum":
		p = flp.NewWaitQuorum(*n)
	case "adopt-swap":
		p = flp.NewAdoptSwap(*n)
	default:
		fmt.Fprintf(os.Stderr, "unknown protocol %q\n", *proto)
		return 2
	}
	sink, obsCleanup, err := obs.SetupCLI(obs.CLIConfig{
		Tool: "bivalence", Progress: *progress, TracePath: *tracePath, ServeAddr: *serveAddr,
		Options: map[string]string{
			"proto":      *proto,
			"n":          strconv.Itoa(*n),
			"resilience": strconv.Itoa(*resilience),
			"parallel":   strconv.Itoa(*parallel),
			"por":        strconv.FormatBool(*usePOR),
			"store":      string(storeCfg.ResolvedKind()),
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
	var st *engine.Stats
	if *stats || storeCfg.ResolvedKind() != store.Mem {
		st = new(engine.Stats)
	}
	opts := flp.AnalyzeOptions{
		Resilience: resilience, Parallelism: *parallel, Stats: st,
		Sink: sink, SnapshotEvery: *snapshotEvery, Store: storeCfg,
		VerifyAliasing: *verifyAliasing,
	}
	if *usePOR {
		opts.Independent = flp.DeliveryIndependence(p)
		opts.Visible = flp.DecisionVisibility(p)
		opts.VerifyPOR = 16
	}
	rep, err := flp.Analyze(p, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "analyze: %v\n", err)
		return 1
	}
	fmt.Printf("protocol:            %s (n=%d, resilience=%d)\n", rep.Protocol, *n, *resilience)
	if st != nil && *stats {
		fmt.Printf("exploration:         %s\n", st)
	}
	if st != nil {
		if line := st.StoreString(); line != "" {
			fmt.Printf("state store:         %s\n", line)
		}
	}
	fmt.Printf("configurations:      %d (%d transitions)\n", rep.States, rep.Edges)
	fmt.Printf("bivalent configs:    %d (bivalent initial: %v)\n", rep.BivalentConfigs, rep.HasBivalentInitial)
	fmt.Printf("decider config:      %v\n", rep.DeciderFound)
	fmt.Printf("verdict:             %s\n", flp.DescribeHorn(rep))
	if rep.AgreementViolated {
		fmt.Printf("\ndisagreement witness:\n%s\n", rep.AgreementWitness)
	}
	if rep.HasDeadlock {
		fmt.Printf("\nundecided deadlock witness:\n%s\n", rep.UndecidedDeadlock)
	}
	if rep.NondecidingLasso != nil {
		fmt.Printf("\nnon-deciding fair execution: prefix %d steps, then repeat forever:\n%s\n",
			len(rep.NondecidingLasso.Prefix), rep.NondecidingLasso.Cycle)
	}
	return 0
}
