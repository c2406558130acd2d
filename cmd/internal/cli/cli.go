// Package cli is the exploration flag set the hundred, bivalence and
// ringbench commands share: the worker count, telemetry, reduction and
// falsifier switches, profiles, the observability stack and the
// visited-set backend. A command registers the flags, parses, and calls
// Setup, which turns them into one base engine.Options plus a cleanup.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"

	"repro/internal/engine"
	"repro/internal/flp"
	"repro/internal/obs"
	"repro/internal/sharedmem"
	"repro/internal/store"
)

// usageError marks a Setup error in a flag value.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

// ExitCode is the process status for a Setup error: 2 for a bad flag
// value, as for any other usage error, and 1 for anything else.
func ExitCode(err error) int {
	if errors.As(err, &usageError{}) {
		return 2
	}
	return 1
}

// Flags holds the parsed values of the shared flags.
type Flags struct {
	x                               Exploration
	cpuprofile, memprofile          string
	progress                        bool
	tracePath, serveAddr, storeKind string
	maxStoreBytes                   int64
}

// Register defines the shared flags on fs. scope names what the
// exploration flags apply to (e.g. "the async LCR sweep") and porHelp is
// the command's -por help text.
func Register(fs *flag.FlagSet, scope, porHelp string) *Flags {
	f := &Flags{}
	fs.IntVar(&f.x.Base.Parallelism, "parallel", 0,
		"exploration worker count (0 = GOMAXPROCS); results are identical at any setting")
	fs.BoolVar(&f.x.Stats, "stats", false, "print exploration engine telemetry for "+scope)
	fs.BoolVar(&f.x.POR, "por", false, porHelp)
	fs.IntVar(&f.x.Base.VerifyAliasing, "verify-aliasing", 0,
		"debug falsifier: re-expand every Nth state over poisoned scratch buffers to catch expansions that retain emitted slices (0 = off)")
	fs.StringVar(&f.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&f.memprofile, "memprofile", "", "write a heap profile at the end of the run to this file")
	fs.BoolVar(&f.progress, "progress", false, "stream live exploration progress lines to stderr")
	fs.StringVar(&f.tracePath, "trace", "",
		"write a JSONL run trace of "+scope+" to this file (\"-\" for stdout); validate with hundred trace-lint")
	fs.StringVar(&f.serveAddr, "serve", "", "serve live /metrics and /debug/pprof on this address (e.g. :8080) for the life of the run")
	fs.DurationVar(&f.x.Base.SnapshotEvery, "snapshot-every", 0,
		"timer-driven snapshot period for -progress/-trace/-serve (0 = 1s default, negative = barrier events only)")
	fs.StringVar(&f.storeKind, "store", "mem",
		"visited-set backend for "+scope+": mem | spill | bitstate (bitstate is lossy: verdicts downgrade to \"no violation found\")")
	fs.Int64Var(&f.maxStoreBytes, "max-store-bytes", 0,
		"spill backend's resident-payload budget in bytes (0 = 256 MiB default)")
	return f
}

// Exploration is what the shared flags resolve to.
type Exploration struct {
	// Base carries -parallel, -verify-aliasing, -store/-max-store-bytes,
	// -snapshot-every and the -progress/-trace/-serve sink (nil when none
	// of those is set). Its Stats is nil: see Options.
	Base engine.Options
	// Stats is -stats: print each exploration's engine telemetry.
	Stats bool
	// POR is -por: explore under the command's partial-order reduction.
	POR bool
}

// Options returns a copy of Base for one exploration. It carries a fresh
// Stats when -stats is set or the backend is not mem, whose figures are
// worth a line even without -stats.
func (x Exploration) Options() engine.Options {
	o := x.Base
	if x.Stats || o.Store.ResolvedKind() != store.Mem {
		o.Stats = new(engine.Stats)
	}
	return o
}

// AnalyzeOptions carries o's exploration settings into flp.Analyze.
func AnalyzeOptions(o engine.Options) flp.AnalyzeOptions {
	return flp.AnalyzeOptions{
		MaxStates: o.MaxStates, Parallelism: o.Parallelism, Stats: o.Stats,
		VerifyAliasing: o.VerifyAliasing, Sink: o.Sink, SnapshotEvery: o.SnapshotEvery, Store: o.Store,
	}
}

// MutexOptions carries o's exploration settings into sharedmem.CheckMutex.
func MutexOptions(o engine.Options) sharedmem.CheckMutexOptions {
	return sharedmem.CheckMutexOptions{
		MaxStates: o.MaxStates, Parallelism: o.Parallelism, Stats: o.Stats,
		Sink: o.Sink, SnapshotEvery: o.SnapshotEvery, Store: o.Store,
	}
}

// Setup validates the flags, starts the observability stack and the
// profiles, and returns the exploration settings with one cleanup that
// writes the heap profile, stops the CPU profile and flushes the
// telemetry. tool, seed and options go to the trace manifest, which also
// records -parallel, -por and the resolved store. On error nothing is left
// running, and ExitCode tells a bad -store or -max-store-bytes value
// from a failure.
func (f *Flags) Setup(tool string, seed int64, options map[string]string) (Exploration, func(), error) {
	storeCfg, err := store.ParseFlags(f.storeKind, f.maxStoreBytes)
	if err != nil {
		return Exploration{}, nil, usageError{err}
	}
	manifest := map[string]string{
		"parallel": strconv.Itoa(f.x.Base.Parallelism),
		"por":      strconv.FormatBool(f.x.POR),
		"store":    string(storeCfg.ResolvedKind()),
	}
	for k, v := range options {
		manifest[k] = v
	}
	sink, obsCleanup, err := obs.SetupCLI(obs.CLIConfig{
		Tool: tool, Progress: f.progress, TracePath: f.tracePath, ServeAddr: f.serveAddr,
		Seed: seed, Options: manifest,
	})
	if err != nil {
		return Exploration{}, nil, err
	}
	stopCPU := func() {}
	if f.cpuprofile != "" {
		out, err := os.Create(f.cpuprofile)
		if err == nil {
			if err = pprof.StartCPUProfile(out); err != nil {
				out.Close()
			}
		}
		if err != nil {
			obsCleanup()
			return Exploration{}, nil, err
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			if err := out.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
	}
	cleanup := func() {
		if f.memprofile != "" {
			writeHeapProfile(f.memprofile)
		}
		stopCPU()
		obsCleanup()
	}
	x := f.x
	x.Base.Sink, x.Base.Store = sink, storeCfg
	return x, cleanup, nil
}

// writeHeapProfile writes a heap profile to path, reporting failures on
// stderr: the run's result is already out, so they do not change its
// exit status.
func writeHeapProfile(path string) {
	out, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	runtime.GC() // settle the heap so the profile shows retained allocations
	if err := errors.Join(pprof.WriteHeapProfile(out), out.Close()); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}
