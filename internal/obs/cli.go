package obs

import (
	"fmt"
	"io"
	"os"
)

// CLIConfig is the flag surface the commands share: -progress, -trace and
// -serve, plus manifest provenance.
type CLIConfig struct {
	// Tool names the command, recorded in trace manifests.
	Tool string
	// Progress enables human-oriented progress lines on LogTo.
	Progress bool
	// TracePath, when non-empty, writes a JSONL run trace to this file
	// ("-" for stdout).
	TracePath string
	// ServeAddr, when non-empty, serves /metrics and /debug/pprof on this
	// address for the life of the process.
	ServeAddr string
	// LogTo receives progress lines and setup notices (default os.Stderr,
	// keeping experiment tables on stdout clean).
	LogTo io.Writer
	// Seed and Options are recorded in the trace manifest.
	Seed    int64
	Options map[string]string
}

// SetupCLI assembles the sink stack a command asked for and returns it as
// one MultiSink, plus a cleanup function that flushes the trace (reporting
// its digest on LogTo) and stops the metrics server. When no observability
// flag is set it returns a nil Sink and a no-op cleanup, preserving the
// engine's nil fast path.
func SetupCLI(cfg CLIConfig) (Sink, func(), error) {
	if !cfg.Progress && cfg.TracePath == "" && cfg.ServeAddr == "" {
		return nil, func() {}, nil
	}
	logTo := cfg.LogTo
	if logTo == nil {
		logTo = os.Stderr
	}
	var (
		sinks    []Sink
		tw       *TraceWriter
		digest   *Digest
		shutdown func()
	)
	cleanupPartial := func() {
		if tw != nil {
			tw.Close() //nolint:errcheck // best effort on the error path
		}
		if shutdown != nil {
			shutdown()
		}
	}
	if cfg.Progress {
		sinks = append(sinks, NewLogger(logTo, "[obs] "))
	}
	if cfg.TracePath != "" {
		m := NewManifest(cfg.Tool)
		m.Seed = cfg.Seed
		m.Options = cfg.Options
		w := io.Writer(os.Stdout)
		if cfg.TracePath != "-" {
			f, err := os.Create(cfg.TracePath)
			if err != nil {
				return nil, nil, fmt.Errorf("obs: create trace: %w", err)
			}
			w = f
		}
		var err error
		if tw, err = NewTraceWriter(w, m); err != nil {
			cleanupPartial()
			return nil, nil, err
		}
		sinks = append(sinks, tw)
		if cfg.TracePath != "-" {
			// MultiSink hands the writer and this digest every event in
			// the order each producer publishes it. Only the engine's
			// snapshot monitor publishes concurrently with another
			// producer, and the digest ignores timer snapshots, so this
			// digest is the file's, as ValidateTrace recomputes it.
			digest = NewDigest()
			sinks = append(sinks, digest)
		}
	}
	if cfg.ServeAddr != "" {
		live := NewLive(nil)
		addr, stop, err := Serve(cfg.ServeAddr, live)
		if err != nil {
			cleanupPartial()
			return nil, nil, err
		}
		shutdown = stop
		fmt.Fprintf(logTo, "[obs] serving live metrics on http://%s/metrics (pprof under /debug/pprof/)\n", addr)
		sinks = append(sinks, live)
	}
	cleanup := func() {
		if tw != nil {
			if err := tw.Close(); err != nil {
				fmt.Fprintf(logTo, "[obs] trace write failed: %v\n", err)
			} else if digest != nil {
				fmt.Fprintf(logTo, "[obs] trace written to %s (digest %s)\n", cfg.TracePath, digest.Sum())
			}
		}
		if shutdown != nil {
			shutdown()
		}
	}
	return MultiSink(sinks), cleanup, nil
}
