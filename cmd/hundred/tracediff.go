package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/obs"
)

// runTraceDiff is the `hundred trace-diff` subcommand: it localizes the
// first structural divergence between two JSONL run traces. Both traces
// are reduced to their digest-line sequences (exactly the
// worker-count-invariant fields Digest hashes — see obs.DigestLine) and
// compared in lockstep, so two traces of the same runs at different worker
// counts or snapshot periods compare equal, and a real
// divergence points at the first level/event where the structures part.
//
// Exit codes: 0 traces agree, 1 traces diverge, 2 usage or read error.
func runTraceDiff(args []string) int {
	fs := flag.NewFlagSet("hundred trace-diff", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: hundred trace-diff TRACE_A TRACE_B")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	a, err := loadDigestLines(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	b, err := loadDigestLines(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	// Manifest context first: differing provenance is not a divergence by
	// itself (worker counts are allowed to differ), but it
	// is the first thing a reader wants to know.
	if ctx := manifestDelta(a.manifest, b.manifest); len(ctx) > 0 {
		fmt.Printf("manifest differences (informational):\n")
		for _, line := range ctx {
			fmt.Printf("  %s\n", line)
		}
	}

	n := len(a.lines)
	if len(b.lines) < n {
		n = len(b.lines)
	}
	for i := 0; i < n; i++ {
		if a.lines[i].text != b.lines[i].text {
			fmt.Printf("traces diverge at deterministic event %d:\n", i+1)
			fmt.Printf("  %s:%d (seq %d): %s\n", fs.Arg(0), a.lines[i].fileLine, a.lines[i].seq, strings.TrimSuffix(a.lines[i].text, "\n"))
			fmt.Printf("  %s:%d (seq %d): %s\n", fs.Arg(1), b.lines[i].fileLine, b.lines[i].seq, strings.TrimSuffix(b.lines[i].text, "\n"))
			return 1
		}
	}
	if len(a.lines) != len(b.lines) {
		longPath, long, short := fs.Arg(0), a, b
		if len(b.lines) > len(a.lines) {
			longPath, long, short = fs.Arg(1), b, a
		}
		extra := long.lines[len(short.lines)]
		fmt.Printf("traces agree on the first %d deterministic events, then %s has %d extra (first at line %d, seq %d):\n",
			len(short.lines), longPath, len(long.lines)-len(short.lines), extra.fileLine, extra.seq)
		fmt.Printf("  %s\n", strings.TrimSuffix(extra.text, "\n"))
		return 1
	}
	fmt.Printf("traces agree: %d deterministic events, digest %s\n", len(a.lines), a.digest)
	return 0
}

// digestLine is one digest-relevant event with its provenance in the file.
type digestLine struct {
	text     string
	fileLine int
	seq      uint64
}

// digestTrace is one trace reduced to its deterministic skeleton.
type digestTrace struct {
	manifest obs.Manifest
	lines    []digestLine
	digest   string
}

// loadDigestLines reads a trace and keeps only its digest-relevant lines.
func loadDigestLines(path string) (*digestTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, evs, err := obs.ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	dt := &digestTrace{manifest: m}
	dig := obs.NewDigest()
	for i, ev := range evs {
		if line, ok := obs.DigestLine(ev); ok {
			// Line i+2: 1-based, after the manifest line.
			dt.lines = append(dt.lines, digestLine{text: line, fileLine: i + 2, seq: ev.Seq})
			dig.Publish(ev)
		}
	}
	dt.digest = dig.Sum()
	return dt, nil
}

// manifestDelta lists the informational manifest differences.
func manifestDelta(a, b obs.Manifest) []string {
	var out []string
	if a.Tool != b.Tool {
		out = append(out, fmt.Sprintf("tool: %q vs %q", a.Tool, b.Tool))
	}
	if a.SchemaVersion != b.SchemaVersion {
		out = append(out, fmt.Sprintf("schema: v%d vs v%d", a.SchemaVersion, b.SchemaVersion))
	}
	if a.Seed != b.Seed {
		out = append(out, fmt.Sprintf("seed: %d vs %d", a.Seed, b.Seed))
	}
	if a.Git != b.Git {
		out = append(out, fmt.Sprintf("git: %q vs %q", a.Git, b.Git))
	}
	seen := map[string]bool{}
	var keys []string
	for k := range a.Options {
		seen[k] = true
		keys = append(keys, k)
	}
	for k := range b.Options {
		if !seen[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a.Options[k] != b.Options[k] {
			out = append(out, fmt.Sprintf("option %s: %q vs %q", k, a.Options[k], b.Options[k]))
		}
	}
	return out
}
