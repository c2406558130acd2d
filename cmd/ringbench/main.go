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
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"

	"repro/cmd/internal/cli"
	"repro/internal/ring"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run carries main's body so the deferred cleanup (profiles, trace flush,
// metrics-server shutdown) executes before the process exits.
func run(args []string) int {
	fs := flag.NewFlagSet("ringbench", flag.ContinueOnError)
	maxN := fs.Int("max", 128, "largest ring size (swept in powers of two from 8)")
	seed := fs.Int64("seed", 42, "seed for randomized election")
	fl := cli.Register(fs, "the async LCR sweep",
		"explore the async LCR sweep under ample-set partial-order reduction (disjoint-links independence); the election verdict is identical either way")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	x, cleanup, err := fl.Setup("ringbench", *seed, map[string]string{"max": strconv.Itoa(*maxN)})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return cli.ExitCode(err)
	}
	defer cleanup()
	if err := sweep(x, *maxN, *seed); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// sweep prints the message-complexity table for rings of 8..maxN and the
// exhaustive async LCR check for rings of 3..7.
func sweep(x cli.Exploration, maxN int, seed int64) error {
	fmt.Printf("%-6s %12s %12s %12s %14s %10s %12s\n",
		"n", "LCR worst", "LCR best", "HS", "var-speeds", "n log n", "Itai-Rodeh")
	rng := rand.New(rand.NewSource(seed))
	for n := 8; n <= maxN; n *= 2 {
		small := make([]int, n)
		for i := range small {
			small[i] = (i + 1) % n
		}
		worst, err1 := ring.RunLCR(ring.DescendingIDs(n))
		best, err2 := ring.RunLCR(ring.AscendingIDs(n))
		hs, err3 := ring.RunHS(ring.DescendingIDs(n))
		vs, err4 := ring.RunVariableSpeeds(small)
		ir, err5 := ring.RunItaiRodeh(n, n, rng, 1000)
		if err := errors.Join(err1, err2, err3, err4, err5); err != nil {
			return err
		}
		fmt.Printf("%-6d %12d %12d %12d %14d %10.0f %12d\n",
			n, worst.Messages, best.Messages, hs.Messages, vs.Messages,
			float64(n)*math.Log2(float64(n)), ir.Messages)
	}

	fmt.Printf("\nasync LCR: every delivery schedule, worst-case ids\n")
	fmt.Printf("%-6s %10s %10s\n", "n", "states", "schedules OK")
	for n := 3; n <= 7; n++ {
		a, err := ring.NewAsyncLCR(ring.DescendingIDs(n))
		if err != nil {
			return err
		}
		opts := x.Options()
		if x.POR {
			opts.Independent = a.Independence()
			opts.VerifyPOR = 16
		}
		g, err := a.CheckElection(opts)
		if err != nil {
			return err
		}
		st := opts.Stats
		verdict := "yes"
		if st != nil && st.Lossy {
			verdict = "none found (lossy)"
		}
		fmt.Printf("%-6d %10d %18s\n", n, g.Len(), verdict)
		if st == nil {
			continue
		}
		if x.Stats {
			fmt.Printf("       [engine] %s\n", st)
		}
		if line := st.StoreString(); line != "" {
			fmt.Printf("       [store]  %s\n", line)
		}
	}
	return nil
}
