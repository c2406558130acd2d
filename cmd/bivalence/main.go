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
	"strconv"

	"repro/cmd/internal/cli"
	"repro/internal/flp"
)

func main() {
	os.Exit(run())
}

// run carries main's body so the deferred cleanup (profiles, trace flush,
// metrics-server shutdown) executes before the process exits.
func run() int {
	proto := flag.String("proto", "adopt-swap", "protocol: wait-all | wait-quorum | adopt-swap")
	n := flag.Int("n", 2, "number of processes")
	resilience := flag.Int("resilience", 1, "number of crash events the adversary may inject")
	fl := cli.Register(flag.CommandLine, "the analysis",
		"analyze under ample-set partial-order reduction (delivery independence + decision visibility); verdicts are identical, configuration counts shrink")
	flag.Parse()

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
	x, cleanup, err := fl.Setup("bivalence", 0, map[string]string{
		"proto":      *proto,
		"n":          strconv.Itoa(*n),
		"resilience": strconv.Itoa(*resilience),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return cli.ExitCode(err)
	}
	defer cleanup()
	opts := cli.AnalyzeOptions(x.Options())
	opts.Resilience = resilience
	if x.POR {
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
	if st := opts.Stats; st != nil {
		if x.Stats {
			fmt.Printf("exploration:         %s\n", st)
		}
		if line := st.StoreString(); line != "" {
			fmt.Printf("state store:         %s\n", line)
		}
	}
	fmt.Printf("configurations:      %d (%d transitions)\n", rep.States, rep.Edges)
	fmt.Printf("bivalent configs:    %d (bivalent initial: %v)\n", rep.BivalentConfigs, rep.HasBivalentInitial)
	fmt.Printf("decider config:      %v\n", rep.DeciderFound)
	fmt.Printf("verdict:             %s\n", flp.DescribeHorn(rep))
	if rep.AgreementViolated {
		fmt.Printf("\ndisagreement witness:\n%s\n", cli.PrintableTrace(rep.AgreementWitness))
	}
	if rep.HasDeadlock {
		fmt.Printf("\nundecided deadlock witness:\n%s\n", cli.PrintableTrace(rep.UndecidedDeadlock))
	}
	if rep.NondecidingLasso != nil {
		fmt.Printf("\nnon-deciding fair execution: prefix %d steps, then repeat forever:\n%s\n",
			len(rep.NondecidingLasso.Prefix), cli.PrintableTrace(rep.NondecidingLasso.Cycle))
	}
	return 0
}
