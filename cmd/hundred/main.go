// Command hundred runs the reproduction experiments E01–E21 (see
// EXPERIMENTS.md) and prints their result tables.
//
// Usage:
//
//	hundred                    # run every experiment
//	hundred E05 E11            # run selected experiments (unknown ids exit 2)
//	hundred -list              # list experiment ids and titles
//	hundred -por E11 E21       # state-space experiments with ample-set POR
//	hundred -cpuprofile cpu.pb # profile an experiment run
//	hundred -progress E11      # live telemetry on stderr
//	hundred -trace t.jsonl E11 # JSONL run trace (validate with trace-lint)
//	hundred -serve :8080 E11   # /metrics + /debug/pprof while running
//	hundred fuzz -budget 30s   # budgeted generative differential-fuzz sweep
//	hundred fuzz -seed 3 ...   # replay one generated space (see -help)
//	hundred trace-lint t.jsonl # validate a JSONL run trace
//	hundred report t.jsonl     # render a trace into a markdown run report
//	hundred trace-diff a b     # localize the first divergence of two traces
//	hundred run -workload lcr -runs 16   # live adversarial runs, refined
//	hundred run -workload abp -drop 0.3 -buggy  # catches the silent sender
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"repro/cmd/internal/cli"
	"repro/internal/async"
	"repro/internal/clocks"
	"repro/internal/consensus"
	"repro/internal/datalink"
	"repro/internal/engine"
	"repro/internal/flp"
	"repro/internal/knowledge"
	"repro/internal/registers"
	"repro/internal/ring"
	"repro/internal/rounds"
	"repro/internal/scenario"
	"repro/internal/sessions"
	"repro/internal/sharedmem"
	"repro/internal/spec"
	"repro/internal/synth"
)

type experiment struct {
	id    string
	title string
	run   func() error
}

// printStats reports an exploration's telemetry when -stats is set, plus
// the store backend's figures whenever a non-default backend ran.
func printStats(x cli.Exploration, st *engine.Stats) {
	if st == nil {
		return
	}
	if x.Stats {
		fmt.Printf("    [engine] %s\n", st)
		if line := st.PhaseString(); line != "" {
			fmt.Printf("    [phases] %s\n", line)
		}
	}
	if line := st.StoreString(); line != "" {
		fmt.Printf("    [store]  %s\n", line)
	}
}

func main() {
	os.Exit(run())
}

// run carries main's body so that deferred profile writers execute before
// the process exits with a status code.
func run() int {
	// Subcommands dispatch before flag parsing so their flag sets stay
	// independent of the experiment-runner flags.
	subcommands := map[string]func(args []string) int{
		"fuzz": runFuzz, "trace-lint": runTraceLint, "report": runReport,
		"trace-diff": runTraceDiff, "run": runLive, "bench-compare": runBenchCompare,
	}
	if len(os.Args) > 1 && subcommands[os.Args[1]] != nil {
		return subcommands[os.Args[1]](os.Args[2:])
	}
	list := flag.Bool("list", false, "list experiments and exit")
	benchJSON := flag.Bool("bench-json", false,
		"run the performance suite (full vs quotient vs POR explorations, seq vs parallel synth) and record a JSON run")
	benchOut := flag.String("bench-out", "BENCH_hundred.json",
		"bench record file for -bench-json: the run is appended to its history; empty writes a single-run record to stdout")
	benchBig := flag.Bool("bench-big", false,
		"with -bench-json: also run the budget-bounded big instances (wait-quorum n=5, async-lcr n=8) — minutes of runtime; pair with -store spill -max-store-bytes")
	fl := cli.Register(flag.CommandLine, "the state-space experiments",
		"apply ample-set partial-order reduction to the state-space experiments that carry independence relations; verdicts are identical either way")
	flag.Parse()
	x, cleanup, err := fl.Setup("hundred", 0, map[string]string{"args": strings.Join(flag.Args(), " ")})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return cli.ExitCode(err)
	}
	defer cleanup()
	if *benchJSON {
		if err := runBenchJSON(*benchOut, x.Base, *benchBig); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}
	exps := experiments(x)
	if *list {
		for _, e := range exps {
			fmt.Printf("%s  %s\n", e.id, e.title)
		}
		return 0
	}
	exps, err = selectExperiments(exps, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	failed := 0
	for _, e := range exps {
		fmt.Printf("== %s: %s ==\n", e.id, e.title)
		if err := e.run(); err != nil {
			fmt.Printf("  ERROR: %v\n", err)
			failed++
		}
		fmt.Println()
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// selectExperiments returns the experiments named by ids (case-insensitive),
// in suite order, or all of them when ids is empty. Any id that names no
// experiment is an error, so a typo never silently runs nothing.
func selectExperiments(exps []experiment, ids []string) ([]experiment, error) {
	if len(ids) == 0 {
		return exps, nil
	}
	known := map[string]bool{}
	for _, e := range exps {
		known[e.id] = true
	}
	want := map[string]bool{}
	var unknown []string
	for _, a := range ids {
		id := strings.ToUpper(a)
		if !known[id] {
			unknown = append(unknown, a)
		}
		want[id] = true
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown experiment %s (hundred -list shows the ids)", strings.Join(unknown, ", "))
	}
	var out []experiment
	for _, e := range exps {
		if want[e.id] {
			out = append(out, e)
		}
	}
	return out, nil
}

// experiments lists E01–E21; the state-space ones explore under x.
func experiments(x cli.Exploration) []experiment {
	return []experiment{
		{"E01", "fair mutex through one TAS variable: 2 values impossible (exhaustion)", e01},
		{"E02", "mutex value requirements across algorithms", func() error { return e02(x) }},
		{"E03", "single RW register mutex impossible (exhaustion)", e03},
		{"E04", "FIFO fairness costs Θ(n²) shared-memory contents", func() error { return e04(x) }},
		{"E05", "Byzantine agreement: n=3t impossible, n>3t works", e05},
		{"E06", "low connectivity defeats any agreement protocol", e06},
		{"E07", "two-faced clock fault defeats 3-process synchronization", e07},
		{"E08", "t+1 round lower bound (chain argument) and FloodSet", e08},
		{"E09", "approximate agreement convergence vs bounds", e09},
		{"E10", "authenticated agreement message growth (Ω(nt) shape)", e10},
		{"E11", "FLP horns for three asynchronous protocols", func() error { return e11(x) }},
		{"E12", "Two Generals chain argument", e12},
		{"E13", "Ben-Or randomized consensus terminates w.p. 1", e13},
		{"E14", "2PC commit uses exactly 2n-2 messages (failure-free)", e14},
		{"E15", "sessions: synchronous vs asynchronous time gap", e15},
		{"E16", "clock skew: ε(1−1/n) tight bound", e16},
		{"E17", "anonymous ring election impossible (symmetry)", e17},
		{"E18", "ring election message complexity landscape", e18},
		{"E19", "Itai–Rodeh randomized anonymous election", e19},
		{"E20", "consensus numbers: RW register vs RMW object", e20},
		{"E21", "data link: ABP works; crash/replay break bounded headers", func() error { return e21(x) }},
	}
}

func e01() error {
	neg, err := synth.SearchTASMutex(synth.TASSearchConfig{
		Values: 2, TryStates: 2, RequireLockoutFree: true,
	})
	if err != nil {
		return err
	}
	fmt.Printf("  2-valued search: tables=%d pruned=%d pairs=%d exclusion+progress=%d lockout-free=%d\n",
		neg.TablesEnumerated, neg.TablesPruned, neg.PairsChecked, neg.PassedProgress, neg.Passed)
	rep, err := sharedmem.CheckMutex(sharedmem.NewHandoffLock(), sharedmem.CheckMutexOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("  handoff lock (4 values, 1 variable): exclusion=%v progress=%v lockout-free=%v\n",
		rep.MutualExclusion, rep.Progress, rep.LockoutFree)
	return nil
}

func e02(x cli.Exploration) error {
	algs := []sharedmem.Algorithm{
		sharedmem.NewTASLock(2), sharedmem.NewHandoffLock(),
		sharedmem.NewPeterson2(), sharedmem.NewTicketLock(3),
	}
	fmt.Printf("  %-26s %8s %9s %12s %7s\n", "algorithm", "values", "progress", "lockout-free", "states")
	for _, a := range algs {
		opts := cli.MutexOptions(x.Options())
		rep, err := sharedmem.CheckMutex(a, opts)
		if err != nil {
			return err
		}
		total := 0
		for _, v := range rep.ValuesUsed {
			total += v
		}
		fmt.Printf("  %-26s %8d %9v %12v %7d\n", rep.Algorithm, total, rep.Progress, rep.LockoutFree, rep.States)
		printStats(x, opts.Stats)
	}
	return nil
}

func e03() error {
	for _, v := range []int{2, 3} {
		res, err := synth.SearchRWMutex(synth.RWSearchConfig{Values: v, TryStates: 2, Symmetric: v == 3})
		if err != nil {
			return err
		}
		fmt.Printf("  RW register, %d values: tables=%d pairs=%d passing=%d (expected 0)\n",
			v, res.TablesEnumerated, res.PairsChecked, res.Passed)
	}
	return nil
}

func e04(x cli.Exploration) error {
	fmt.Printf("  %-4s %18s %12s\n", "n", "combined values", "(n+1)^2")
	for _, n := range []int{2, 3, 4, 5} {
		opts := cli.MutexOptions(x.Options())
		rep, err := sharedmem.CheckMutex(sharedmem.NewTicketLock(n), opts)
		if err != nil {
			return err
		}
		fmt.Printf("  %-4d %18d %12d\n", n, rep.CombinedValues, (n+1)*(n+1))
		printStats(x, opts.Stats)
	}
	return nil
}

func e05() error {
	e := &consensus.EIG{Procs: 3, MaxFaults: 1}
	v, err := scenario.SpliceCheck(e, 1, e.Rounds())
	if err != nil {
		return err
	}
	fmt.Printf("  n=3 t=1: %d scenario violations, counterexample reproduced=%v\n",
		len(v.Violations), v.CounterexampleChecked)
	for _, viol := range v.Violations {
		fmt.Printf("    broke %s\n", viol.Requirement)
	}
	e4 := &consensus.EIG{Procs: 4, MaxFaults: 1}
	res, err := rounds.Run(e4, []int{0, 1, 1, 0}, rounds.NoFaults{}, rounds.RunOptions{Rounds: e4.Rounds()})
	if err != nil {
		return err
	}
	fmt.Printf("  n=4 t=1 failure-free decisions: %v (agreement holds)\n", res.Decisions)
	return nil
}

func e06() error {
	line, err := rounds.NewGraph(3, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		return err
	}
	f := &consensus.FloodSet{Procs: 3, MaxFaults: 1}
	v, err := scenario.CutReplayCheck(f, line, []int{1}, f.Rounds())
	if err != nil {
		return err
	}
	fmt.Printf("  line A-b-C (connectivity 1, t=1): decisions=%v\n  violated: %s\n", v.Decisions, v.Violation)
	return nil
}

func e07() error {
	net := clocks.Network{Base: 1, Epsilon: 0.5}
	e := clocks.UniformExecution(3, net)
	obs := clocks.Observe(e)
	obs[0][2].ReceivedAt -= 10
	obs[1][2].ReceivedAt += 10
	a0 := e.Offsets[0] + (clocks.LundeliusLynch{}).Correction(0, obs[0], net)
	a1 := e.Offsets[1] + (clocks.LundeliusLynch{}).Correction(1, obs[1], net)
	skew := a1 - a0
	if skew < 0 {
		skew = -skew
	}
	fmt.Printf("  honest skew bound: %.4f; two-faced fault drives honest skew to %.4f\n",
		clocks.TheoreticalBound(3, net), skew)
	return nil
}

func e08() error {
	fmt.Printf("  %-14s %12s %10s\n", "(n,t,k)", "executions", "chain?")
	for _, c := range [][3]int{{3, 1, 1}, {3, 1, 2}, {4, 2, 2}, {3, 2, 2}} {
		res, err := consensus.ChainLowerBound(c[0], c[1], c[2])
		if err != nil {
			return err
		}
		fmt.Printf("  (%d,%d,%d)%7s %12d %10v\n", c[0], c[1], c[2], "", res.Executions, res.ChainFound)
	}
	count, err := consensus.VerifyFloodSetExhaustively(3, 2)
	if err != nil {
		return err
	}
	fmt.Printf("  FloodSet verified over %d executions at t+1 rounds\n", count)
	// The Dwork–Moses epistemic reading: "some input is 1" becomes common
	// knowledge at the all-ones execution exactly at k = t+1.
	someOne := func(e knowledge.Execution) bool {
		for _, v := range e.Inputs {
			if v == 1 {
				return true
			}
		}
		return false
	}
	for _, k := range []int{1, 2} {
		u, err := knowledge.NewCrashUniverse(3, 1, k)
		if err != nil {
			return err
		}
		e, _ := u.Find([]int{1, 1, 1})
		lvl := u.KnowledgeLevel(e, someOne, 64)
		fmt.Printf("  knowledge at k=%d (t=1): E^j depth %d, common knowledge %v\n",
			k, lvl, u.CommonKnowledge(e, someOne))
	}
	return nil
}

func e09() error {
	inputs := []int{0, 1_000_000, 500_000, 250_000, 750_000}
	fmt.Printf("  %-4s %12s %16s %14s\n", "k", "ratio", "(t/n)^k", "(t/nk)^k")
	for _, k := range []int{1, 2, 3, 4} {
		rep, err := consensus.MeasureApprox(5, 1, k, inputs, consensus.TwoFacedExtremes(4, 1_000_000))
		if err != nil {
			return err
		}
		fmt.Printf("  %-4d %12.6f %16.6f %14.8f\n", k, rep.Ratio, rep.RoundByRoundBound, rep.LowerBound)
	}
	return nil
}

func e10() error {
	fmt.Printf("  %-4s %-4s %12s %8s\n", "t", "n", "messages", "n*t")
	for _, t := range []int{1, 2, 3} {
		n := 2*t + 2
		ba := consensus.NewAuthBA(n, t, 0, 0, 3)
		inputs := make([]int, n)
		inputs[0] = 1
		res, err := rounds.Run(ba, inputs, rounds.NoFaults{}, rounds.RunOptions{Rounds: ba.Rounds()})
		if err != nil {
			return err
		}
		fmt.Printf("  %-4d %-4d %12d %8d\n", t, n, res.MessagesSent, n*t)
	}
	// Message-size axis: EIG's relayed trees vs phase-king's constant
	// messages at n=9, t=2.
	inputs9 := make([]int, 9)
	for i := range inputs9 {
		inputs9[i] = i % 2
	}
	eigBytes, pkBytes, err := consensus.CompareMessageSizes(9, 2, inputs9)
	if err != nil {
		return err
	}
	fmt.Printf("  message bytes at n=9 t=2: EIG %d vs phase-king %d\n", eigBytes, pkBytes)
	return nil
}

func e11(x cli.Exploration) error {
	for _, p := range []flp.Protocol{flp.NewWaitAll(3), flp.NewWaitQuorum(3), flp.NewAdoptSwap(2)} {
		opts := cli.AnalyzeOptions(x.Options())
		if x.POR {
			opts.Independent = flp.DeliveryIndependence(p)
			opts.Visible = flp.DecisionVisibility(p)
			opts.VerifyPOR = 64
		}
		rep, err := flp.Analyze(p, opts)
		if err != nil {
			return err
		}
		fmt.Printf("  %s (states=%d, bivalent=%d)\n", flp.DescribeHorn(rep), rep.States, rep.BivalentConfigs)
		printStats(x, opts.Stats)
	}
	return nil
}

func e12() error {
	for _, depth := range []int{1, 2, 4} {
		rep, err := datalink.ChainCheck(&datalink.Handshake{Depth: depth}, 1, 1)
		if err != nil {
			return err
		}
		fmt.Printf("  handshake depth %d: chain length %d, horn: %s\n", depth, rep.ChainLength, rep.Horn)
	}
	return nil
}

func e13() error {
	rep, err := async.MeasureBenOr(5, 2, 50, []int{0, 1, 0, 1, 1}, nil, 99)
	if err != nil {
		return err
	}
	fmt.Printf("  runs=%d terminated=%d agreed=%d avg deliveries=%.1f\n",
		rep.Runs, rep.Terminated, rep.Agreed, float64(rep.TotalDeliveries)/float64(rep.Runs))
	return nil
}

func e14() error {
	fmt.Printf("  %-4s %10s %8s\n", "n", "messages", "2n-2")
	for _, n := range []int{3, 5, 8} {
		c := &consensus.TwoPhaseCommit{Procs: n}
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = spec.Commit
		}
		res, err := rounds.Run(c, inputs, rounds.NoFaults{}, rounds.RunOptions{Rounds: 2})
		if err != nil {
			return err
		}
		fmt.Printf("  %-4d %10d %8d\n", n, res.MessagesSent, 2*n-2)
	}
	// The blocking/non-blocking separation under a round-2 coordinator
	// crash.
	n := 4
	all := []int{spec.Commit, spec.Commit, spec.Commit, spec.Commit}
	crash := func() *rounds.CrashSchedule {
		return &rounds.CrashSchedule{Crashes: map[int]rounds.Crash{
			0: {Round: 2, DeliverTo: map[int]bool{}},
		}}
	}
	two := &consensus.TwoPhaseCommit{Procs: n}
	res2, err := rounds.Run(two, all, crash(), rounds.RunOptions{Rounds: two.Rounds()})
	if err != nil {
		return err
	}
	three := &consensus.ThreePhaseCommit{Procs: n}
	res3, err := rounds.Run(three, all, crash(), rounds.RunOptions{Rounds: three.Rounds()})
	if err != nil {
		return err
	}
	fmt.Printf("  coordinator crash at round 2: 2PC decisions %v (blocked), 3PC decisions %v (non-blocking)\n",
		res2.Decisions, res3.Decisions)
	return nil
}

func e15() error {
	fmt.Printf("  %-10s %10s %12s %12s\n", "(n,s)", "sync time", "async time", "(s-1)d bound")
	for _, c := range [][2]int{{4, 2}, {6, 3}, {8, 5}} {
		n, s := c[0], c[1]
		syncRes := sessions.RunSynchronous(n, s)
		asyncRes, err := sessions.RunTokenBarrier(n, s)
		if err != nil {
			return err
		}
		fmt.Printf("  (%d,%d)%5s %10.0f %12.0f %12.0f\n", n, s, "",
			syncRes.Time, asyncRes.Time, sessions.LowerBound(s, n-1))
	}
	return nil
}

func e16() error {
	net := clocks.Network{Base: 1, Epsilon: 0.5}
	fmt.Printf("  %-4s %16s %14s\n", "n", "worst-case skew", "ε(1−1/n)")
	for _, n := range []int{2, 3, 4, 8, 16} {
		adj, err := clocks.AdjustedClocks(clocks.LundeliusLynch{}, clocks.WorstCaseExecution(n, net), net)
		if err != nil {
			return err
		}
		fmt.Printf("  %-4d %16.6f %14.6f\n", n, clocks.MaxSkew(adj), clocks.TheoreticalBound(n, net))
	}
	return nil
}

func e17() error {
	rep, err := ring.CheckAnonymousSymmetry(ring.NewCountdownProtocol(3), 5, 0, 10)
	if err != nil {
		return err
	}
	fmt.Printf("  countdown protocol: all %d processes declared leadership in round %d\n", 5, rep.RoundOfViolation)
	rep, err = ring.CheckAnonymousSymmetry(ring.NewForeverProtocol(), 5, 0, 100)
	if err != nil {
		return err
	}
	fmt.Printf("  cautious protocol: symmetric and undecided after %d rounds\n", rep.RoundsRun)
	return nil
}

func e18() error {
	fmt.Printf("  %-6s %12s %12s %14s %12s %16s\n", "n", "LCR worst", "LCR best", "HS (worst ids)", "Peterson", "var-speeds msgs")
	for _, n := range []int{8, 16, 32, 64} {
		worst, err := ring.RunLCR(ring.DescendingIDs(n))
		if err != nil {
			return err
		}
		best, err := ring.RunLCR(ring.AscendingIDs(n))
		if err != nil {
			return err
		}
		hs, err := ring.RunHS(ring.DescendingIDs(n))
		if err != nil {
			return err
		}
		pet, err := ring.RunPetersonUnidirectional(ring.DescendingIDs(n))
		if err != nil {
			return err
		}
		small := make([]int, n)
		for i := range small {
			small[i] = (i + 1) % n // min id 0 sits at position n-1
		}
		vs, err := ring.RunVariableSpeeds(small)
		if err != nil {
			return err
		}
		fmt.Printf("  %-6d %12d %12d %14d %12d %16d\n",
			n, worst.Messages, best.Messages, hs.Messages, pet.Messages, vs.Messages)
	}
	return nil
}

func e19() error {
	rng := rand.New(rand.NewSource(11))
	var phases, msgs int
	runs := 100
	for i := 0; i < runs; i++ {
		res, err := ring.RunItaiRodeh(8, 8, rng, 500)
		if err != nil {
			return err
		}
		phases += res.Phases
		msgs += res.Messages
	}
	fmt.Printf("  n=8, %d runs: avg phases %.2f, avg messages %.1f\n",
		runs, float64(phases)/float64(runs), float64(msgs)/float64(runs))
	return nil
}

func e20() error {
	rw, err := registers.SearchConsensus(registers.ConsSearchConfig{
		Kind: registers.RWRegister, Values: 3, LocalStates: 2,
	})
	if err != nil {
		return err
	}
	fmt.Printf("  RW register: %d tables, %d viable, %d pairs, witness=%v\n",
		rw.TablesEnumerated, rw.TablesViable, rw.PairsChecked, rw.Found())
	rmw, err := registers.SearchConsensus(registers.ConsSearchConfig{
		Kind: registers.RMWObject, Values: 3, LocalStates: 2, Symmetric: true, StopAtFirst: true,
	})
	if err != nil {
		return err
	}
	fmt.Printf("  RMW object:  %d tables, %d viable, witness=%v (consensus number >= 2)\n",
		rmw.TablesEnumerated, rmw.TablesViable, rmw.Found())
	return nil
}

func e21(x cli.Exploration) error {
	msgs := []string{"m1", "m2", "m3", "m4"}
	res, err := datalink.RunABP(msgs, datalink.Script{
		DropData: func(step int) bool { return step%3 == 0 },
	}, 1000)
	if err != nil {
		return err
	}
	fmt.Printf("  ABP over lossy channel: delivered %d/%d in order with %d packets\n",
		len(res.Delivered), len(msgs), res.DataPackets)
	crash, err := datalink.RunABP([]string{"a", "b"}, datalink.Script{
		DropAck: func(step int) bool { return step == 1 }, CrashReceiverAt: 2,
	}, 100)
	if err != nil {
		return err
	}
	fmt.Printf("  receiver crash: delivered %v (duplicate = impossibility witness)\n", crash.Delivered)
	steal, err := datalink.RunABP([]string{"m1", "m2", "m3"}, datalink.Script{ReplayAt: 3, ReplayIndex: 0}, 100)
	if err != nil {
		return err
	}
	fmt.Printf("  packet replay: delivered %v (phantom = impossibility witness)\n", steal.Delivered)
	// The exhaustive counterpart: every loss/retransmission schedule at
	// once, over the cyclic async ABP state space.
	abp, err := datalink.NewAsyncABP(4)
	if err != nil {
		return err
	}
	opts := x.Options()
	if x.POR {
		opts.Independent = abp.Independence()
		opts.Visible = abp.ProgressVisibility()
		opts.VerifyPOR = 8
	}
	g, err := abp.CheckDelivery(opts)
	if err != nil {
		return err
	}
	fmt.Printf("  async ABP m=4: %d states over every loss schedule, delivery exact-once in order\n", g.Len())
	printStats(x, opts.Stats)
	return nil
}
