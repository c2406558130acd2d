package impossible

// One benchmark per experiment in EXPERIMENTS.md (E01–E21), plus the
// ablation benches DESIGN.md calls out. Each bench regenerates the
// experiment's headline quantity and reports it via b.ReportMetric, so
// `go test -bench=. -benchmem` reprints the whole evaluation.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/async"
	"repro/internal/clocks"
	"repro/internal/consensus"
	"repro/internal/core"
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

func BenchmarkE01SynthTASMutex(b *testing.B) {
	var passed uint64
	for i := 0; i < b.N; i++ {
		res, err := synth.SearchTASMutex(synth.TASSearchConfig{
			Values: 2, TryStates: 2, RequireLockoutFree: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		passed = res.Passed
	}
	b.ReportMetric(float64(passed), "fair-protocols-found")
}

func BenchmarkE02MutexValues(b *testing.B) {
	var values int
	for i := 0; i < b.N; i++ {
		rep, err := sharedmem.CheckMutex(sharedmem.NewHandoffLock(), sharedmem.CheckMutexOptions{})
		if err != nil {
			b.Fatal(err)
		}
		values = rep.ValuesUsed[0]
	}
	b.ReportMetric(float64(values), "values-for-fairness")
}

func BenchmarkE03RWMutex(b *testing.B) {
	var passed uint64
	for i := 0; i < b.N; i++ {
		res, err := synth.SearchRWMutex(synth.RWSearchConfig{Values: 2, TryStates: 2})
		if err != nil {
			b.Fatal(err)
		}
		passed = res.Passed
	}
	b.ReportMetric(float64(passed), "rw-protocols-found")
}

func BenchmarkE04KExclusion(b *testing.B) {
	var combined int
	for i := 0; i < b.N; i++ {
		rep, err := sharedmem.CheckMutex(sharedmem.NewTicketLock(4), sharedmem.CheckMutexOptions{})
		if err != nil {
			b.Fatal(err)
		}
		combined = rep.CombinedValues
	}
	b.ReportMetric(float64(combined), "joint-memory-contents")
}

func BenchmarkE05ByzantineBounds(b *testing.B) {
	var violations int
	for i := 0; i < b.N; i++ {
		e := &consensus.EIG{Procs: 3, MaxFaults: 1}
		v, err := scenario.SpliceCheck(e, 1, e.Rounds())
		if err != nil {
			b.Fatal(err)
		}
		violations = len(v.Violations)
	}
	b.ReportMetric(float64(violations), "scenario-violations")
}

func BenchmarkE06Connectivity(b *testing.B) {
	line, err := rounds.NewGraph(3, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		b.Fatal(err)
	}
	var disagreed float64
	for i := 0; i < b.N; i++ {
		f := &consensus.FloodSet{Procs: 3, MaxFaults: 1}
		v, err := scenario.CutReplayCheck(f, line, []int{1}, f.Rounds())
		if err != nil {
			b.Fatal(err)
		}
		if v.Violation != "" {
			disagreed = 1
		}
	}
	b.ReportMetric(disagreed, "split-brain-violations")
}

func BenchmarkE07ClockSyncFault(b *testing.B) {
	net := clocks.Network{Base: 1, Epsilon: 0.5}
	var skew float64
	for i := 0; i < b.N; i++ {
		e := clocks.UniformExecution(3, net)
		obs := clocks.Observe(e)
		obs[0][2].ReceivedAt -= 10
		obs[1][2].ReceivedAt += 10
		a0 := (clocks.LundeliusLynch{}).Correction(0, obs[0], net)
		a1 := (clocks.LundeliusLynch{}).Correction(1, obs[1], net)
		skew = a1 - a0
		if skew < 0 {
			skew = -skew
		}
	}
	b.ReportMetric(skew, "faulty-skew")
}

func BenchmarkE08RoundLowerBound(b *testing.B) {
	var chain float64
	for i := 0; i < b.N; i++ {
		res, err := consensus.ChainLowerBound(3, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		if res.ChainFound {
			chain = float64(res.ChainLength)
		}
	}
	b.ReportMetric(chain, "chain-length")
}

func BenchmarkE09ApproxAgreement(b *testing.B) {
	inputs := []int{0, 1_000_000, 500_000, 250_000, 750_000}
	var ratio float64
	for i := 0; i < b.N; i++ {
		rep, err := consensus.MeasureApprox(5, 1, 3, inputs, consensus.TwoFacedExtremes(4, 1_000_000))
		if err != nil {
			b.Fatal(err)
		}
		ratio = rep.Ratio
	}
	b.ReportMetric(ratio, "convergence-ratio-k3")
}

func BenchmarkE10MessageBound(b *testing.B) {
	var msgs int
	for i := 0; i < b.N; i++ {
		t := 3
		n := 2*t + 2
		ba := consensus.NewAuthBA(n, t, 0, 0, 3)
		inputs := make([]int, n)
		inputs[0] = 1
		res, err := rounds.Run(ba, inputs, rounds.NoFaults{}, rounds.RunOptions{Rounds: ba.Rounds()})
		if err != nil {
			b.Fatal(err)
		}
		msgs = res.MessagesSent
	}
	b.ReportMetric(float64(msgs), "auth-ba-messages")
}

func BenchmarkE11FLP(b *testing.B) {
	var bivalent int
	for i := 0; i < b.N; i++ {
		rep, err := flp.Analyze(flp.NewWaitQuorum(3), flp.AnalyzeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		bivalent = rep.BivalentConfigs
	}
	b.ReportMetric(float64(bivalent), "bivalent-configs")
}

func BenchmarkE12TwoGenerals(b *testing.B) {
	var chainLen int
	for i := 0; i < b.N; i++ {
		rep, err := datalink.ChainCheck(&datalink.Handshake{Depth: 4}, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		chainLen = rep.ChainLength
	}
	b.ReportMetric(float64(chainLen), "chain-length")
}

func BenchmarkE13BenOr(b *testing.B) {
	var deliveries float64
	for i := 0; i < b.N; i++ {
		rep, err := async.MeasureBenOr(5, 2, 5, []int{0, 1, 0, 1, 1}, nil, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		deliveries = float64(rep.TotalDeliveries) / float64(rep.Runs)
	}
	b.ReportMetric(deliveries, "avg-deliveries")
}

func BenchmarkE14Commit(b *testing.B) {
	var msgs int
	for i := 0; i < b.N; i++ {
		n := 8
		c := &consensus.TwoPhaseCommit{Procs: n}
		inputs := make([]int, n)
		for j := range inputs {
			inputs[j] = spec.Commit
		}
		res, err := rounds.Run(c, inputs, rounds.NoFaults{}, rounds.RunOptions{Rounds: 2})
		if err != nil {
			b.Fatal(err)
		}
		msgs = res.MessagesSent
	}
	b.ReportMetric(float64(msgs), "commit-messages-n8")
}

func BenchmarkE15Sessions(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		syncRes := sessions.RunSynchronous(8, 5)
		asyncRes, err := sessions.RunTokenBarrier(8, 5)
		if err != nil {
			b.Fatal(err)
		}
		gap = asyncRes.Time / syncRes.Time
	}
	b.ReportMetric(gap, "async-over-sync-time")
}

func BenchmarkE16ClockSkew(b *testing.B) {
	net := clocks.Network{Base: 1, Epsilon: 0.5}
	var skew float64
	for i := 0; i < b.N; i++ {
		adj, err := clocks.AdjustedClocks(clocks.LundeliusLynch{}, clocks.WorstCaseExecution(8, net), net)
		if err != nil {
			b.Fatal(err)
		}
		skew = clocks.MaxSkew(adj)
	}
	b.ReportMetric(skew, "worst-skew-n8")
	b.ReportMetric(clocks.TheoreticalBound(8, net), "bound-n8")
}

func BenchmarkE17AnonymousRing(b *testing.B) {
	var round int
	for i := 0; i < b.N; i++ {
		rep, err := ring.CheckAnonymousSymmetry(ring.NewCountdownProtocol(3), 6, 0, 10)
		if err != nil {
			b.Fatal(err)
		}
		round = rep.RoundOfViolation
	}
	b.ReportMetric(float64(round), "all-leaders-round")
}

func BenchmarkE18RingMessages(b *testing.B) {
	n := 64
	var lcr, hs int
	for i := 0; i < b.N; i++ {
		w, err := ring.RunLCR(ring.DescendingIDs(n))
		if err != nil {
			b.Fatal(err)
		}
		h, err := ring.RunHS(ring.DescendingIDs(n))
		if err != nil {
			b.Fatal(err)
		}
		lcr, hs = w.Messages, h.Messages
	}
	b.ReportMetric(float64(lcr), "lcr-worst-msgs-n64")
	b.ReportMetric(float64(hs), "hs-msgs-n64")
}

func BenchmarkE19ItaiRodeh(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	var msgs int
	for i := 0; i < b.N; i++ {
		res, err := ring.RunItaiRodeh(16, 16, rng, 1000)
		if err != nil {
			b.Fatal(err)
		}
		msgs = res.Messages
	}
	b.ReportMetric(float64(msgs), "messages-n16")
}

func BenchmarkE20WaitFree(b *testing.B) {
	var found float64
	for i := 0; i < b.N; i++ {
		res, err := registers.SearchConsensus(registers.ConsSearchConfig{
			Kind: registers.RWRegister, Values: 2, LocalStates: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Found() {
			found = 1
		}
	}
	b.ReportMetric(found, "rw-consensus-found")
}

func BenchmarkE21DataLink(b *testing.B) {
	msgs := []string{"m1", "m2", "m3", "m4", "m5"}
	var packets int
	for i := 0; i < b.N; i++ {
		res, err := datalink.RunABP(msgs, datalink.Script{
			DropData: func(step int) bool { return step%3 == 0 },
		}, 10_000)
		if err != nil {
			b.Fatal(err)
		}
		packets = res.DataPackets
	}
	b.ReportMetric(float64(packets)/float64(len(msgs)), "packets-per-message")
}

// --- Exploration engine benches ---
//
// One-worker/all-worker pairs over the two largest seed state spaces: the
// ticket-lock mutex at n=6 (41,083 states) and the FLP wait-quorum
// protocol at n=4 (563,440 states). Both run the one engine; the
// Sequential variant at one worker (the names predate the single explorer
// and stay because EXPERIMENTS.md history cites them), the Parallel
// variant at GOMAXPROCS workers. Both report throughput via states/sec.

func benchExplore(b *testing.B, sys core.System, parallel bool) {
	b.Helper()
	var states int
	for i := 0; i < b.N; i++ {
		opts := core.ExploreOptions{Parallelism: 1}
		if parallel {
			opts.Parallelism = 0
		}
		g, err := core.Explore[string](sys, opts)
		if err != nil {
			b.Fatal(err)
		}
		states = g.Len()
	}
	b.ReportMetric(float64(states)*float64(b.N)/b.Elapsed().Seconds(), "states/sec")
	b.ReportMetric(float64(states), "states")
}

func BenchmarkExploreSequentialMutex(b *testing.B) {
	benchExplore(b, sharedmem.NewSystem(sharedmem.NewTicketLock(6)), false)
}

func BenchmarkExploreParallelMutex(b *testing.B) {
	benchExplore(b, sharedmem.NewSystem(sharedmem.NewTicketLock(6)), true)
}

func BenchmarkExploreSequentialFLP(b *testing.B) {
	benchExplore(b, flp.NewSystem(flp.NewWaitQuorum(4), nil, 1), false)
}

func BenchmarkExploreParallelFLP(b *testing.B) {
	benchExplore(b, flp.NewSystem(flp.NewWaitQuorum(4), nil, 1), true)
}

// Quotient counterparts of the two exploration benches above: same systems
// under their symmetry canonicalizers. Comparing states and wall time
// against the full-graph pair reads off the orbit reduction directly.

func benchExploreQuotient(b *testing.B, sys core.System, canon engine.Canonicalizer, canonBytes func() engine.BytesCanonicalizer) {
	b.Helper()
	var st engine.Stats
	for i := 0; i < b.N; i++ {
		g, err := core.Explore[string](sys, core.ExploreOptions{Canon: canon, CanonBytes: canonBytes, Stats: &st})
		if err != nil {
			b.Fatal(err)
		}
		if g.Len() != st.States {
			b.Fatalf("stats/graph state mismatch: %d vs %d", st.States, g.Len())
		}
	}
	b.ReportMetric(float64(st.States)*float64(b.N)/b.Elapsed().Seconds(), "states/sec")
	b.ReportMetric(float64(st.States), "states")
	b.ReportMetric(st.ReductionFactor(), "orbit-reduction")
}

func BenchmarkExploreQuotientMutex(b *testing.B) {
	alg := sharedmem.NewTicketLock(6)
	benchExploreQuotient(b, sharedmem.NewSystem(alg), sharedmem.CanonFor(alg), nil)
}

func BenchmarkExploreQuotientFLP(b *testing.B) {
	p := flp.NewWaitQuorum(4)
	canon, err := flp.PermutationCanon(p)
	if err != nil {
		b.Fatal(err)
	}
	canonB, err := flp.PermutationCanonBytes(p)
	if err != nil {
		b.Fatal(err)
	}
	benchExploreQuotient(b, flp.NewSystem(p, nil, 1), canon, canonB)
}

// Partial-order-reduction counterparts over the crash-free wait-quorum n=4
// space (the resilience-1 space is provably POR-irreducible, see
// flp.DeliveryIndependence): full graph, ample-set reduction, and the
// POR+quotient stack. Comparing states against the Full bench reads off
// the reduction; por-branch is the engine's per-state branch factor saving.

func benchExplorePOR(b *testing.B, sys core.System, opts core.ExploreOptions) {
	b.Helper()
	var st engine.Stats
	opts.Stats = &st
	for i := 0; i < b.N; i++ {
		g, err := core.Explore[string](sys, opts)
		if err != nil {
			b.Fatal(err)
		}
		if g.Len() != st.States {
			b.Fatalf("stats/graph state mismatch: %d vs %d", st.States, g.Len())
		}
	}
	b.ReportMetric(float64(st.States)*float64(b.N)/b.Elapsed().Seconds(), "states/sec")
	b.ReportMetric(float64(st.States), "states")
	if st.POREnabled {
		b.ReportMetric(st.PORReductionFactor(), "por-branch")
	}
}

// Worker-count pairs behind bench-compare's allocs/state rows: the
// crash-space and async-lcr explorations `hundred -bench-json` records,
// with Stats attached as there, at one and two workers and at two sizes
// each. Run with -benchmem. allocs/state is heap allocations per
// exploration over its state count; a cost that is fixed per worker or
// per level shows as a two-worker excess that does not grow with the
// state count.

func BenchmarkExploreWorkers(b *testing.B) {
	type sized struct {
		name string
		sys  core.System
	}
	var systems []sized
	for _, r := range []int{8, 16} {
		c := rounds.CrashSpace{Procs: 8, MaxFaults: 4, Rounds: r}
		sys, err := c.System()
		if err != nil {
			b.Fatal(err)
		}
		systems = append(systems, sized{fmt.Sprintf("crash-space(r=%d)", r), sys})
	}
	for _, n := range []int{6, 7} {
		a, err := ring.NewAsyncLCR(ring.DescendingIDs(n))
		if err != nil {
			b.Fatal(err)
		}
		systems = append(systems, sized{fmt.Sprintf("async-lcr(n=%d)", n), a.System()})
	}
	for _, sys := range systems {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/w%d", sys.name, workers), func(b *testing.B) {
				var st engine.Stats
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				for i := 0; i < b.N; i++ {
					if _, err := core.Explore[string](sys.sys, core.ExploreOptions{Parallelism: workers, Stats: &st}); err != nil {
						b.Fatal(err)
					}
				}
				runtime.ReadMemStats(&after)
				b.ReportMetric(float64(st.States), "states")
				b.ReportMetric(float64(st.Depth), "levels")
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/float64(st.States), "allocs/state")
			})
		}
	}
}

// BenchmarkExploreBytes is the engine's allocation per state: one full
// exploration of wait-quorum n=3 at resilience 1 per iteration, at two
// workers as the verdicts run. Run with -benchmem; B/state is the heap
// bytes one exploration allocates over its state count, measured as
// bench/'s engine.alloc_b_per_state is, so growth copies in the engine's
// edge and span storage show here first.
func BenchmarkExploreBytes(b *testing.B) {
	sys := flp.NewSystem(flp.NewWaitQuorum(3), nil, 1)
	var states int
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		g, err := core.Explore[string](sys, core.ExploreOptions{Parallelism: 2})
		if err != nil {
			b.Fatal(err)
		}
		states = g.Len()
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(states), "states")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/float64(states), "B/state")
}

// ExpandInto microbenchmarks, one per system beside internal/flp's
// BenchmarkFLPExpandInto: one warmed expansion per op over a fixed sample
// of reachable states, about 1024 spread evenly over the first 64k the
// exploration reaches. Run with -benchmem; allocs/op is the system's own
// allocation per expansion.

func benchExpandInto(b *testing.B, sys core.System) {
	b.Helper()
	res, err := engine.Explore(sys.Init(), sys.ExpandInto, engine.Options{Parallelism: 1, MaxStates: 1 << 16})
	if err != nil && res == nil {
		b.Fatal(err)
	}
	var sample []string
	for i := 0; i < len(res.States); i += max(1, len(res.States)/1024) {
		sample = append(sample, res.States[i])
	}
	edges := 0
	x := engine.CollectBytesCtx(func([]byte, string, int) { edges++ })
	for _, s := range sample { // warm the scratch
		sys.ExpandInto(s, x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.ExpandInto(sample[i%len(sample)], x)
	}
	b.ReportMetric(float64(edges)/float64(b.N+len(sample)), "edges/op")
	b.ReportMetric(float64(len(sample)), "sample")
}

func BenchmarkExpandIntoTicketLock(b *testing.B) {
	benchExpandInto(b, sharedmem.NewSystem(sharedmem.NewTicketLock(4)))
}

func BenchmarkExpandIntoAsyncLCR(b *testing.B) {
	a, err := ring.NewAsyncLCR(ring.DescendingIDs(6))
	if err != nil {
		b.Fatal(err)
	}
	benchExpandInto(b, a.System())
}

func BenchmarkExpandIntoCrashSpace(b *testing.B) {
	sys, err := rounds.CrashSpace{Procs: 8, MaxFaults: 4, Rounds: 8}.System()
	if err != nil {
		b.Fatal(err)
	}
	benchExpandInto(b, sys)
}

func BenchmarkExpandIntoAsyncABP(b *testing.B) {
	a, err := datalink.NewAsyncABP(8)
	if err != nil {
		b.Fatal(err)
	}
	benchExpandInto(b, a.System())
}

func BenchmarkExpandIntoBenOr(b *testing.B) {
	bo, err := consensus.NewBenOrSpace(3, 1, 1, []int{0, 1, 0})
	if err != nil {
		b.Fatal(err)
	}
	benchExpandInto(b, bo.System())
}

func BenchmarkExploreFullFLPCrashFree(b *testing.B) {
	p := flp.NewWaitQuorum(4)
	benchExplorePOR(b, flp.NewSystem(p, nil, 0), core.ExploreOptions{})
}

func BenchmarkExplorePORFLPCrashFree(b *testing.B) {
	p := flp.NewWaitQuorum(4)
	benchExplorePOR(b, flp.NewSystem(p, nil, 0), core.ExploreOptions{
		Independent: flp.DeliveryIndependence(p),
		Visible:     flp.DecisionVisibility(p),
	})
}

func BenchmarkExplorePORQuotientFLPCrashFree(b *testing.B) {
	p := flp.NewWaitQuorum(4)
	canon, err := flp.PermutationCanon(p)
	if err != nil {
		b.Fatal(err)
	}
	canonB, err := flp.PermutationCanonBytes(p)
	if err != nil {
		b.Fatal(err)
	}
	benchExplorePOR(b, flp.NewSystem(p, nil, 0), core.ExploreOptions{
		Canon:       canon,
		CanonBytes:  canonB,
		Independent: flp.DeliveryIndependence(p),
		Visible:     flp.DecisionVisibility(p),
	})
}

func BenchmarkExplorePORAsyncLCR(b *testing.B) {
	a, err := ring.NewAsyncLCR(ring.DescendingIDs(7))
	if err != nil {
		b.Fatal(err)
	}
	benchExplorePOR(b, a.System(), core.ExploreOptions{Independent: a.Independence()})
}

// --- Ablation benches (DESIGN.md) ---

// chainSys is a plain linear system used to weigh exploration costs: its
// states are the counter's fixed-width 8-byte encodings, emitted as bytes.
type chainSys struct{ n int }

func (c chainSys) Init() []string { return []string{string(make([]byte, 8))} }

func (c chainSys) ExpandInto(s string, x *engine.Ctx) {
	if i := binary.LittleEndian.Uint64([]byte(s)); i < uint64(c.n) {
		x.Scratch = binary.LittleEndian.AppendUint64(x.Scratch[:0], i+1)
		x.EmitBytes(x.Scratch, "inc", 0)
	}
}

// stringChainSys is the same system over states that grow by a byte a
// step, materialized as strings, to measure the cost of long, allocated
// state encodings in the explorer.
type stringChainSys struct{ n int }

func (c stringChainSys) Init() []string { return []string{string(make([]byte, 1))} }

func (c stringChainSys) ExpandInto(s string, x *engine.Ctx) {
	if len(s) < c.n {
		x.Emit(s+"x", "inc", 0)
	}
}

func BenchmarkAblationCanonicalizationInt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Explore[string](chainSys{n: 2000}, core.ExploreOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCanonicalizationString(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Explore[string](stringChainSys{n: 2000}, core.ExploreOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSymmetryOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := synth.SearchTASMutex(synth.TASSearchConfig{
			Values: 2, TryStates: 2, Symmetric: true, RequireLockoutFree: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSymmetryOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := synth.SearchTASMutex(synth.TASSearchConfig{
			Values: 2, TryStates: 2, Symmetric: false, RequireLockoutFree: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSearchOrderBFSValence(b *testing.B) {
	// Valence propagation over the wait-quorum graph: the BFS-built graph
	// plus the backward fixpoint, the core of every bivalence argument.
	rep, err := flp.Analyze(flp.NewWaitQuorum(3), flp.AnalyzeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	_ = rep
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flp.Analyze(flp.NewWaitQuorum(3), flp.AnalyzeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE08KnowledgeLevels(b *testing.B) {
	someOne := func(e knowledge.Execution) bool {
		for _, v := range e.Inputs {
			if v == 1 {
				return true
			}
		}
		return false
	}
	var ck float64
	for i := 0; i < b.N; i++ {
		u, err := knowledge.NewCrashUniverse(3, 1, 2)
		if err != nil {
			b.Fatal(err)
		}
		e, _ := u.Find([]int{1, 1, 1})
		if u.CommonKnowledge(e, someOne) {
			ck = 1
		}
	}
	b.ReportMetric(ck, "common-knowledge-at-t+1")
}

// Layer benchmarks for the verdict path. BenchmarkVerdictFull is the
// whole FLP verdict on wait-quorum n=4 at resilience 1 (one exploration
// and the analysis passes over its graph); BenchmarkGraphPasses
// times the analysis passes alone, one sub-benchmark each, on one
// prebuilt graph of the same system. Both report allocations, so
// `-benchmem` reads off B/op for the graph layout and for each pass that
// indexes it.

func BenchmarkVerdictFull(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := flp.Analyze(flp.NewWaitQuorum(4), flp.AnalyzeOptions{Parallelism: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.States), "states")
	}
}

// BenchmarkVerdictReduced is the symmetric verdict: wait-quorum n=5 at
// resilience 0 under the permutation canon (string and byte forms) and
// ample-set POR, where canonicalization is nearly all of the work.
func BenchmarkVerdictReduced(b *testing.B) {
	p := flp.NewWaitQuorum(5)
	canon, err := flp.PermutationCanon(p)
	if err != nil {
		b.Fatal(err)
	}
	canonB, err := flp.PermutationCanonBytes(p)
	if err != nil {
		b.Fatal(err)
	}
	res := 0
	opts := flp.AnalyzeOptions{
		Resilience: &res, Parallelism: 2,
		Canon: canon, CanonBytes: canonB,
		Independent: flp.DeliveryIndependence(p), Visible: flp.DecisionVisibility(p),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := flp.Analyze(p, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.States), "states")
	}
}

// BenchmarkPermutationCanon times one canonicalization in each form of the
// wait-quorum permutation canon at n = 4, 5 and 6 (24, 120 and 720
// relabelings a configuration). The inputs are the raw successors of the
// first representatives of each reduced crash-free exploration, so most of
// them are remapped, as on the exploration path; ns/op is per
// configuration.
func BenchmarkPermutationCanon(b *testing.B) {
	const inputs = 4096
	for _, n := range []int{4, 5, 6} {
		p := flp.NewWaitQuorum(n)
		canon, err := flp.PermutationCanon(p)
		if err != nil {
			b.Fatal(err)
		}
		canonB, err := flp.PermutationCanonBytes(p)
		if err != nil {
			b.Fatal(err)
		}
		sys := flp.NewSystem(p, nil, 0)
		g, err := core.Explore[string](sys, core.ExploreOptions{
			Canon: canon, CanonBytes: canonB,
			Independent: flp.DeliveryIndependence(p), Visible: flp.DecisionVisibility(p),
		})
		if err != nil {
			b.Fatal(err)
		}
		var raw []string
		for i := 0; i < g.Len() && len(raw) < inputs; i++ {
			for _, st := range core.StepsOf(sys, g.State(i)) {
				raw = append(raw, st.To)
			}
		}
		b.Run(fmt.Sprintf("n=%d/string", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				canon(raw[i%len(raw)])
			}
		})
		b.Run(fmt.Sprintf("n=%d/bytes", n), func(b *testing.B) {
			rawB := make([][]byte, len(raw))
			for i, s := range raw {
				rawB[i] = []byte(s)
			}
			f := canonB()
			var dst []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = f(dst[:0], rawB[i%len(rawB)])
			}
		})
	}
}

func BenchmarkGraphPasses(b *testing.B) {
	const n = 4
	p := flp.NewWaitQuorum(n)
	g, err := core.Explore[string](flp.NewSystem(p, nil, 1), core.ExploreOptions{Parallelism: 2})
	if err != nil {
		b.Fatal(err)
	}
	// A configuration is packed: one crash byte (n ≤ 8), then n process
	// states of Init's width; a process state decides through the protocol.
	w := len(p.Init(0, 0))
	decide := func(c string) (int, bool) {
		for q := 0; q < n; q++ {
			if v, ok := p.Decide(q, c[1+q*w:1+(q+1)*w]); ok {
				return v, true
			}
		}
		return 0, false
	}
	undecided := make([]bool, g.Len())
	for i := range undecided {
		_, decided := decide(g.State(i))
		undecided[i] = !decided
	}
	// The deepest state's BFS path is the trace to embed, as Refine
	// embeds an observed run.
	tr := g.PathTo(g.Len() - 1)
	val, err := g.Valence(func(i int) (int, bool) { return decide(g.State(i)) })
	if err != nil {
		b.Fatal(err)
	}
	isUndecided := func(i int) bool { return undecided[i] }
	passes := []struct {
		name string
		run  func(b *testing.B)
	}{
		{"valence", func(b *testing.B) {
			if _, err := g.Valence(func(i int) (int, bool) { return decide(g.State(i)) }); err != nil {
				b.Fatal(err)
			}
		}},
		{"lasso", func(b *testing.B) { g.FairLassoWithin(isUndecided, core.WeakFairness, n) }},
		{"decider", func(b *testing.B) { g.Decider(val) }},
		{"reach", func(b *testing.B) { g.ReachableWithin(g.Initials(), isUndecided) }},
		{"embed", func(b *testing.B) {
			if emb := g.EmbedTrace(tr); !emb.Ok {
				b.Fatalf("the graph's own path fails to embed at event %d", emb.FailAt)
			}
		}},
	}
	for _, p := range passes {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.run(b)
			}
			b.ReportMetric(float64(g.Len()), "states")
		})
	}
}
