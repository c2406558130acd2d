package impossible

// Cross-cutting properties of partial-order-reduced exploration
// (ExploreOptions.Independent): the reduced graph must be deterministic at
// any worker count exactly like the full graph, every analysis verdict must
// agree between the full interleaving space and its ample-set reduction for
// the seed systems that carry independence relations, the reduction must
// actually pay (the PR's headline perf criteria), and the VerifyPOR
// falsifier must catch an unsound relation end to end.

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/datalink"
	"repro/internal/engine"
	"repro/internal/flp"
	"repro/internal/ring"
)

// flpVerdicts collects every analyzer verdict POR must preserve.
type flpVerdicts struct {
	bivalentInitial, agreement, validity, deadlock, lasso, lively bool
}

func flpVerdictsOf(r flp.Report) flpVerdicts {
	return flpVerdicts{
		bivalentInitial: r.HasBivalentInitial,
		agreement:       r.AgreementViolated,
		validity:        r.ValidityViolated,
		deadlock:        r.HasDeadlock,
		lasso:           r.NondecidingLasso != nil,
		lively:          r.Lively,
	}
}

// porAnalyze runs flp.Analyze with the protocol's independence relation and
// visibility predicate installed, checking the diamond contract on every
// sampled state.
func porAnalyze(p flp.Protocol, opts flp.AnalyzeOptions) (flp.Report, error) {
	opts.Independent = flp.DeliveryIndependence(p)
	opts.Visible = flp.DecisionVisibility(p)
	if opts.VerifyPOR == 0 {
		opts.VerifyPOR = 1
	}
	return flp.Analyze(p, opts)
}

// TestPORAgreesWithFullAnalysis checks verdict preservation for every FLP
// seed protocol at n=3, at both resilience settings, with the falsifier
// checking every state (VerifyPOR=1). At resilience 1 the reduction is
// provably vacuous (see DeliveryIndependence's resilience note) but the
// machinery still runs and must still agree.
func TestPORAgreesWithFullAnalysis(t *testing.T) {
	for _, mk := range []func(int) flp.Protocol{flp.NewWaitAll, flp.NewWaitQuorum, flp.NewAdoptSwap} {
		for res := 0; res <= 1; res++ {
			res := res
			p := mk(3)
			t.Run(fmt.Sprintf("%s-r%d", p.Name(), res), func(t *testing.T) {
				full, err := flp.Analyze(p, flp.AnalyzeOptions{Resilience: &res})
				if err != nil {
					t.Fatalf("full Analyze: %v", err)
				}
				red, err := porAnalyze(p, flp.AnalyzeOptions{Resilience: &res})
				if err != nil {
					t.Fatalf("POR Analyze: %v", err)
				}
				if flpVerdictsOf(full) != flpVerdictsOf(red) {
					t.Fatalf("verdicts differ:\nfull %+v\npor  %+v", flpVerdictsOf(full), flpVerdictsOf(red))
				}
				if res == 1 && red.States != full.States {
					// The documented negative result: crash nondeterminism
					// makes the space POR-irreducible, exactly.
					t.Fatalf("resilience-1 space reduced %d -> %d states; expected exact irreducibility", full.States, red.States)
				}
				if res == 0 && red.States >= full.States {
					t.Fatalf("crash-free space not reduced: full %d, por %d", full.States, red.States)
				}
			})
		}
	}
}

// TestPORExplorationIsDeterministic extends the engine's determinism
// contract to reduced runs through engine.Differential: at 1, 2, and 8
// workers the reduced graph must be byte-identical — state numbering,
// parent tree, edge lists — and a sound reduction of the full graph, which
// itself must equal the reference breadth-first search. The cases are a
// leveled DAG (FLP) and a cyclic space where the C3 proviso fires (async
// ABP); the ring election space follows.
func TestPORExplorationIsDeterministic(t *testing.T) {
	abp, err := datalink.NewAsyncABP(3)
	if err != nil {
		t.Fatal(err)
	}
	lcr, err := ring.NewAsyncLCR(ring.DescendingIDs(5))
	if err != nil {
		t.Fatal(err)
	}
	wq := flp.NewWaitQuorum(3)
	cases := []struct {
		name        string
		sys         core.System
		independent func(string, engine.Action, engine.Action) bool
		visible     func(string, engine.Action) bool
	}{
		{"flp-wait-quorum", flp.NewSystem(wq, nil, 0), flp.DeliveryIndependence(wq), flp.DecisionVisibility(wq)},
		{"async-abp", abp.System(), abp.Independence(), abp.ProgressVisibility()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep, err := engine.Differential(engine.DiffSpec{
				Name: c.name, Inits: c.sys.Init(), Expand: c.sys.ExpandInto,
				Independent: c.independent, Visible: c.visible,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range rep.Modes {
				if m.Mode == "por" && !m.Stats.POREnabled {
					t.Fatal("stats do not report POR enabled")
				}
			}
		})
	}
	// The ring relation preserves election reachability, not the terminal
	// set: a declared leader strands different in-flight tokens under
	// different schedules, so Differential's deadlock-preservation check
	// does not apply. Its full graph is held to the reference BFS and its
	// reduced graph to cross-worker identity.
	t.Run("async-lcr", func(t *testing.T) {
		sys := lcr.System()
		if _, err := engine.Differential(engine.DiffSpec{
			Name: "async-lcr", Inits: sys.Init(), Expand: sys.ExpandInto,
		}); err != nil {
			t.Fatal(err)
		}
		var want *engine.Result
		for _, par := range []int{1, 2, 8} {
			res, err := engine.Explore(sys.Init(), sys.ExpandInto, engine.Options{
				Parallelism: par, Independent: lcr.Independence(), VerifyPOR: 2,
			})
			if err != nil {
				t.Fatalf("par=%d: %v", par, err)
			}
			if !res.Stats.POREnabled {
				t.Fatalf("par=%d: stats do not report POR enabled", par)
			}
			// Everything but the telemetry: states, initials, edges,
			// parents, parent edges and truncation.
			if want == nil {
				want = res
				continue
			}
			if !sameResult(res, want) {
				t.Fatalf("par=%d: reduced Result differs from the one-worker run", par)
			}
		}
	})
}

// TestWaitQuorum4PORAcceptance is the PR's headline perf criterion: on the
// crash-free FLP wait-quorum space at n=4, ample-set reduction alone must
// explore at least 3x fewer states with every analysis verdict unchanged,
// and stacking it on the symmetry quotient must beat the quotient alone.
// (Measured: full 112,688 / POR ~9.2k (~12x); quotient 5,257 / POR+quotient
// ~932 — against the resilience-1 quotient baseline of 25,035 states.)
func TestWaitQuorum4PORAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("wait-quorum n=4 explores 112k states; skipped in -short")
	}
	res := 0
	p := flp.NewWaitQuorum(4)
	full, err := flp.Analyze(p, flp.AnalyzeOptions{Resilience: &res})
	if err != nil {
		t.Fatalf("full Analyze: %v", err)
	}
	red, err := porAnalyze(p, flp.AnalyzeOptions{Resilience: &res, VerifyPOR: 16})
	if err != nil {
		t.Fatalf("POR Analyze: %v", err)
	}
	if red.States*3 > full.States {
		t.Fatalf("POR explored %d states vs full %d: reduction below 3x", red.States, full.States)
	}
	if flpVerdictsOf(full) != flpVerdictsOf(red) {
		t.Fatalf("verdicts differ at n=4:\nfull %+v\npor  %+v", flpVerdictsOf(full), flpVerdictsOf(red))
	}
	canon, err := flp.PermutationCanon(p)
	if err != nil {
		t.Fatalf("PermutationCanon: %v", err)
	}
	quo, err := flp.Analyze(p, flp.AnalyzeOptions{Resilience: &res, Canon: canon})
	if err != nil {
		t.Fatalf("quotient Analyze: %v", err)
	}
	both, err := porAnalyze(p, flp.AnalyzeOptions{Resilience: &res, Canon: canon, VerifyPOR: 16})
	if err != nil {
		t.Fatalf("POR+quotient Analyze: %v", err)
	}
	if both.States >= quo.States {
		t.Fatalf("POR+quotient explored %d states, quotient alone %d: stacking did not pay", both.States, quo.States)
	}
	if flpVerdictsOf(full) != flpVerdictsOf(both) {
		t.Fatalf("verdicts differ under POR+quotient:\nfull %+v\nboth %+v", flpVerdictsOf(full), flpVerdictsOf(both))
	}
}

// TestAsyncLCRPORAcceptance is the second headline criterion: the ring
// election space at n=6 must reduce at least 3x while CheckElection still
// proves that exactly the maximum id wins and that some schedule elects it.
func TestAsyncLCRPORAcceptance(t *testing.T) {
	a, err := ring.NewAsyncLCR(ring.DescendingIDs(6))
	if err != nil {
		t.Fatal(err)
	}
	full, err := a.CheckElection(core.ExploreOptions{})
	if err != nil {
		t.Fatalf("full CheckElection: %v", err)
	}
	red, err := a.CheckElection(core.ExploreOptions{Independent: a.Independence(), VerifyPOR: 1})
	if err != nil {
		t.Fatalf("reduced CheckElection: %v", err)
	}
	if red.Len()*3 > full.Len() {
		t.Fatalf("POR explored %d states vs full %d: reduction below 3x", red.Len(), full.Len())
	}
}

// TestAsyncABPDeliveryUnderPOR checks the datalink space: the delivery
// properties hold over every schedule, with and without reduction, and the
// reduced cyclic graph stays sound (the C3 proviso keeps retransmission
// loops from starving the deferred channel direction; VerifyPOR checks the
// diamond at every state).
func TestAsyncABPDeliveryUnderPOR(t *testing.T) {
	a, err := datalink.NewAsyncABP(4)
	if err != nil {
		t.Fatal(err)
	}
	full, err := a.CheckDelivery(core.ExploreOptions{})
	if err != nil {
		t.Fatalf("full CheckDelivery: %v", err)
	}
	var st engine.Stats
	red, err := a.CheckDelivery(core.ExploreOptions{
		Stats: &st, Independent: a.Independence(), Visible: a.ProgressVisibility(), VerifyPOR: 1,
	})
	if err != nil {
		t.Fatalf("reduced CheckDelivery: %v", err)
	}
	if red.Len() > full.Len() {
		t.Fatalf("reduced graph has %d states, full %d", red.Len(), full.Len())
	}
	if st.AmpleStates == 0 || st.DeferredActions == 0 {
		t.Fatalf("no ample sets selected (ample=%d deferred=%d): reduction machinery idle", st.AmpleStates, st.DeferredActions)
	}
	if st.PORReductionFactor() <= 1 {
		t.Fatalf("POR branch reduction factor %.2f, want > 1", st.PORReductionFactor())
	}
}

// TestVerifyPORCatchesUnsoundRelation runs the falsifier end to end through
// the public Analyze API: a relation that blindly declares everything
// independent must fail the exploration with ErrPORUnsound rather than
// silently analyze a mutilated graph.
func TestVerifyPORCatchesUnsoundRelation(t *testing.T) {
	p := flp.NewWaitQuorum(3)
	_, err := flp.Analyze(p, flp.AnalyzeOptions{
		Independent: func(string, engine.Action, engine.Action) bool { return true },
		VerifyPOR:   1,
	})
	if !errors.Is(err, engine.ErrPORUnsound) {
		t.Fatalf("err = %v, want ErrPORUnsound", err)
	}
}

// sameResult reports whether a and b are the same graph: states,
// initials, labels, parent tree and truncation, and each expanded state's
// row. The rows' storage is the exploring workers' arenas, so it is laid
// out differently at each worker count and is compared row by row.
func sameResult(a, b *engine.Result) bool {
	if !slices.Equal(a.States, b.States) || !slices.Equal(a.Inits, b.Inits) ||
		!slices.Equal(a.Labels, b.Labels) || !slices.Equal(a.Parents, b.Parents) ||
		!slices.Equal(a.ParentEdges, b.ParentEdges) || a.Truncated != b.Truncated ||
		a.Expanded() != b.Expanded() {
		return false
	}
	for i := 0; i < a.Expanded(); i++ {
		if !slices.Equal(a.Row(i), b.Row(i)) {
			return false
		}
	}
	return true
}
