package impossible

// Cross-cutting properties of quotient-graph exploration (ExploreOptions.
// Canon): the quotient must be deterministic at any worker count exactly
// like the full graph, and every symmetric verdict — invariants, valence,
// fair-cycle existence — must agree between the full graph and its orbit
// quotient for the seed systems that carry canonicalizers.

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/flp"
	"repro/internal/ring"
	"repro/internal/rounds"
	"repro/internal/sharedmem"
	"repro/internal/spec"
)

// quotientWorkload pairs a system with its symmetry canonicalizer.
type quotientWorkload struct {
	name  string
	sys   core.System[string]
	canon func(string) string
}

func quotientWorkloads(t *testing.T) []quotientWorkload {
	t.Helper()
	wq := flp.NewWaitQuorum(3)
	wqCanon, err := flp.PermutationCanon(wq)
	if err != nil {
		t.Fatalf("PermutationCanon: %v", err)
	}
	crash := rounds.CrashSpace{Procs: 6, MaxFaults: 3, Rounds: 6}
	crashSys, err := crash.System()
	if err != nil {
		t.Fatalf("CrashSpace.System: %v", err)
	}
	return []quotientWorkload{
		{"peterson2", sharedmem.NewSystem(sharedmem.NewPeterson2()), sharedmem.CanonFor(sharedmem.NewPeterson2())},
		{"ticket-lock", sharedmem.NewSystem(sharedmem.NewTicketLock(3)), sharedmem.CanonFor(sharedmem.NewTicketLock(3))},
		{"flp-wait-quorum", flp.NewSystem(wq, nil, 1), wqCanon},
		{"crash-space", crashSys, crash.Canon()},
	}
}

// TestQuotientExplorationIsDeterministic extends the engine's determinism
// contract to quotient runs through engine.Differential: at 1, 2, and 8
// workers the quotient graph must be byte-identical — state numbering,
// parent tree, edge lists — with every state checked by the canon
// falsifier, and the full graph must equal the reference breadth-first
// search.
func TestQuotientExplorationIsDeterministic(t *testing.T) {
	for _, w := range quotientWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			if _, err := engine.Differential(engine.DiffSpec[string]{
				Name: w.name, Inits: w.sys.Init(), Expand: w.sys.ExpandInto, Canon: w.canon,
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestQuotientTruncationIsDeterministic pins the truncation contract for
// quotient runs: hitting MaxStates mid-quotient returns the canonical
// partial graph and the shared ErrStateLimit, byte-identically at every
// worker count — exactly the full-graph guarantee of
// TestParallelTruncationIsDeterministic, with a canonicalizer installed.
func TestQuotientTruncationIsDeterministic(t *testing.T) {
	wq := flp.NewWaitQuorum(3)
	canon, err := flp.PermutationCanon(wq)
	if err != nil {
		t.Fatalf("PermutationCanon: %v", err)
	}
	sys := flp.NewSystem(wq, nil, 1)
	if _, err := engine.Differential(engine.DiffSpec[string]{
		Name: "truncated quotient", Inits: sys.Init(), Expand: sys.ExpandInto, Canon: canon, MaxStates: 300,
	}); err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 8} {
		g, err := core.Explore[string](sys, core.ExploreOptions{Parallelism: par, MaxStates: 300, Canon: canon})
		if !errors.Is(err, core.ErrStateLimit) {
			t.Fatalf("par=%d: err = %v, want ErrStateLimit", par, err)
		}
		if g.Len() != 301 {
			t.Fatalf("par=%d: partial quotient has %d states, want 301", par, g.Len())
		}
	}
}

// TestQuotientAgreesWithFullGraph checks verdict preservation for the
// symmetric predicates each family actually cares about: the mutex
// exclusion invariant and fair-cycle existence for the shared-memory locks,
// and election safety for the crash-free async systems.
func TestQuotientAgreesWithFullGraph(t *testing.T) {
	for _, alg := range []sharedmem.Algorithm{sharedmem.NewPeterson2(), sharedmem.NewTicketLock(3)} {
		t.Run(alg.Name(), func(t *testing.T) {
			full, err := sharedmem.Explore(alg, 0)
			if err != nil {
				t.Fatalf("full explore: %v", err)
			}
			quo, err := sharedmem.ExploreWith(alg, core.ExploreOptions{Canon: sharedmem.CanonFor(alg), VerifyCanon: 1})
			if err != nil {
				t.Fatalf("quotient explore: %v", err)
			}
			// Exclusion is orbit-invariant; CheckMutex reports it via the
			// full graph, so recheck both sides agree here.
			excl := func(g *core.Graph[string]) bool {
				_, _, ok := g.CheckInvariant(func(s string) bool {
					crit := 0
					for p := 0; p < alg.NumProcs(); p++ {
						if alg.Region(p, int(s[p])) == spec.Critical {
							crit++
						}
					}
					return crit <= 1
				})
				return ok
			}
			if fe, qe := excl(full), excl(quo); fe != qe {
				t.Fatalf("exclusion verdict differs: full %v, quotient %v", fe, qe)
			}
			// Fair-cycle existence (the skeleton of every lockout argument)
			// must survive quotienting: symmetry maps fair cycles to fair
			// cycles.
			n := alg.NumProcs()
			_, fullLasso := full.FairLassoWithin(func(int) bool { return true }, core.WeakFairness, n)
			_, quoLasso := quo.FairLassoWithin(func(int) bool { return true }, core.WeakFairness, n)
			if fullLasso != quoLasso {
				t.Fatalf("fair-lasso existence differs: full %v, quotient %v", fullLasso, quoLasso)
			}
		})
	}
}

// TestWaitQuorum4QuotientAcceptance is the PR's headline perf criterion:
// on the FLP wait-quorum protocol at n=4 the process-permutation quotient
// must explore at least 2x fewer states while every analysis verdict —
// bivalence, agreement, validity, deadlock, fair lasso, decider, liveness —
// is unchanged. (Measured reduction is ~22x; 2x is the floor.)
func TestWaitQuorum4QuotientAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("wait-quorum n=4 explores 563k states; skipped in -short")
	}
	p := flp.NewWaitQuorum(4)
	canon, err := flp.PermutationCanon(p)
	if err != nil {
		t.Fatalf("PermutationCanon: %v", err)
	}
	full, err := flp.Analyze(p, flp.AnalyzeOptions{})
	if err != nil {
		t.Fatalf("full Analyze: %v", err)
	}
	quo, err := flp.Analyze(p, flp.AnalyzeOptions{Canon: canon})
	if err != nil {
		t.Fatalf("quotient Analyze: %v", err)
	}
	if quo.States*2 > full.States {
		t.Fatalf("quotient explored %d states vs full %d: reduction below 2x", quo.States, full.States)
	}
	type verdicts struct {
		bivalentInitial, agreement, validity, deadlock, lasso, decider, lively bool
	}
	vOf := func(r flp.Report) verdicts {
		return verdicts{
			bivalentInitial: r.HasBivalentInitial,
			agreement:       r.AgreementViolated,
			validity:        r.ValidityViolated,
			deadlock:        r.HasDeadlock,
			lasso:           r.NondecidingLasso != nil,
			decider:         r.DeciderFound,
			lively:          r.Lively,
		}
	}
	if vOf(full) != vOf(quo) {
		t.Fatalf("verdicts differ at n=4:\nfull     %+v\nquotient %+v", vOf(full), vOf(quo))
	}
}

// TestAsyncLCRElectionAllSchedules anchors the ringbench exploration
// workload at the root level: at n=6, every one of the n! delivery
// schedules elects the maximum id.
func TestAsyncLCRElectionAllSchedules(t *testing.T) {
	a, err := ring.NewAsyncLCR(ring.DescendingIDs(6))
	if err != nil {
		t.Fatal(err)
	}
	g, err := a.CheckElection(core.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() == 0 {
		t.Fatal("empty exploration")
	}
}
