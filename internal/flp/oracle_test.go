package flp

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/store"
)

// referenceAnalyze is the re-exploring form of Analyze, kept as its oracle:
// it decodes configurations wherever a pass needs a decision, and checks
// validity by exploring each uniform input vector as a graph of its own,
// with the main exploration's options minus its telemetry. Its validity
// check reads every process's decision, as Analyze's does.
func referenceAnalyze(p Protocol, opts AnalyzeOptions) (Report, error) {
	n := p.NumProcs()
	resilience := 1
	if opts.Resilience != nil {
		resilience = *opts.Resilience
	}
	eopts := engine.Options{
		MaxStates: opts.MaxStates, Parallelism: opts.Parallelism,
		Canon: opts.Canon, CanonBytes: opts.CanonBytes,
		Independent: opts.Independent, Visible: opts.Visible, Store: opts.Store,
	}
	explore := func(vectors [][]int) (*core.Graph[config], error) {
		return core.Explore[config](NewSystem(p, vectors, resilience), eopts)
	}
	l := mustLayout(p)
	// decided returns every decided process's value, in process order.
	decided := func(c config) []int {
		var vals []int
		for q := 0; q < n; q++ {
			if v, ok := p.Decide(q, l.state(c, q)); ok {
				vals = append(vals, v)
			}
		}
		return vals
	}
	g, err := explore(allBinaryVectors(n))
	if err != nil {
		return Report{}, err
	}
	rep := Report{Protocol: p.Name(), States: g.Len(), Edges: g.NumEdges(), Lossy: opts.Store.Lossy()}
	val, err := g.Valence(func(i int) (int, bool) {
		if vals := decided(g.State(i)); len(vals) > 0 {
			return vals[0], true
		}
		return 0, false
	})
	if err != nil {
		return rep, err
	}
	_, rep.HasBivalentInitial = g.BivalentInitial(val)
	for i := 0; i < g.Len(); i++ {
		if val.IsBivalent(i) {
			rep.BivalentConfigs++
		}
	}
	_, rep.DeciderFound = g.Decider(val)
	if _, tr, ok := g.CheckInvariant(func(c config) bool {
		vals := decided(c)
		for _, v := range vals {
			if v != vals[0] {
				return false
			}
		}
		return true
	}); !ok {
		rep.AgreementViolated, rep.AgreementWitness = true, tr
	}
	for _, v := range []int{0, 1} {
		uniform := make([]int, n)
		for q := range uniform {
			uniform[q] = v
		}
		gu, err := explore([][]int{uniform})
		if err != nil {
			return rep, err
		}
		if _, _, ok := gu.CheckInvariant(func(c config) bool {
			for _, d := range decided(c) {
				if d != v {
					return false
				}
			}
			return true
		}); !ok {
			rep.ValidityViolated = true
		}
	}
	undecided := func(i int) bool { return len(decided(g.State(i))) == 0 }
	if lasso, ok := g.FairLassoWithin(undecided, core.WeakFairness, n); ok {
		rep.NondecidingLasso = &lasso
	}
	for _, i := range g.Terminals() {
		if undecided(i) {
			rep.HasDeadlock, rep.UndecidedDeadlock = true, g.PathTo(i)
			break
		}
	}
	rep.Lively = !rep.AgreementViolated && !rep.ValidityViolated &&
		rep.NondecidingLasso == nil && !rep.HasDeadlock
	return rep, nil
}

// TestAnalyzeMatchesReexploration holds Analyze, which reads every verdict
// off one graph, to referenceAnalyze, which explores the uniform input
// vectors again for validity: the Reports, witnesses included, must be
// equal for every protocol at n ≤ 3 and resilience 0–2, in every mode the
// protocol supports among full, canon, POR and canon+POR, at 1 and 2
// workers, on the mem store and on a tightly budgeted spill store.
func TestAnalyzeMatchesReexploration(t *testing.T) {
	var protos []Protocol
	for _, n := range []int{2, 3} {
		protos = append(protos, NewWaitAll(n), NewWaitQuorum(n), NewAdoptSwap(n), constProto{n: n}, flipProto{n: n})
	}
	for _, p := range protos {
		type mode struct {
			name string
			set  func(*AnalyzeOptions)
		}
		setPOR := func(o *AnalyzeOptions) {
			o.Independent, o.Visible = DeliveryIndependence(p), DecisionVisibility(p)
		}
		modes := []mode{{"full", func(*AnalyzeOptions) {}}, {"por", setPOR}}
		if canon, err := PermutationCanon(p); err == nil {
			canonB, err := PermutationCanonBytes(p)
			if err != nil {
				t.Fatal(err)
			}
			setCanon := func(o *AnalyzeOptions) { o.Canon, o.CanonBytes = canon, canonB }
			modes = append(modes,
				mode{"canon", setCanon},
				mode{"canon+por", func(o *AnalyzeOptions) { setCanon(o); setPOR(o) }})
		}
		for resilience := 0; resilience <= 2; resilience++ {
			for _, m := range modes {
				for _, workers := range []int{1, 2} {
					for _, kind := range []store.Kind{store.Mem, store.Spill} {
						name := fmt.Sprintf("%s/n=%d/r=%d/%s/w=%d/%s", p.Name(), p.NumProcs(), resilience, m.name, workers, kind)
						t.Run(name, func(t *testing.T) {
							opts := AnalyzeOptions{Resilience: intPtr(resilience), Parallelism: workers}
							if kind == store.Spill {
								opts.Store = store.Config{Kind: store.Spill, MaxBytes: 8 << 10, Dir: t.TempDir(), PageBits: 6}
							}
							m.set(&opts)
							got, err := Analyze(p, opts)
							if err != nil {
								t.Fatalf("Analyze: %v", err)
							}
							want, err := referenceAnalyze(p, opts)
							if err != nil {
								t.Fatalf("referenceAnalyze: %v", err)
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("Reports differ:\nAnalyze   %+v\nreference %+v", got, want)
							}
						})
					}
				}
			}
		}
	}
}
