package core_test

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/flp"
	"repro/internal/spacegen"
)

// passCase is one graph the analysis passes are checked on, with a
// decision function and an allowed state set.
type passCase struct {
	name   string
	g      *core.Graph[string]
	decide func(i int) (int, bool)
	inH    []bool
}

// spaceSys adapts a spacegen space to core.System.
type spaceSys struct{ sp *spacegen.Space }

func (s spaceSys) Init() []string                      { return []string{s.sp.Init()} }
func (s spaceSys) ExpandInto(st string, x *engine.Ctx) { s.sp.ExpandFunc()(st, x) }

// passCases builds the oracle's graphs: random systems with cycles and
// self-loops, truncated random systems, spacegen product spaces and the
// flp wait-quorum n=3 r=1 graph. Each gets a seeded random decision
// function and allowed set, the flp graph its protocol's own decisions
// and its undecided states, as the bivalence verdict asks.
func passCases(t *testing.T) []passCase {
	t.Helper()
	var cases []passCase
	random := func(name string, g *core.Graph[string], seed int64) {
		rng := rand.New(rand.NewSource(seed))
		dec := make([]int, g.Len())
		inH := make([]bool, g.Len())
		for i := range dec {
			dec[i] = -1
			if rng.Intn(4) == 0 {
				dec[i] = rng.Intn(3)
			}
			inH[i] = rng.Intn(5) != 0
		}
		cases = append(cases, passCase{name, g, func(i int) (int, bool) { return dec[i], dec[i] >= 0 }, inH})
	}
	for seed := int64(0); seed < 200; seed++ {
		g, err := core.Explore[string](core.RandomSystem(seed), core.ExploreOptions{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		random(fmt.Sprintf("random/%d", seed), g, seed)
		if g.Len() < 6 {
			continue
		}
		cut, err := core.Explore[string](core.RandomSystem(seed), core.ExploreOptions{Parallelism: 2, MaxStates: g.Len() / 2})
		if !errors.Is(err, core.ErrStateLimit) {
			t.Fatalf("random/%d at half its states: err = %v, want ErrStateLimit", seed, err)
		}
		random(fmt.Sprintf("random/%d/truncated", seed), cut, seed)
	}
	for seed := uint64(0); seed < 20; seed++ {
		sp := spacegen.Generate(spacegen.Config{Seed: seed, Families: 2, MaxStates: 6, MaxMult: 2, MaxExtra: 3, MaxSinks: 1})
		g, err := core.Explore[string](spaceSys{sp}, core.ExploreOptions{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		random(fmt.Sprintf("spacegen/%d", seed), g, int64(seed))
		c := cases[len(cases)-1]
		c.name += "/planted"
		c.decide = func(i int) (int, bool) {
			s := g.State(i)
			h := fnv.New32a()
			h.Write([]byte(s))
			return int(h.Sum32() % 3), sp.DecidedState(s)
		}
		cases = append(cases, c)
	}
	const n = 3
	p := flp.NewWaitQuorum(n)
	g, err := core.Explore[string](flp.NewSystem(p, nil, 1), core.ExploreOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A configuration is packed: one crash byte, then n process states of
	// Init's width.
	w := len(p.Init(0, 0))
	decide := func(i int) (int, bool) {
		c := g.State(i)
		for q := 0; q < n; q++ {
			if v, ok := p.Decide(q, c[1+q*w:1+(q+1)*w]); ok {
				return v, true
			}
		}
		return 0, false
	}
	undecided := make([]bool, g.Len())
	for i := range undecided {
		_, decided := decide(i)
		undecided[i] = !decided
	}
	cases = append(cases, passCase{"flp/wait-quorum/n=3/r=1", g, decide, undecided})
	return cases
}

// TestValenceMatchesReference: the Tarjan valence pass gives every state
// the mask the backward propagation over a reverse CSR gives it.
func TestValenceMatchesReference(t *testing.T) {
	for _, c := range passCases(t) {
		if msg := core.ValenceReferenceDiff(c.g, c.decide); msg != "" {
			t.Fatalf("%s: %s", c.name, msg)
		}
	}
}

// TestSCCsMatchReference: the allocation-free Tarjan pass hands out the
// same components, in the same order and each in the same state order, as
// the [][]int Tarjan it replaced, on the allowed set and on every state.
func TestSCCsMatchReference(t *testing.T) {
	for _, c := range passCases(t) {
		all := make([]bool, c.g.Len())
		for i := range all {
			all[i] = true
		}
		for _, inH := range [][]bool{c.inH, all} {
			if msg := core.SCCReferenceDiff(c.g, inH); msg != "" {
				t.Fatalf("%s: %s", c.name, msg)
			}
		}
	}
}

// TestGraphPassesBytes bounds what Valence and FairLassoWithin allocate
// per state on the wait-quorum n=3 r=1 graph (4,528 states), as the
// verdict runs them. Valence holds one mask and one Tarjan entry per
// state, 16 B, and the lasso the allowed set and one Tarjan entry, 9 B,
// plus their stacks. Their measured 18.2 and 10.2 B/state, with 10%
// headroom, are the bounds; the reverse-CSR Valence and the
// per-component [][]int lasso these passes replaced allocated 50.8 and
// 14.3 B/state here.
func TestGraphPassesBytes(t *testing.T) {
	const n = 3
	p := flp.NewWaitQuorum(n)
	g, err := core.Explore[string](flp.NewSystem(p, nil, 1), core.ExploreOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := len(p.Init(0, 0))
	dec := make([]int8, g.Len())
	for i := range dec {
		dec[i] = -1
		c := g.State(i)
		for q := 0; q < n; q++ {
			if v, ok := p.Decide(q, c[1+q*w:1+(q+1)*w]); ok {
				dec[i] = int8(v)
				break
			}
		}
	}
	decide := func(i int) (int, bool) { return int(dec[i]), dec[i] >= 0 }
	undecided := func(i int) bool { return dec[i] < 0 }
	// The least of three runs, as TotalAlloc is process-wide.
	perState := func(pass func()) float64 {
		least := math.Inf(1)
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			pass()
			runtime.ReadMemStats(&after)
			least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/float64(g.Len()))
		}
		return least
	}
	for _, c := range []struct {
		name  string
		bound float64
		pass  func()
	}{
		{"Valence", 1.1 * 18.2, func() {
			if _, err := g.Valence(decide); err != nil {
				t.Fatal(err)
			}
		}},
		{"FairLassoWithin", 1.1 * 10.2, func() { g.FairLassoWithin(undecided, core.WeakFairness, n) }},
	} {
		b := perState(c.pass)
		t.Logf("%s: %.1f B/state over %d states", c.name, b, g.Len())
		if b > c.bound {
			t.Errorf("%s allocates %.1f B/state, want at most %.1f", c.name, b, c.bound)
		}
	}
}
