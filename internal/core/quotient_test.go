package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/engine"
)

// twinSys is two symmetric bounded counters: state "xy" over digit bytes,
// either counter may increment up to max. Swapping the counters is a
// symmetry of the transition relation.
type twinSys struct{ max byte }

func (c twinSys) Init() []string { return []string{"00"} }

func (c twinSys) ExpandInto(s string, x *engine.Ctx[string]) {
	if s[0] < c.max {
		x.Emit(string([]byte{s[0] + 1, s[1]}), "inc0", 0)
	}
	if s[1] < c.max {
		x.Emit(string([]byte{s[0], s[1] + 1}), "inc1", 1)
	}
}

// twinCanon sorts the two counters: the representative of {xy, yx}.
func twinCanon(s string) string {
	if s[0] > s[1] {
		return string([]byte{s[1], s[0]})
	}
	return s
}

func TestExploreQuotient(t *testing.T) {
	sys := twinSys{max: '3'}
	full, err := Explore[string](sys, ExploreOptions{})
	if err != nil {
		t.Fatalf("full explore: %v", err)
	}
	if full.Len() != 16 {
		t.Fatalf("full states = %d, want 16", full.Len())
	}
	var st engine.Stats
	quo, err := Explore[string](sys, ExploreOptions{
		Parallelism: 1,
		Canon:       twinCanon,
		VerifyCanon: 1,
		Stats:       &st,
	})
	if err != nil {
		t.Fatalf("quotient explore: %v", err)
	}
	if quo.Len() != 10 {
		t.Fatalf("quotient states = %d, want 10", quo.Len())
	}
	if !st.CanonEnabled || st.ReductionFactor() <= 1 {
		t.Fatalf("missing orbit telemetry: %+v", st)
	}
	// The symmetric invariant "sum of counters ≤ 2·max" holds on both; the
	// symmetric violation "some counter maxed" is found on both.
	for _, g := range []*Graph[string]{full, quo} {
		if _, _, ok := g.CheckInvariant(func(s string) bool { return s[0] < '3' && s[1] < '3' }); ok {
			t.Fatalf("expected a maxed-counter state to be reachable")
		}
	}
}

func TestExploreQuotientUnsoundCanon(t *testing.T) {
	// Swapping unconditionally is an involution, not a projection; the
	// safety check must fail the exploration.
	swap := func(s string) string { return string([]byte{s[1], s[0]}) }
	_, err := Explore[string](twinSys{max: '3'}, ExploreOptions{Canon: swap, VerifyCanon: 1})
	if !errors.Is(err, engine.ErrCanonUnsound) {
		t.Fatalf("err = %v, want engine.ErrCanonUnsound", err)
	}
}

// TestStateIDConcurrentReaders exercises the lazy index build of an
// engine-adopted graph from many goroutines at once; under -race this
// guards the sync.Once construction in StateID.
func TestStateIDConcurrentReaders(t *testing.T) {
	g, err := Explore[string](twinSys{max: '9'}, ExploreOptions{Parallelism: 4})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < g.Len(); i++ {
				s := g.State((i + w) % g.Len())
				id, ok := g.StateID(s)
				if !ok || g.State(id) != s {
					t.Errorf("StateID(%q) = %d, %v", s, id, ok)
					return
				}
			}
			if _, ok := g.StateID("zz"); ok {
				t.Errorf("StateID of unreachable state reported ok")
			}
		}(w)
	}
	wg.Wait()
}
