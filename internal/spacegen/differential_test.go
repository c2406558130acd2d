package spacegen

import (
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/store"
)

// TestDifferentialOracle is the tentpole acceptance test: 200+ generated
// spaces, each run through every mode combination (sequential, parallel x2
// and x8, symmetry quotient, ample-set POR, quotient+POR) with fingerprint,
// verdict and Stats-invariant equality asserted by engine.Differential
// against the planted truth. Every space also re-runs full mode under the
// spill store at a deliberately tiny budget (small pages so even these
// spaces cross the spill threshold), which must come out byte-identical to
// the mem backend; Dir is left empty so each run gets — and cleans up — its
// own segment directory.
func TestDifferentialOracle(t *testing.T) {
	shapes := []Config{
		{Families: 1, MaxStates: 6, MaxMult: 2, MaxExtra: 3, MaxSinks: 2},
		{Families: 2, MaxStates: 5, MaxMult: 2, MaxExtra: 2, MaxSinks: 2},
		{Families: 2, MaxStates: 4, MaxMult: 3, MaxExtra: 3, MaxSinks: 1},
		{Families: 3, MaxStates: 4, MaxMult: 2, MaxExtra: 2, MaxSinks: 2},
	}
	const seedsPerShape = 55 // 4 shapes x 55 = 220 spaces
	ran := 0
	for _, shape := range shapes {
		for seed := uint64(0); seed < seedsPerShape; seed++ {
			cfg := shape
			cfg.Seed = seed
			sp := Generate(cfg)
			if sp.Truth.States > 30_000 {
				// Bound per-space work; the knobs make this rare.
				continue
			}
			spec := sp.Spec()
			spec.Stores = []store.Config{{Kind: store.Spill, MaxBytes: 1 << 9, PageBits: 4}}
			if _, err := engine.Differential(spec); err != nil {
				t.Fatalf("divergence on %s:\n  %v\n  replay: %s",
					sp.Describe(), err, ReplayLine(cfg, ""))
			}
			ran++
		}
	}
	if ran < 200 {
		t.Fatalf("only %d spaces ran the full oracle; need >= 200", ran)
	}
	t.Logf("oracle passed on %d generated spaces", ran)
}

// TestDifferentialChainOracle covers the deep-narrow chain topology: the
// regime where the level loop pays a barrier every handful of states and
// mostly takes its sequential small-frontier bailout. Every space runs the
// full oracle at every worker count against the closed-form chain truth;
// one deep braid additionally runs the acceptance worker grid 1/2/8/16.
func TestDifferentialChainOracle(t *testing.T) {
	shapes := []Config{
		{Chain: 900, MaxMult: 1},  // single lane: pure chain, frontier 1
		{Chain: 600, MaxMult: 3},  // few lanes, odd/even depth mix
		{Chain: 1800, MaxMult: 2}, // planted depth in the thousands
	}
	for _, shape := range shapes {
		for seed := uint64(0); seed < 5; seed++ {
			cfg := shape
			cfg.Seed = seed
			sp := Generate(cfg)
			if _, err := engine.Differential(sp.Spec()); err != nil {
				t.Fatalf("divergence on %s:\n  %v\n  replay: %s",
					sp.Describe(), err, ReplayLine(cfg, ""))
			}
		}
	}
	cfg := Config{Seed: 1, Chain: 4000, MaxMult: 4}
	sp := Generate(cfg)
	spec := sp.Spec()
	spec.Workers = []int{1, 2, 8, 16}
	if _, err := engine.Differential(spec); err != nil {
		t.Fatalf("divergence on %s:\n  %v\n  replay: %s",
			sp.Describe(), err, ReplayLine(cfg, ""))
	}
}

// TestDifferentialCatchesPoisonedCanon plants the broken (rotating,
// non-idempotent) canonicalizer and requires the engine's canon falsifier
// to reject it deterministically.
func TestDifferentialCatchesPoisonedCanon(t *testing.T) {
	caught := 0
	for seed := uint64(0); seed < 40; seed++ {
		sp := Generate(Config{Seed: seed, Families: 2, MaxStates: 4, MaxMult: 2, MaxExtra: 2, MaxSinks: 1})
		poisoned, ok := sp.PoisonedCanon()
		if !ok {
			continue
		}
		spec := sp.Spec()
		spec.Canon = poisoned
		spec.Truth = nil // the quotient truth no longer applies
		_, err := engine.Differential(spec)
		if err == nil {
			t.Fatalf("poisoned canon not caught on %s\n  replay: %s", sp.Describe(), ReplayLine(sp.Cfg, "canon"))
		}
		if !errors.Is(err, engine.ErrCanonUnsound) {
			t.Fatalf("poisoned canon surfaced as %v, want ErrCanonUnsound", err)
		}
		caught++
	}
	if caught == 0 {
		t.Fatal("no seed produced a poisonable space; generator knobs too small")
	}
}

// TestDifferentialCatchesPoisonedIndependence plants the everything-commutes
// independence relation and requires the POR falsifier to reject it.
func TestDifferentialCatchesPoisonedIndependence(t *testing.T) {
	caught := 0
	for seed := uint64(0); seed < 40; seed++ {
		sp := Generate(Config{Seed: seed, Families: 2, MaxStates: 5, MaxMult: 2, MaxExtra: 3, MaxSinks: 1})
		poisoned, ok := sp.PoisonedIndependence()
		if !ok {
			continue
		}
		spec := sp.Spec()
		spec.Independent = AdaptIndependence(poisoned)
		spec.Truth = nil // reduction under a bogus relation proves nothing
		_, err := engine.Differential(spec)
		if err == nil {
			t.Fatalf("poisoned independence not caught on %s\n  replay: %s", sp.Describe(), ReplayLine(sp.Cfg, "indep"))
		}
		if !errors.Is(err, engine.ErrPORUnsound) {
			t.Fatalf("poisoned independence surfaced as %v, want ErrPORUnsound", err)
		}
		caught++
	}
	if caught == 0 {
		t.Fatal("no seed produced a poisonable space; generator knobs too small")
	}
}

// TestDifferentialTruncation checks the oracle stays coherent when MaxStates
// cuts exploration short: no truth assertions, but all modes and worker
// counts must still agree with themselves.
func TestDifferentialTruncation(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		sp := Generate(Config{Seed: seed, Families: 2, MaxStates: 6, MaxMult: 2, MaxExtra: 3, MaxSinks: 1})
		spec := sp.Spec()
		spec.MaxStates = sp.Truth.States / 2
		if spec.MaxStates < 1 {
			continue
		}
		spec.Truth = nil // counts are unreachable under truncation
		if _, err := engine.Differential(spec); err != nil {
			t.Fatalf("truncated run diverged on %s: %v", sp.Describe(), err)
		}
	}
}
