package flp

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/store"
)

// TestDifferentialWaitQuorum holds the real FLP system — scratch
// expansion, byte-level permutation canon, aliasing falsifier — to the
// engine's full cross-mode oracle: full/quotient graphs byte-identical at
// workers 1, 2 and 8, under the default store and a tightly-budgeted spill
// backend, with VerifyCanon and VerifyAliasing checking every state.
func TestDifferentialWaitQuorum(t *testing.T) {
	p := NewWaitQuorum(3)
	s := newSys(p, 1)
	canon, err := PermutationCanon(p)
	if err != nil {
		t.Fatal(err)
	}
	canonB, err := PermutationCanonBytes(p)
	if err != nil {
		t.Fatal(err)
	}
	spec := engine.DiffSpec{
		Name:  "flp-wait-quorum-n3",
		Inits: s.Init(),
		Expand: func(c config, x *engine.Ctx) {
			s.ExpandInto(c, x)
		},
		Canon:          canon,
		CanonBytes:     canonB,
		VerifyAliasing: 1,
		Stores: []store.Config{
			{Kind: store.Spill, MaxBytes: 8 << 10, Dir: t.TempDir(), PageBits: 6},
		},
	}
	if _, err := engine.Differential(spec); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialWaitQuorumCrashFree runs the oracle's POR arms on the
// real stack: at resilience 0 wait-quorum n=3 is POR-reducible (at
// resilience 1 it is not), so the canon+por arm collects each state's
// actions and canonicalizes them through PermutationCanonBytes, under
// DeliveryIndependence and DecisionVisibility, with VerifyCanon and
// VerifyPOR checking every state.
func TestDifferentialWaitQuorumCrashFree(t *testing.T) {
	p := NewWaitQuorum(3)
	s := newSys(p, 0)
	canon, err := PermutationCanon(p)
	if err != nil {
		t.Fatal(err)
	}
	canonB, err := PermutationCanonBytes(p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := engine.Differential(engine.DiffSpec{
		Name:  "flp-wait-quorum-n3-crash-free",
		Inits: s.Init(),
		Expand: func(c config, x *engine.Ctx) {
			s.ExpandInto(c, x)
		},
		Canon:          canon,
		CanonBytes:     canonB,
		VerifyAliasing: 1,
		Independent:    DeliveryIndependence(p),
		Visible:        DecisionVisibility(p),
	})
	if err != nil {
		t.Fatal(err)
	}
	last := rep.Modes[len(rep.Modes)-1]
	if last.Mode != "canon+por" {
		t.Fatalf("last mode = %s, want canon+por", last.Mode)
	}
	if last.Stats.CanonHits == 0 || last.Stats.PORReductionFactor() <= 1 {
		t.Fatalf("canon+por arm: canon hits %d, POR branch reduction %.2f; want both reductions active",
			last.Stats.CanonHits, last.Stats.PORReductionFactor())
	}
}
