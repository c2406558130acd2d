package registers

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// A clean sequential history: write 1, then read 1.
func TestSequentialHistoryIsAtomic(t *testing.T) {
	h := []Op{
		{Proc: 0, Kind: Write, Value: 1, Start: 0, End: 1},
		{Proc: 1, Kind: Read, Value: 1, Start: 2, End: 3},
	}
	for name, check := range map[string]func([]Op, int) (bool, error){
		"atomic": IsAtomic, "regular": IsRegular, "safe": IsSafe,
	} {
		ok, err := check(h, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !ok {
			t.Errorf("%s should accept the sequential history", name)
		}
	}
}

// The new/old inversion: two sequential reads overlapping one write, the
// first returning the new value and the second the old one. Regular
// allows it; atomic forbids it — Lamport's §2.3 distinction.
func TestNewOldInversionSeparatesRegularFromAtomic(t *testing.T) {
	h := []Op{
		{Proc: 0, Kind: Write, Value: 1, Start: 0, End: 10},
		{Proc: 1, Kind: Read, Value: 1, Start: 1, End: 2}, // new value
		{Proc: 1, Kind: Read, Value: 0, Start: 3, End: 4}, // then old again
	}
	regular, err := IsRegular(h, 0)
	if err != nil {
		t.Fatalf("IsRegular: %v", err)
	}
	if !regular {
		t.Error("regular semantics should allow the new/old inversion")
	}
	atomic, err := IsAtomic(h, 0)
	if err != nil {
		t.Fatalf("IsAtomic: %v", err)
	}
	if atomic {
		t.Error("atomic semantics must forbid the new/old inversion")
	}
}

// A read overlapping a write may return garbage under safe semantics but
// not under regular semantics.
func TestSafeAllowsGarbageDuringWrites(t *testing.T) {
	h := []Op{
		{Proc: 0, Kind: Write, Value: 1, Start: 0, End: 10},
		{Proc: 1, Kind: Read, Value: 42, Start: 1, End: 2},
	}
	safe, err := IsSafe(h, 0)
	if err != nil {
		t.Fatalf("IsSafe: %v", err)
	}
	if !safe {
		t.Error("safe semantics should allow any value during a write")
	}
	regular, err := IsRegular(h, 0)
	if err != nil {
		t.Fatalf("IsRegular: %v", err)
	}
	if regular {
		t.Error("regular semantics must reject a value no write produced")
	}
}

func TestStaleReadRejectedEverywhere(t *testing.T) {
	// A read entirely after a write must see it.
	h := []Op{
		{Proc: 0, Kind: Write, Value: 7, Start: 0, End: 1},
		{Proc: 1, Kind: Read, Value: 0, Start: 2, End: 3},
	}
	for name, check := range map[string]func([]Op, int) (bool, error){
		"atomic": IsAtomic, "regular": IsRegular, "safe": IsSafe,
	} {
		ok, err := check(h, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ok {
			t.Errorf("%s should reject the stale read", name)
		}
	}
}

func TestValidateRejectsBadOps(t *testing.T) {
	bad := []Op{{Proc: 0, Kind: Write, Value: 1, Start: 2, End: 1}}
	if _, err := IsAtomic(bad, 0); err == nil {
		t.Error("inverted interval should be rejected")
	}
	badKind := []Op{{Proc: 0, Kind: OpKind(9), Value: 1, Start: 0, End: 1}}
	if _, err := IsRegular(badKind, 0); err == nil {
		t.Error("bad kind should be rejected")
	}
}

// TestCanonicalTASConsensusWorks verifies the classic protocol against the
// full wait-free consensus specification.
func TestCanonicalTASConsensusWorks(t *testing.T) {
	table := CanonicalTASConsensus(2)
	if !soloValid(table, 2, 3) {
		t.Fatal("canonical protocol fails solo validity")
	}
	ok, err := newConsChecker(2, 3, 0).checkPair(table, table)
	if err != nil {
		t.Fatalf("checkPair: %v", err)
	}
	if !ok {
		t.Fatal("canonical TAS consensus fails the checker")
	}
}

// TestRWRegisterCannotSolveConsensus is E20's negative half: exhaustive
// search over every 2-process protocol using one read/write register
// (2 local states; 2 then 3 values) finds no wait-free consensus protocol
// — consensus number 1.
func TestRWRegisterCannotSolveConsensus(t *testing.T) {
	for _, values := range []int{2, 3} {
		res, err := SearchConsensus(ConsSearchConfig{
			Kind:        RWRegister,
			Values:      values,
			LocalStates: 2,
		})
		if err != nil {
			t.Fatalf("SearchConsensus(values=%d): %v", values, err)
		}
		if res.Found() {
			t.Fatalf("values=%d: no RW protocol should solve consensus, found one (viable=%d pairs=%d)",
				values, res.TablesViable, res.PairsChecked)
		}
		if res.TablesEnumerated == 0 {
			t.Fatal("search enumerated nothing")
		}
	}
}

// TestRMWObjectSolvesConsensus is E20's positive half: the same search
// over unrestricted read-modify-write tables finds a witness — and the
// separation between the two searches is exactly Herlihy's hierarchy gap.
func TestRMWObjectSolvesConsensus(t *testing.T) {
	res, err := SearchConsensus(ConsSearchConfig{
		Kind:        RMWObject,
		Values:      3,
		LocalStates: 2,
		Symmetric:   true,
		StopAtFirst: true,
	})
	if err != nil {
		t.Fatalf("SearchConsensus: %v", err)
	}
	if !res.Found() {
		t.Fatalf("RMW search should find the test-and-set consensus protocol (viable=%d)", res.TablesViable)
	}
	// Re-verify the witness independently.
	w := *res.Witness
	ok, err := newConsChecker(2, 3, 0).checkPair(w[0], w[1])
	if err != nil {
		t.Fatalf("checkPair: %v", err)
	}
	if !ok {
		t.Fatal("found witness fails re-verification")
	}
}

func TestSearchConsensusValidatesConfig(t *testing.T) {
	if _, err := SearchConsensus(ConsSearchConfig{Kind: RWRegister, Values: 1, LocalStates: 2}); err == nil {
		t.Error("Values=1 should be rejected")
	}
	if _, err := SearchConsensus(ConsSearchConfig{Kind: RWRegister, Values: 2, LocalStates: 1}); err == nil {
		t.Error("LocalStates=1 should be rejected")
	}
}

func TestObjKindString(t *testing.T) {
	if RWRegister.String() != "rw-register" || RMWObject.String() != "rmw-object" {
		t.Fatal("unexpected ObjKind strings")
	}
	if ObjKind(5).String() != "ObjKind(5)" {
		t.Fatal("unexpected fallthrough")
	}
}

// TestHierarchyProperty: on random histories, atomic implies regular
// implies safe — Lamport's hierarchy is a chain.
func TestHierarchyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		h := randomHistory(rng)
		atomic, err := IsAtomic(h, 0)
		if err != nil {
			t.Fatalf("IsAtomic: %v", err)
		}
		regular, err := IsRegular(h, 0)
		if err != nil {
			t.Fatalf("IsRegular: %v", err)
		}
		safe, err := IsSafe(h, 0)
		if err != nil {
			t.Fatalf("IsSafe: %v", err)
		}
		if atomic && !regular {
			t.Fatalf("atomic history not regular: %+v", h)
		}
		if regular && !safe {
			t.Fatalf("regular history not safe: %+v", h)
		}
	}
}

// randomHistory builds a small single-writer, single-reader history with
// plausible and implausible read values. Each process's own operations are
// sequential (regular-register semantics presuppose a single writer whose
// writes do not overlap each other), but the two processes interleave
// freely.
func randomHistory(rng *rand.Rand) []Op {
	n := rng.Intn(4) + 2
	out := make([]Op, 0, n)
	cursor := [2]float64{}
	for i := 0; i < n; i++ {
		kind := Read
		proc := 1
		if rng.Intn(2) == 0 {
			kind = Write
			proc = 0
		}
		start := cursor[proc] + rng.Float64()
		end := start + rng.Float64()*2 + 0.1
		cursor[proc] = end + 0.01
		out = append(out, Op{
			Proc:  proc,
			Kind:  kind,
			Value: rng.Intn(3),
			Start: start,
			End:   end,
		})
	}
	return out
}

// TestSearchConsensusHonorsMaxStates verifies that the per-pair walks
// honor the state bound: an absurdly tight MaxStates makes the search fail
// with core.ErrStateLimit instead of silently mis-deciding pairs.
func TestSearchConsensusHonorsMaxStates(t *testing.T) {
	_, err := SearchConsensus(ConsSearchConfig{
		Kind:        RWRegister,
		Values:      2,
		LocalStates: 2,
		MaxStates:   1,
	})
	if !errors.Is(err, core.ErrStateLimit) {
		t.Fatalf("err = %v, want core.ErrStateLimit", err)
	}
}
