package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// gridIndep declares every pair of grid moves independent, which is sound:
// "right" and "up" fully commute, disable nothing, and the tests check no
// move-specific predicate.
func gridIndep(_ string, _, _ Action) bool { return true }

func TestPORGridStaircase(t *testing.T) {
	// With right ⫫ up everywhere, the ample set at each interior state is
	// the singleton {right}: the n×n diamond lattice collapses to one
	// staircase path of 2n-1 states. The grid is a leveled DAG (depth =
	// x+y), so the cycle proviso never fires.
	const n = 12
	res, err := Explore([]string{"0,0"}, gridExpand(n), Options{
		Independent: gridIndep,
		VerifyPOR:   1,
	})
	if err != nil {
		t.Fatalf("POR explore: %v", err)
	}
	if len(res.States) != 2*n-1 {
		t.Fatalf("POR states = %d, want %d", len(res.States), 2*n-1)
	}
	st := res.Stats
	if !st.POREnabled {
		t.Fatalf("POREnabled = false on a POR run")
	}
	if st.AmpleStates != n-1 {
		t.Fatalf("AmpleStates = %d, want %d", st.AmpleStates, n-1)
	}
	if st.DeferredActions != n-1 {
		t.Fatalf("DeferredActions = %d, want %d", st.DeferredActions, n-1)
	}
	if rf := st.PORReductionFactor(); rf <= 1 {
		t.Fatalf("PORReductionFactor = %v, want > 1", rf)
	}
	if !strings.Contains(st.String(), "por-branch=") {
		t.Fatalf("Stats.String() missing POR telemetry: %q", st.String())
	}
}

func TestPORDeterminismAcrossWorkerCounts(t *testing.T) {
	run := func(par, maxStates int) (*Result[string], error) {
		return Explore([]string{"0,0"}, gridExpand(40), Options{
			Parallelism: par,
			MaxStates:   maxStates,
			Independent: func(_ string, _, _ Action) bool { return false }, // no pair independent = full graph
		})
	}
	for _, maxStates := range []int{0, 300} {
		ref, err := run(1, maxStates)
		wantTrunc := maxStates != 0
		if wantTrunc != errors.Is(err, ErrStateLimit) {
			t.Fatalf("max=%d: one-worker err = %v", maxStates, err)
		}
		for _, par := range []int{2, 8} {
			got, err := run(par, maxStates)
			if wantTrunc != errors.Is(err, ErrStateLimit) {
				t.Fatalf("max=%d par=%d: err = %v", maxStates, par, err)
			}
			mustEqualResults(t, fmt.Sprintf("max=%d par=%d", maxStates, par), ref, got)
		}
	}
	// An all-dependent relation must reproduce the unreduced graph exactly.
	full, err := referenceExplore([]string{"0,0"}, gridExpand(40), 0)
	if err != nil {
		t.Fatalf("reference BFS: %v", err)
	}
	porFull, err := run(1, 0)
	if err != nil {
		t.Fatalf("POR all-dependent explore: %v", err)
	}
	mustEqualResults(t, "all-dependent vs unreduced", full, porFull)
}

// ringFlagExpand is a cyclic system exercising the C3 proviso: states are
// "k,flag" with k on a ring of size m; "step" (actor 0) advances k mod m and
// "set" (actor 1) raises the flag once. The two actions commute (the diamond
// closes at ((k+1) mod m, 1)), so a proviso-free reduction could chase
// "step" around the ring forever and starve "set", never discovering the
// flag=1 half of the space.
func ringFlagExpand(m int) ExpandFunc[string] {
	return func(s string, x *Ctx[string]) {
		var k, flag int
		fmt.Sscanf(s, "%d,%d", &k, &flag)
		x.Emit(fmt.Sprintf("%d,%d", (k+1)%m, flag), "step", 0)
		if flag == 0 {
			x.Emit(fmt.Sprintf("%d,1", k), "set", 1)
		}
	}
}

func TestPORCycleProvisoPreventsStarvation(t *testing.T) {
	const m = 6
	indep := func(_ string, a, b Action) bool { return a.Actor != b.Actor }
	ref, err := Explore([]string{"0,0"}, ringFlagExpand(m), Options{
		Independent: indep,
		VerifyPOR:   1,
	})
	if err != nil {
		t.Fatalf("POR explore: %v", err)
	}
	// Every state of the full space must still be reachable: the proviso
	// forces a full expansion where "step" closes the ring, releasing "set".
	if len(ref.States) != 2*m {
		t.Fatalf("POR states = %d, want %d (starved states?)", len(ref.States), 2*m)
	}
	flagged := 0
	for _, s := range ref.States {
		if strings.HasSuffix(s, ",1") {
			flagged++
		}
	}
	if flagged != m {
		t.Fatalf("flag=1 states = %d, want %d", flagged, m)
	}
	if ref.Stats.DeferredActions == 0 {
		t.Fatalf("DeferredActions = 0, want deferrals before the proviso fires")
	}
	for _, par := range []int{2, 8} {
		got, err := Explore([]string{"0,0"}, ringFlagExpand(m), Options{
			Parallelism: par,
			Independent: indep,
			VerifyPOR:   1,
		})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		mustEqualResults(t, fmt.Sprintf("par=%d", par), ref, got)
	}
}

// brokenDiamondExpand declares a 5-state system where actions "a" and "b"
// are both enabled at 0 but do not commute: 0 -a-> 1 -b-> 3 versus
// 0 -b-> 2 -a-> 4.
func brokenDiamondExpand(s string, x *Ctx[string]) {
	switch s {
	case "0":
		x.Emit("1", "a", 0)
		x.Emit("2", "b", 1)
	case "1":
		x.Emit("3", "b", 1)
	case "2":
		x.Emit("4", "a", 0)
	}
}

// disablingExpand declares a system where "b" is enabled at 0 but "a"
// disables it: 0 -a-> 1 has no "b" successor.
func disablingExpand(s string, x *Ctx[string]) {
	switch s {
	case "0":
		x.Emit("1", "a", 0)
		x.Emit("2", "b", 1)
	case "2":
		x.Emit("3", "a", 0)
	}
}

func TestVerifyPORCatchesBrokenDiamond(t *testing.T) {
	allIndep := func(_ string, _, _ Action) bool { return true }
	for _, par := range []int{1, 4} {
		_, err := Explore([]string{"0"}, brokenDiamondExpand, Options{
			Parallelism: par,
			Independent: allIndep,
			VerifyPOR:   1,
		})
		if !errors.Is(err, ErrPORUnsound) {
			t.Fatalf("par=%d: err = %v, want ErrPORUnsound", par, err)
		}
		if !strings.Contains(err.Error(), "diamond does not close") {
			t.Fatalf("par=%d: err = %v, want diamond complaint", par, err)
		}
		_, err = Explore([]string{"0"}, disablingExpand, Options{
			Parallelism: par,
			Independent: allIndep,
			VerifyPOR:   1,
		})
		if !errors.Is(err, ErrPORUnsound) {
			t.Fatalf("par=%d: disabling err = %v, want ErrPORUnsound", par, err)
		}
		if !strings.Contains(err.Error(), "disables") {
			t.Fatalf("par=%d: err = %v, want disabling complaint", par, err)
		}
	}
}

func TestPORComposesWithCanon(t *testing.T) {
	// POR and the mirror quotient stack on the grid: the quotient halves the
	// space, the ample sets thin the branching, and the composed run is
	// still deterministic at any worker count with both checks enabled.
	run := func(par int) (*Result[string], error) {
		return Explore([]string{"0,0"}, gridExpand(16), Options{
			Parallelism: par,
			Canon:       mirrorGridCanon,
			VerifyCanon: 1,
			Independent: gridIndep,
			VerifyPOR:   1,
		})
	}
	ref, err := run(1)
	if err != nil {
		t.Fatalf("composed explore: %v", err)
	}
	if !ref.Stats.CanonEnabled || !ref.Stats.POREnabled {
		t.Fatalf("expected both CanonEnabled and POREnabled, got %+v", ref.Stats)
	}
	full, err := Explore([]string{"0,0"}, gridExpand(16), Options{})
	if err != nil {
		t.Fatalf("full explore: %v", err)
	}
	if len(ref.States) >= len(full.States)/2 {
		t.Fatalf("composed states = %d, want < half of full %d", len(ref.States), len(full.States))
	}
	for _, par := range []int{2, 8} {
		got, err := run(par)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		mustEqualResults(t, fmt.Sprintf("composed par=%d", par), ref, got)
	}
}
