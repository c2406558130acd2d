package core

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
)

// atoi reads back an integer-valued test state, which the systems below
// encode as its decimal string.
func atoi(s string) int {
	n, err := strconv.Atoi(s)
	if err != nil {
		panic(err)
	}
	return n
}

// emitInt emits the integer-valued state n, built in x's scratch buffer.
func emitInt(x *engine.Ctx, n int, label string, actor int) {
	x.Scratch = strconv.AppendInt(x.Scratch[:0], int64(n), 10)
	x.EmitBytes(x.Scratch, label, actor)
}

// chainSys is a linear system 0 -> 1 -> ... -> n, stepped by actor 0.
type chainSys struct{ n int }

func (c chainSys) Init() []string { return []string{"0"} }

func (c chainSys) ExpandInto(s string, x *engine.Ctx) {
	if i := atoi(s); i < c.n {
		emitInt(x, i+1, "inc", 0)
	}
}

func TestExploreChain(t *testing.T) {
	g, err := Explore[string](chainSys{n: 10}, ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if got, want := g.Len(), 11; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if got, want := g.NumEdges(), 10; got != want {
		t.Fatalf("NumEdges = %d, want %d", got, want)
	}
	terms := g.Terminals()
	if len(terms) != 1 || g.State(terms[0]) != "10" {
		t.Fatalf("Terminals = %v, want the single state 10", terms)
	}
}

func TestExploreStateLimit(t *testing.T) {
	_, err := Explore[string](chainSys{n: 100}, ExploreOptions{MaxStates: 5})
	if !errors.Is(err, ErrStateLimit) {
		t.Fatalf("err = %v, want ErrStateLimit", err)
	}
}

func TestPathToReconstructsShortestTrace(t *testing.T) {
	g, err := Explore[string](chainSys{n: 5}, ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	id, ok := g.FindState(func(s string) bool { return s == "3" })
	if !ok {
		t.Fatal("state 3 not found")
	}
	tr := g.PathTo(id)
	if len(tr) != 3 {
		t.Fatalf("trace length = %d, want 3", len(tr))
	}
	for _, ev := range tr {
		if ev.Label != "inc" || ev.Actor != 0 {
			t.Fatalf("unexpected event %+v", ev)
		}
	}
}

func TestCheckInvariant(t *testing.T) {
	g, err := Explore[string](chainSys{n: 5}, ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if _, _, ok := g.CheckInvariant(func(s string) bool { return atoi(s) <= 5 }); !ok {
		t.Fatal("invariant s<=5 should hold")
	}
	id, tr, ok := g.CheckInvariant(func(s string) bool { return atoi(s) < 4 })
	if ok {
		t.Fatal("invariant s<4 should fail")
	}
	if g.State(id) != "4" {
		t.Fatalf("violating state = %q, want 4 (BFS-first)", g.State(id))
	}
	if len(tr) != 4 {
		t.Fatalf("witness length = %d, want 4", len(tr))
	}
}

// TestStepsOf checks the materialized form of ExpandInto: every emitted
// transition in emission order, and nothing for a terminal state.
func TestStepsOf(t *testing.T) {
	got := StepsOf(diamondSys{}, "root")
	want := []Step{{To: "d0", Label: "left", Actor: 0}, {To: "mid", Label: "right", Actor: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("StepsOf(root) = %v, want %v", got, want)
	}
	if got := StepsOf(diamondSys{}, "d1"); len(got) != 0 {
		t.Fatalf("StepsOf(d1) = %v, want none", got)
	}
}

// diamondSys branches from 0 to terminal decisions: 0 -> 1 (decides 0),
// 0 -> 2 -> {3 decides 0, 4 decides 1}.
type diamondSys struct{}

func (diamondSys) Init() []string { return []string{"root"} }

func (diamondSys) ExpandInto(s string, x *engine.Ctx) {
	switch s {
	case "root":
		x.Emit("d0", "left", 0)
		x.Emit("mid", "right", 1)
	case "mid":
		x.Emit("d0b", "down0", 0)
		x.Emit("d1", "down1", 1)
	}
}

func diamondDecide(s string) (int, bool) {
	switch s {
	case "d0", "d0b":
		return 0, true
	case "d1":
		return 1, true
	default:
		return 0, false
	}
}

func TestValenceDiamond(t *testing.T) {
	g, err := Explore[string](diamondSys{}, ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	v, err := g.Valence(func(i int) (int, bool) { return diamondDecide(g.State(i)) })
	if err != nil {
		t.Fatalf("Valence: %v", err)
	}
	rootID, _ := g.StateID("root")
	midID, _ := g.StateID("mid")
	d1ID, _ := g.StateID("d1")
	if !v.IsBivalent(rootID) {
		t.Error("root should be bivalent")
	}
	if !v.IsBivalent(midID) {
		t.Error("mid should be bivalent")
	}
	if !v.IsUnivalent(d1ID) {
		t.Error("d1 should be univalent")
	}
	if got := v.Values(rootID); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("Values(root) = %v, want [0 1]", got)
	}
	if got := v.Values(d1ID); len(got) != 1 || got[0] != 1 {
		t.Errorf("Values(d1) = %v, want [1]", got)
	}
	init, ok := g.BivalentInitial(v)
	if !ok || g.State(init) != "root" {
		t.Errorf("BivalentInitial = %v,%v, want root", init, ok)
	}
	// mid is bivalent and all its successors are decided (univalent):
	// it is a decider in Herlihy's sense.
	dec, ok := g.Decider(v)
	if !ok || g.State(dec) != "mid" {
		t.Errorf("Decider = %v,%v, want mid", dec, ok)
	}
}

func TestValenceRejectsOutOfRange(t *testing.T) {
	g, err := Explore[string](chainSys{n: 1}, ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if _, err := g.Valence(func(i int) (int, bool) { return 99, g.State(i) == "1" }); err == nil {
		t.Fatal("expected error for value >= MaxDecisionValues")
	}
}

// loopSys: two actors; actor 0 can loop forever at "spin" while actor 1
// could move to "goal". State "spin" has both a self-loop (actor 0) and an
// exit (actor 1). An unfair run spins forever, but weak fairness forces
// actor 1 to move.
type loopSys struct{}

func (loopSys) Init() []string { return []string{"spin"} }

func (loopSys) ExpandInto(s string, x *engine.Ctx) {
	switch s {
	case "spin":
		x.Emit("spin", "spin", 0)
		x.Emit("goal", "exit", 1)
	case "goal":
		x.Emit("goal", "stay", 1)
	}
}

func TestLeadsToWeakFairnessExcludesSpin(t *testing.T) {
	g, err := Explore[string](loopSys{}, ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	prem := func(s string) bool { return s == "spin" }
	goal := func(s string) bool { return s == "goal" }
	// Under weak fairness actor 1 must eventually exit, so leads-to holds.
	res := g.CheckLeadsTo(prem, goal, WeakFairness, 2)
	if !res.Holds {
		t.Fatalf("leads-to should hold under weak fairness; got %+v", res)
	}
	// Without fairness the self-loop is a legitimate livelock.
	res = g.CheckLeadsTo(prem, goal, NoFairness, 2)
	if res.Holds {
		t.Fatal("leads-to should fail without fairness")
	}
	if res.Kind != "livelock" {
		t.Fatalf("Kind = %q, want livelock", res.Kind)
	}
	if len(res.Cycle) == 0 {
		t.Fatal("expected a nonempty violating cycle")
	}
}

// stuckSys: a deadlock before the goal.
type stuckSys struct{}

func (stuckSys) Init() []string { return []string{"a"} }

func (stuckSys) ExpandInto(s string, x *engine.Ctx) {
	if s == "a" {
		x.Emit("dead", "step", 0)
	}
}

func TestLeadsToDeadlock(t *testing.T) {
	g, err := Explore[string](stuckSys{}, ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	res := g.CheckLeadsTo(
		func(s string) bool { return s == "a" },
		func(s string) bool { return s == "goal" },
		WeakFairness, 1)
	if res.Holds {
		t.Fatal("leads-to should fail")
	}
	if res.Kind != "deadlock" {
		t.Fatalf("Kind = %q, want deadlock", res.Kind)
	}
	if g.State(res.StateID) != "dead" {
		t.Fatalf("deadlock state = %q, want dead", g.State(res.StateID))
	}
}

// pingpong: two actors alternate between two states forever. The cycle is
// weakly fair for both actors (each takes a step in it).
type pingpong struct{}

func (pingpong) Init() []string { return []string{"ping"} }

func (pingpong) ExpandInto(s string, x *engine.Ctx) {
	if s == "ping" {
		x.Emit("pong", "p0", 0)
		return
	}
	x.Emit("ping", "p1", 1)
}

func TestFairLassoWithin(t *testing.T) {
	g, err := Explore[string](pingpong{}, ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	lasso, ok := g.FairLassoWithin(func(int) bool { return true }, WeakFairness, 2)
	if !ok {
		t.Fatal("expected a fair lasso")
	}
	if len(lasso.Cycle) == 0 {
		t.Fatal("expected nonempty cycle")
	}
	actors := map[int]bool{}
	for _, ev := range lasso.Cycle {
		actors[ev.Actor] = true
	}
	if !actors[0] || !actors[1] {
		t.Fatalf("cycle %v does not include both actors", lasso.Cycle)
	}
}

func TestFairLassoRespectsAllowedSet(t *testing.T) {
	g, err := Explore[string](pingpong{}, ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	pingID, _ := g.StateID("ping")
	// Only ping allowed: no cycle fits inside the allowed set.
	if _, ok := g.FairLassoWithin(func(i int) bool { return i == pingID }, NoFairness, 2); ok {
		t.Fatal("no lasso should exist inside {ping}")
	}
}

func TestTraceString(t *testing.T) {
	tr := Trace{
		{Label: "send", Actor: 2},
		{Label: "deliver", Actor: EnvironmentActor},
	}
	s := tr.String()
	if !strings.Contains(s, "p2") || !strings.Contains(s, "[env]") {
		t.Fatalf("unexpected trace rendering:\n%s", s)
	}
}

func TestFairnessString(t *testing.T) {
	if WeakFairness.String() != "weak-fairness" || NoFairness.String() != "no-fairness" {
		t.Fatal("unexpected Fairness string values")
	}
	if Fairness(42).String() != "Fairness(42)" {
		t.Fatal("unexpected fallthrough Fairness string")
	}
}

func TestNullvalent(t *testing.T) {
	// Chain with no decided states: everything is nullvalent.
	g, err := Explore[string](chainSys{n: 3}, ExploreOptions{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	v, err := g.Valence(func(int) (int, bool) { return 0, false })
	if err != nil {
		t.Fatalf("Valence: %v", err)
	}
	for i := 0; i < g.Len(); i++ {
		if !v.IsNullvalent(i) {
			t.Fatalf("state %d should be nullvalent", i)
		}
	}
}

// graphMatchesResult checks that g exposes exactly the engine Result it
// was built from: state numbering, initials, edge lists (with order),
// parent tree and parent steps.
func graphMatchesResult(t *testing.T, label string, g *Graph[string], res *engine.Result) {
	t.Helper()
	if g.Len() != len(res.States) {
		t.Fatalf("%s: Len %d, result has %d states", label, g.Len(), len(res.States))
	}
	if gi := g.Initials(); !reflect.DeepEqual(gi, res.Inits) {
		t.Fatalf("%s: initials %v, result has %v", label, gi, res.Inits)
	}
	for i := 0; i < g.Len(); i++ {
		if g.State(i) != res.States[i] {
			t.Fatalf("%s: state %d differs: %v vs %v", label, i, g.State(i), res.States[i])
		}
		if g.Parent(i) != int(res.Parents[i]) {
			t.Fatalf("%s: parent[%d] = %d, result has %d", label, i, g.Parent(i), res.Parents[i])
		}
		if g.Parent(i) >= 0 {
			pe := res.ParentEdge(i)
			if g.ParentStep(i) != (Step{To: res.States[pe.To], Label: res.Labels[pe.Label], Actor: int(pe.Actor)}) {
				t.Fatalf("%s: parent step %d differs", label, i)
			}
		}
		succ := g.Successors(i)
		row := res.Row(i)
		if len(succ) != len(row) {
			t.Fatalf("%s: successors of %d: %d, result has %d", label, i, len(succ), len(row))
		}
		for k, e := range row {
			if want := (Step{To: res.States[e.To], Label: res.Labels[e.Label], Actor: int(e.Actor)}); succ[k] != want {
				t.Fatalf("%s: successor %d/%d differs: %+v vs %+v", label, i, k, succ[k], want)
			}
		}
	}
}

// TestParallelExploreMatchesSequential: Differential holds the engine to
// the reference breadth-first search at 1, 2 and 8 workers, and Explore's
// Graph must expose exactly the engine's Result at each of them.
func TestParallelExploreMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		sys := newRandomSys(seed)
		if _, err := engine.Differential(engine.DiffSpec{
			Name: fmt.Sprintf("seed %d", seed), Inits: sys.Init(), Expand: sys.ExpandInto,
		}); err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 2, 8} {
			res, err := engine.Explore(sys.Init(), sys.ExpandInto, engine.Options{Parallelism: par})
			if err != nil {
				t.Fatalf("seed %d par %d: engine: %v", seed, par, err)
			}
			got, err := Explore[string](sys, ExploreOptions{Parallelism: par})
			if err != nil {
				t.Fatalf("seed %d par %d: %v", seed, par, err)
			}
			graphMatchesResult(t, fmt.Sprintf("seed %d par %d", seed, par), got, res)
		}
	}
}

// TestTruncationReturnsPartialGraph: the canonical partial graph comes back
// alongside ErrStateLimit at every worker count, and equals the reference
// breadth-first search's.
func TestTruncationReturnsPartialGraph(t *testing.T) {
	if _, err := engine.Differential(engine.DiffSpec{
		Name: "chain", Inits: chainSys{n: 100}.Init(), Expand: chainSys{n: 100}.ExpandInto, MaxStates: 5,
	}); err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		res, _ := engine.Explore(chainSys{n: 100}.Init(), chainSys{n: 100}.ExpandInto, engine.Options{MaxStates: 5, Parallelism: par})
		g, err := Explore[string](chainSys{n: 100}, ExploreOptions{MaxStates: 5, Parallelism: par})
		if !errors.Is(err, ErrStateLimit) {
			t.Fatalf("par %d: err = %v, want ErrStateLimit", par, err)
		}
		if g == nil || g.Len() != 6 {
			t.Fatalf("par %d: partial graph missing or wrong size: %v", par, g)
		}
		graphMatchesResult(t, fmt.Sprintf("truncated par %d", par), g, res)
		// States 0..3 were expanded; discovering state 5 cut state 4's
		// expansion off, and state 5 was never expanded. Neither of the
		// last two is a deadlock: their successors are unknown.
		if got := g.Terminals(); len(got) != 0 {
			t.Fatalf("par %d: truncated chain reports terminals %v", par, got)
		}
		for i := 0; i < g.Len(); i++ {
			expanded := i < 4
			if g.IsTerminal(i) {
				t.Fatalf("par %d: state %d reported terminal", par, i)
			}
			if succ := g.Successors(i); (succ != nil) != expanded || (expanded && len(succ) != 1) {
				t.Fatalf("par %d: successors of state %d = %v, expanded %v", par, i, succ, expanded)
			}
		}
		if r := g.CheckLeadsTo(func(string) bool { return true }, func(string) bool { return false }, NoFairness, 1); r.Kind == "deadlock" {
			t.Fatalf("par %d: cut-off state %d reported as a deadlock", par, r.StateID)
		}
	}
}

// gridSys is the n×n grid walked right (actor 0) and down (actor 1) from
// the corner: n² integer-valued states, 2n(n-1) edges.
type gridSys struct{ n int }

func (g gridSys) Init() []string { return []string{"0"} }

func (g gridSys) ExpandInto(state string, x *engine.Ctx) {
	s := atoi(state)
	if s%g.n+1 < g.n {
		emitInt(x, s+1, "right", 0)
	}
	if s/g.n+1 < g.n {
		emitInt(x, s+g.n, "down", 1)
	}
}

// TestExploreTinyGraphAllocs bounds what one small exploration allocates:
// callers such as the consensus-number search run over a hundred thousand
// of them, so the engine's per-run set-up must stay within the 79
// allocations the single-threaded explorer it replaced made on this grid.
func TestExploreTinyGraphAllocs(t *testing.T) {
	sys := gridSys{n: 6}
	g, err := Explore[string](sys, ExploreOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 36 || g.NumEdges() != 60 {
		t.Fatalf("grid has %d states, %d edges; want 36, 60", g.Len(), g.NumEdges())
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Explore[string](sys, ExploreOptions{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs %v", allocs)
	if allocs > 79 {
		t.Fatalf("Explore of a 6x6 grid allocates %v times, want <= 79", allocs)
	}
}
