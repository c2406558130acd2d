package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
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

// chainExpand is a linear system "0" -> "1" -> ... -> "n".
func chainExpand(n int) ExpandFunc {
	return func(s string, x *Ctx) {
		if i := atoi(s); i < n {
			x.Emit(strconv.Itoa(i+1), "inc", 0)
		}
	}
}

// gridExpand is a 2-D lattice walk over string states "x,y" with
// 0 <= x,y < n: two successors per interior state, lots of diamond-shaped
// dedup, frontier width up to n.
func gridExpand(n int) ExpandFunc {
	return func(s string, ex *Ctx) {
		var x, y int
		fmt.Sscanf(s, "%d,%d", &x, &y)
		if x+1 < n {
			ex.Emit(fmt.Sprintf("%d,%d", x+1, y), "right", 0)
		}
		if y+1 < n {
			ex.Emit(fmt.Sprintf("%d,%d", x, y+1), "up", 1)
		}
	}
}

// randomExpand is a seeded random digraph over the decimal strings of
// [0, n): each state's successor list is derived deterministically from
// the seed and the state, so the expansion is pure while the shape is
// irregular.
func randomExpand(seed int64, n int) ExpandFunc {
	return func(s string, x *Ctx) {
		rng := rand.New(rand.NewSource(seed ^ int64(atoi(s))*0x9e3779b9))
		deg := rng.Intn(4)
		for i := 0; i < deg; i++ {
			x.Emit(strconv.Itoa(rng.Intn(n)), fmt.Sprintf("e%d", i), rng.Intn(3))
		}
	}
}

// mustEqualResults fails the test unless a and b are byte-identical in
// every canonical field.
func mustEqualResults(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if msg := diffResults(a, b); msg != "" {
		t.Fatalf("%s: %s", label, msg)
	}
}

func TestExploreChain(t *testing.T) {
	res, err := Explore([]string{"0"}, chainExpand(10), Options{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if len(res.States) != 11 {
		t.Fatalf("states = %d, want 11", len(res.States))
	}
	for i, s := range res.States {
		if s != strconv.Itoa(i) {
			t.Fatalf("state %d = %q, want BFS order", i, s)
		}
	}
	if res.Stats.Depth != 11 {
		t.Fatalf("depth = %d, want 11", res.Stats.Depth)
	}
	for i := 1; i < len(res.States); i++ {
		if int(res.Parents[i]) != i-1 {
			t.Fatalf("parent[%d] = %d, want %d", i, res.Parents[i], i-1)
		}
	}
}

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	cases := []struct {
		name   string
		inits  []string
		expand ExpandFunc
	}{
		{"grid", []string{"0,0"}, gridExpand(40)},
		{"random", []string{"0", "1", "0"}, randomExpand(42, 5000)},
		{"chain", []string{"0"}, chainExpand(300)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref, err := referenceExplore(c.inits, c.expand, 0)
			if err != nil {
				t.Fatalf("reference BFS: %v", err)
			}
			for _, par := range []int{1, 2, 3, 8} {
				got, err := Explore(c.inits, c.expand, Options{Parallelism: par})
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				mustEqualResults(t, fmt.Sprintf("%s par=%d", c.name, par), ref, got)
			}
		})
	}
}

func TestTruncationIsCanonical(t *testing.T) {
	// The partial result at any worker count must equal the reference
	// BFS's partial result, state for state.
	ref, err := referenceExplore([]string{"0,0"}, gridExpand(60), 500)
	if !errors.Is(err, ErrStateLimit) {
		t.Fatalf("err = %v, want ErrStateLimit", err)
	}
	if !ref.Truncated || len(ref.States) != 501 {
		t.Fatalf("partial result: truncated=%v states=%d, want truncated with 501 states", ref.Truncated, len(ref.States))
	}
	for _, par := range []int{1, 2, 8} {
		got, err := Explore([]string{"0,0"}, gridExpand(60), Options{Parallelism: par, MaxStates: 500})
		if !errors.Is(err, ErrStateLimit) {
			t.Fatalf("parallelism %d: err = %v, want ErrStateLimit", par, err)
		}
		mustEqualResults(t, fmt.Sprintf("truncated par=%d", par), ref, got)
	}
}

func TestFingerprintCollisionsAreHarmless(t *testing.T) {
	// Degrading the fingerprint to two bits piles every state onto a
	// handful of shard chains; full-state confirmation must keep the
	// result identical.
	clean, err := Explore([]string{"0,0"}, gridExpand(25), Options{Parallelism: 4})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	degraded, err := Explore([]string{"0,0"}, gridExpand(25), Options{Parallelism: 4, degradeFingerprint: true})
	if err != nil {
		t.Fatalf("degraded run: %v", err)
	}
	mustEqualResults(t, "degraded fingerprint", clean, degraded)
}

func TestNoInitialStates(t *testing.T) {
	_, err := Explore(nil, chainExpand(3), Options{})
	if !errors.Is(err, ErrNoInitialStates) {
		t.Fatalf("err = %v, want ErrNoInitialStates", err)
	}
}

func TestDuplicateInitialStatesCollapse(t *testing.T) {
	res, err := Explore([]string{"7", "7", "7"}, chainExpand(9), Options{Parallelism: 2})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if len(res.Inits) != 1 || res.Inits[0] != 0 {
		t.Fatalf("inits = %v, want [0]", res.Inits)
	}
}

func TestStatsTelemetry(t *testing.T) {
	var st Stats
	res, err := Explore([]string{"0,0"}, gridExpand(30), Options{Parallelism: 2, Stats: &st})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	want := 30 * 30
	if st.States != want || res.Stats.States != want {
		t.Fatalf("stats states = %d/%d, want %d", st.States, res.Stats.States, want)
	}
	if st.Edges != 2*30*29 {
		t.Fatalf("stats edges = %d, want %d", st.Edges, 2*30*29)
	}
	// Grid diamonds: every interior state is generated twice.
	if st.DedupHits == 0 {
		t.Fatal("expected dedup hits on the grid")
	}
	if st.Depth != 59 {
		t.Fatalf("depth = %d, want 59", st.Depth)
	}
	if st.PeakFrontier != 30 {
		t.Fatalf("peak frontier = %d, want 30", st.PeakFrontier)
	}
	var sum uint64
	for _, ws := range st.WorkerSteps {
		sum += ws
	}
	if sum != st.Expansions || st.Expansions != uint64(want) {
		t.Fatalf("worker steps sum %d, expansions %d, want %d", sum, st.Expansions, want)
	}
	if st.StatesPerSec <= 0 || st.Elapsed <= 0 {
		t.Fatalf("rate/elapsed not populated: %+v", st)
	}
	if st.String() == "" {
		t.Fatal("Stats.String empty")
	}
}

func TestSelfLoopsAndReconvergence(t *testing.T) {
	// A state that emits itself and a shared sink: exercises dedup of the
	// expanding state itself.
	expand := func(s string, x *Ctx) {
		switch s {
		case "0":
			x.Emit("0", "self", 0)
			x.Emit("1", "a", 0)
			x.Emit("2", "b", 1)
		case "1", "2":
			x.Emit("3", "sink", 0)
		}
	}
	ref, err := referenceExplore([]string{"0"}, expand, 0)
	if err != nil {
		t.Fatalf("reference BFS: %v", err)
	}
	if len(ref.States) != 4 {
		t.Fatalf("states = %d, want 4", len(ref.States))
	}
	if got := ref.Row(0)[0]; got.To != 0 || ref.Labels[got.Label] != "self" {
		t.Fatalf("self loop edge = %+v", got)
	}
	for _, par := range []int{1, 2, 4} {
		got, err := Explore([]string{"0"}, expand, Options{Parallelism: par})
		if err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
		mustEqualResults(t, fmt.Sprintf("selfloop par=%d", par), ref, got)
	}
}
