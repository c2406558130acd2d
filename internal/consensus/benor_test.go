package consensus

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

func TestNewBenOrSpaceValidation(t *testing.T) {
	cases := []struct {
		name    string
		n, t, p int
		inputs  []int
		wantErr string
	}{
		{"too few procs", 1, 0, 1, []int{0}, "2..8 processes"},
		{"too many procs", 9, 1, 1, make([]int, 9), "2..8 processes"},
		{"faults too high", 4, 2, 1, []int{0, 1, 0, 1}, "2t < n"},
		{"negative faults", 3, -1, 1, []int{0, 1, 0}, "2t < n"},
		{"zero phases", 3, 1, 0, []int{0, 1, 0}, "1..8 phases"},
		{"too many phases", 3, 1, 9, []int{0, 1, 0}, "1..8 phases"},
		{"wrong input count", 3, 1, 1, []int{0, 1}, "3 inputs"},
		{"non-binary input", 3, 1, 1, []int{0, 2, 1}, "not binary"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewBenOrSpace(c.n, c.t, c.p, c.inputs)
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("NewBenOrSpace(%d,%d,%d,%v) = %v, want %q",
					c.n, c.t, c.p, c.inputs, err, c.wantErr)
			}
		})
	}
	if _, err := NewBenOrSpace(3, 1, 1, []int{0, 1, 1}); err != nil {
		t.Fatalf("valid configuration rejected: %v", err)
	}
}

func TestNewLiveBenOrValidation(t *testing.T) {
	cases := []struct {
		name    string
		n, t, p int
		inputs  []int
		wantErr string
	}{
		{"too few procs", 1, 0, 1, []int{0}, "2..255 processes"},
		{"faults too high", 5, 3, 1, make([]int, 5), "2t < n"},
		{"zero phases", 3, 1, 0, []int{0, 1, 0}, "1..64 phases"},
		{"too many phases", 3, 1, 65, []int{0, 1, 0}, "1..64 phases"},
		{"wrong input count", 3, 1, 1, []int{0}, "3 inputs"},
		{"non-binary input", 2, 0, 1, []int{0, 7}, "not binary"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewLiveBenOr(c.n, c.t, c.p, c.inputs)
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("NewLiveBenOr(%d,%d,%d,%v) = %v, want %q",
					c.n, c.t, c.p, c.inputs, err, c.wantErr)
			}
		})
	}
	w, err := NewLiveBenOr(64, 31, 4, make([]int, 64))
	if err != nil {
		t.Fatalf("valid large configuration rejected: %v", err)
	}
	if w.Name() != "ben-or" || w.NumProcs() != 64 {
		t.Fatalf("Name/NumProcs = %q/%d", w.Name(), w.NumProcs())
	}
	if g, err := w.Model(); g != nil || err != nil {
		t.Fatalf("n=64 must be live-only, got graph=%v err=%v", g, err)
	}
}

func TestBenOrProposeResolve(t *testing.T) {
	// Propose: strict majority or ⊥.
	for _, c := range []struct {
		c0, c1, n int
		want      byte
	}{
		{3, 0, 3, 0}, {2, 0, 3, 0}, {0, 2, 3, 1}, {1, 1, 3, benOrBot},
		{2, 2, 4, benOrBot}, {3, 1, 4, 0},
	} {
		if got := benOrPropose(c.c0, c.c1, c.n); got != c.want {
			t.Errorf("benOrPropose(%d,%d,%d) = %d, want %d", c.c0, c.c1, c.n, got, c.want)
		}
	}
	// Resolve: decide at t+1 matching proposals, adopt below, coin at none.
	for _, c := range []struct {
		c0, c1, t  int
		wantDecide bool
		wantVal    byte
		wantCoin   bool
	}{
		{2, 0, 1, true, 0, false},  // c0 >= t+1: decide 0
		{1, 0, 1, false, 0, false}, // adopt 0 without deciding
		{0, 2, 1, true, 1, false},  // decide 1
		{0, 1, 1, false, 1, false}, // adopt 1
		{0, 0, 1, false, 0, true},  // all ⊥: caller must flip a coin
	} {
		decide, val, coin := benOrResolve(c.c0, c.c1, c.t)
		if decide != c.wantDecide || val != c.wantVal || coin != c.wantCoin {
			t.Errorf("benOrResolve(%d,%d,t=%d) = (%v,%d,%v), want (%v,%d,%v)",
				c.c0, c.c1, c.t, decide, val, coin, c.wantDecide, c.wantVal, c.wantCoin)
		}
	}
}

// TestBenOrSpaceUnanimous: with unanimous inputs Ben-Or decides that value
// in the first phase on every schedule (validity), and the explored graph
// satisfies agreement and reaches terminal states.
func TestBenOrSpaceUnanimous(t *testing.T) {
	for _, input := range []int{0, 1} {
		b, err := NewBenOrSpace(3, 1, 1, []int{input, input, input})
		if err != nil {
			t.Fatal(err)
		}
		g, err := core.Explore[string](b.System(), core.ExploreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.CheckAgreement(g); err != nil {
			t.Fatal(err)
		}
		terms := g.Terminals()
		if len(terms) == 0 {
			t.Fatal("no terminal states explored")
		}
		for _, id := range terms {
			st := g.State(id)
			for p := 0; p < 3; p++ {
				if d := b.Decision(st, p); d != input {
					t.Fatalf("unanimous %d: process %d ended with decision %d", input, p, d)
				}
				if ph := b.Phase(st, p); ph != 2 {
					t.Fatalf("process %d halted in phase %d, want 2 (= Phases+1)", p, ph)
				}
			}
		}
	}
}

// TestBenOrSpaceSplit: with split inputs one phase cannot force a decision
// on every schedule, but agreement must still hold everywhere.
func TestBenOrSpaceSplit(t *testing.T) {
	b, err := NewBenOrSpace(3, 1, 1, []int{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Explore[string](b.System(), core.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CheckAgreement(g); err != nil {
		t.Fatal(err)
	}
	if g.Len() < 1000 {
		t.Fatalf("split 3-process Ben-Or explored only %d states; the space should be thousands", g.Len())
	}
	// Some terminal state must exist where at least one process decided 1
	// (the majority value wins on schedules delivering both 1-reports first).
	sawDecided := false
	for _, id := range g.Terminals() {
		st := g.State(id)
		for p := 0; p < 3; p++ {
			if b.Decision(st, p) >= 0 {
				sawDecided = true
			}
		}
	}
	if !sawDecided {
		t.Fatal("no schedule decided within one phase; majority schedules should")
	}
}

// benOrLive is the model live-refine explores: n=3, t=1, one phase, split
// inputs.
func benOrLive(t testing.TB) *BenOrSpace {
	t.Helper()
	b, err := NewBenOrSpace(3, 1, 1, []int{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// graphHash hashes a graph's initials and, per state in id order, its
// bytes and its row: each step's successor, label and actor.
func graphHash(g *core.Graph[string]) string {
	h := fnv.New64a()
	var buf []byte
	for _, id := range g.Initials() {
		buf = binary.AppendUvarint(buf[:0], uint64(id))
		h.Write(buf)
	}
	for i := 0; i < g.Len(); i++ {
		buf = binary.AppendUvarint(buf[:0], uint64(len(g.State(i))))
		buf = append(buf, g.State(i)...)
		for _, st := range g.Successors(i) {
			buf = binary.AppendUvarint(buf, uint64(len(st.To)))
			buf = append(buf, st.To...)
			buf = binary.AppendUvarint(buf, uint64(len(st.Label)))
			buf = append(buf, st.Label...)
			buf = binary.AppendVarint(buf, int64(st.Actor))
		}
		buf = append(buf, 0xff)
		h.Write(buf)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestBenOrSpaceGraphPinned pins the live-refine model's graph: state and
// edge counts and a hash over states, rows and labels, so a change to the
// expansion (successor order, coin branches, labels) shows here. The
// differential oracle holds the same expansion to the reference BFS at
// every worker count, re-expanding each state over poisoned scratch.
func TestBenOrSpaceGraphPinned(t *testing.T) {
	sys := benOrLive(t).System()
	if _, err := engine.Differential(engine.DiffSpec{
		Name: "benor", Inits: sys.Init(), Expand: sys.ExpandInto, VerifyAliasing: 1,
	}); err != nil {
		t.Fatal(err)
	}
	g, err := core.Explore[string](sys, core.ExploreOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%d states, %d edges, hash %s", g.Len(), g.NumEdges(), graphHash(g)),
		"5689 states, 16396 edges, hash efcb3754a16eac20"; got != want {
		t.Fatalf("ben-or graph: %s, want %s", got, want)
	}
}

// TestBenOrExpandIntoAllocs pins a warmed ExpandInto of the live-refine
// model at zero allocations: every branch is built in the worker's
// scratch and emitted as bytes, with its label interned.
func TestBenOrExpandIntoAllocs(t *testing.T) {
	sys := benOrLive(t).System()
	g, err := core.Explore[string](sys, core.ExploreOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sample []string
	for i := 0; i < g.Len(); i += 7 {
		sample = append(sample, g.State(i))
	}
	x := engine.CollectBytesCtx(func([]byte, string, int) {})
	for _, s := range sample { // warm the scratch and the label interner
		sys.ExpandInto(s, x)
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		sys.ExpandInto(sample[i%len(sample)], x)
		i++
	}); n != 0 {
		t.Fatalf("a warmed expansion allocates %v times, want 0", n)
	}
}
