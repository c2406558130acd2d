package core

import (
	"reflect"
	"testing"

	"repro/internal/engine"
)

// embedSys is a small hand-built system for embedding tests:
//
//	A --a/p0--> B --b/p1--> D (terminal)
//	A --a/p0--> C --c/p1--> D
//
// The two a-steps from A are label-ambiguous (same label, same actor,
// different successors), so the subset construction is exercised: after
// "a" the frontier is {B, C}.
type embedSys struct{}

func (embedSys) Init() []string { return []string{"A"} }
func (embedSys) ExpandInto(s string, x *engine.Ctx[string]) {
	switch s {
	case "A":
		x.Emit("B", "a", 0)
		x.Emit("C", "a", 0)
	case "B":
		x.Emit("D", "b", 1)
	case "C":
		x.Emit("D", "c", 1)
	}
}

func exploreEmbed(t *testing.T) *Graph[string] {
	t.Helper()
	g, err := Explore[string](embedSys{}, ExploreOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEmbedTraceAmbiguousPrefix(t *testing.T) {
	g := exploreEmbed(t)
	// After the ambiguous "a" the frontier must hold both successors.
	res := g.EmbedTrace(Trace{{Label: "a", Actor: 0}})
	if !res.Ok || len(res.Ends) != 2 {
		t.Fatalf("ambiguous prefix: got %+v, want Ok with 2 ends", res)
	}
	// Resolving via "c" must succeed even though the BFS-first branch is B.
	res = g.EmbedTrace(Trace{{Label: "a", Actor: 0}, {Label: "c", Actor: 1}})
	if !res.Ok {
		t.Fatalf("a,c should embed via C: %+v", res)
	}
	d, ok := g.StateID("D")
	if !ok || !reflect.DeepEqual(res.Ends, []int{d}) {
		t.Fatalf("a,c ends = %v, want [%d]", res.Ends, d)
	}
	if !g.IsTerminal(res.Ends[0]) {
		t.Fatal("D should be terminal")
	}
}

func TestEmbedTraceEmpty(t *testing.T) {
	g := exploreEmbed(t)
	res := g.EmbedTrace(nil)
	if !res.Ok {
		t.Fatalf("empty trace must embed: %+v", res)
	}
	if !reflect.DeepEqual(res.Ends, g.Initials()) {
		t.Fatalf("empty-trace ends %v != initials %v", res.Ends, g.Initials())
	}
}

func TestEmbedTraceFailure(t *testing.T) {
	g := exploreEmbed(t)
	// "b" with the wrong actor is not an edge anywhere.
	res := g.EmbedTrace(Trace{{Label: "a", Actor: 0}, {Label: "b", Actor: 0}})
	if res.Ok {
		t.Fatal("wrong-actor step embedded")
	}
	if res.FailAt != 1 {
		t.Fatalf("FailAt = %d, want 1", res.FailAt)
	}
	// The failing frontier is the post-"a" set {B, C}.
	if len(res.Frontier) != 2 {
		t.Fatalf("failing frontier %v, want the two a-successors", res.Frontier)
	}
	// A step past a terminal state also fails.
	res = g.EmbedTrace(Trace{{Label: "a", Actor: 0}, {Label: "b", Actor: 1}, {Label: "b", Actor: 1}})
	if res.Ok || res.FailAt != 2 {
		t.Fatalf("step past terminal: got %+v, want FailAt 2", res)
	}
}

func TestEmbedTraceLabelMismatchAtStart(t *testing.T) {
	g := exploreEmbed(t)
	res := g.EmbedTrace(Trace{{Label: "z", Actor: 0}})
	if res.Ok || res.FailAt != 0 {
		t.Fatalf("unknown first label: got %+v, want FailAt 0", res)
	}
	if !reflect.DeepEqual(res.Frontier, g.Initials()) {
		t.Fatalf("frontier %v, want initials %v", res.Frontier, g.Initials())
	}
}
