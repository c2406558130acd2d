package flp

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestGraphsMatchTextReference is the graph-identity oracle of the packed
// layout: for every shipped protocol at n = 2–4 and resilience 0–2, in
// every mode the protocol supports among full, canon, POR and canon+POR
// (plus canon+POR at n = 5, r = 0, the symmetric verdict's instance), the
// packed system and the text reference system explore to the same graph.
// Everything is compared — initials, each expanded state's row, label
// table, parents and parent edges — and packed state i renders to text state i,
// so every id is the same in both encodings.
//
// The text reference takes seconds per graph on the instances with n ≥ 4
// and a crash budget, and on n = 5: those run only with
// FLP_GRAPH_ORACLE=full in the environment, as CI's graph-identity step
// sets it. The rest run in every go test.
func TestGraphsMatchTextReference(t *testing.T) {
	full := os.Getenv("FLP_GRAPH_ORACLE") == "full"
	type instance struct {
		p          Protocol
		resilience int
		modes      []string
	}
	var cases []instance
	for _, mk := range []func(int) Protocol{NewWaitAll, NewWaitQuorum, NewAdoptSwap} {
		for n := 2; n <= 4; n++ {
			p := mk(n)
			modes := []string{"full", "por"}
			if _, ok := p.(ProcessSymmetric); ok {
				modes = append(modes, "canon", "canon+por")
			}
			for r := 0; r <= 2; r++ {
				cases = append(cases, instance{p, r, modes})
			}
		}
	}
	cases = append(cases, instance{NewWaitQuorum(5), 0, []string{"canon+por"}})
	for _, tc := range cases {
		for _, mode := range tc.modes {
			name := fmt.Sprintf("%s/n=%d/r=%d/%s", tc.p.Name(), tc.p.NumProcs(), tc.resilience, mode)
			t.Run(name, func(t *testing.T) {
				if n := tc.p.NumProcs(); !full && (n == 5 || n == 4 && tc.resilience > 0) {
					t.Skip("a large text graph: set FLP_GRAPH_ORACLE=full")
				}
				checkGraphIdentity(t, tc.p, tc.resilience, mode)
			})
		}
	}
}

// checkGraphIdentity explores p's packed and text graphs in one mode and
// requires them to be identical.
func checkGraphIdentity(t *testing.T, p Protocol, resilience int, mode string) {
	sys := newSys(p, resilience)
	ref := &textSystem{p: p, inputVectors: sys.inputVectors, resilience: resilience}
	popts := engine.Options{Parallelism: 2}
	topts := engine.Options{Parallelism: 2}
	if mode == "canon" || mode == "canon+por" {
		canon, err := PermutationCanon(p)
		if err != nil {
			t.Fatal(err)
		}
		canonB, err := PermutationCanonBytes(p)
		if err != nil {
			t.Fatal(err)
		}
		popts.Canon, popts.CanonBytes = canon, canonB
		topts.Canon = textPermutationCanon(p)
	}
	if mode == "por" || mode == "canon+por" {
		popts.Independent, popts.Visible = DeliveryIndependence(p), DecisionVisibility(p)
		topts.Independent, topts.Visible = textIndependence(p), textVisibility(p)
	}
	got, err := engine.Explore(sys.Init(), sys.ExpandInto, popts)
	if err != nil {
		t.Fatalf("packed: %v", err)
	}
	want, err := engine.Explore(ref.Init(), ref.ExpandInto, topts)
	if err != nil {
		t.Fatalf("text: %v", err)
	}
	rowsEqual := got.Expanded() == want.Expanded()
	for i := 0; rowsEqual && i < got.Expanded(); i++ {
		rowsEqual = slices.Equal(got.Row(i), want.Row(i))
	}
	for _, a := range []struct {
		name string
		eq   bool
	}{
		{"initials", slices.Equal(got.Inits, want.Inits)},
		{"rows", rowsEqual},
		{"labels", slices.Equal(got.Labels, want.Labels)},
		{"parents", slices.Equal(got.Parents, want.Parents)},
		{"parent edges", slices.Equal(got.ParentEdges, want.ParentEdges)},
		{"state count", len(got.States) == len(want.States)},
	} {
		if !a.eq {
			t.Fatalf("%s differ (%d packed states, %d text)", a.name, len(got.States), len(want.States))
		}
	}
	for i, c := range got.States {
		if r := render(sys.lay, c); r != want.States[i] {
			t.Fatalf("state %d: packed renders %q, text is %q", i, r, want.States[i])
		}
	}
}

// FuzzPackedConfig feeds arbitrary bytes to the layout validator of
// wait-quorum n=4 at resilience 1. Whatever it accepts must render and pack
// back byte-identical, and every successor ExpandInto emits from it must
// be accepted too. The validator checks the layout, not the protocol's
// states, and on a state it never produces (a value byte of 0x00, say) a
// protocol may send what no layout holds: ExpandInto must then panic
// naming the broken contract, and that panic is the one allowed.
func FuzzPackedConfig(f *testing.F) {
	s := newSys(NewWaitQuorum(4), 1)
	for _, c := range s.Init()[:3] {
		f.Add([]byte(c))
		for _, st := range collectInto(s, c) {
			f.Add([]byte(st.To))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		c := string(b)
		if !s.lay.valid(c) {
			return
		}
		if back, ok := pack(s.lay, render(s.lay, c)); !ok || back != c {
			t.Fatalf("%q renders to %q, which packs to %q (ok %v)", c, render(s.lay, c), back, ok)
		}
		defer func() {
			if r := recover(); r != nil && !strings.Contains(fmt.Sprint(r), "broke the Protocol contract") {
				t.Fatalf("%q: ExpandInto panicked: %v", c, r)
			}
		}()
		for _, st := range collectInto(s, c) {
			if !s.lay.valid(st.To) {
				t.Fatalf("%q: successor %q by %q is not valid", c, st.To, st.Label)
			}
		}
	})
}

// BenchmarkFLPExpandInto times one warmed expansion per op over a fixed
// sample of wait-quorum n=4 configurations at resilience 1: every 64th
// state of the first 64k the exploration reaches.
func BenchmarkFLPExpandInto(b *testing.B) {
	s := newSys(NewWaitQuorum(4), 1)
	res, err := engine.Explore(s.Init(), s.ExpandInto, engine.Options{Parallelism: 1, MaxStates: 1 << 16})
	if err != nil && res == nil {
		b.Fatal(err)
	}
	var sample []config
	for i := 0; i < len(res.States); i += 64 {
		sample = append(sample, res.States[i])
	}
	edges := 0
	x := engine.CollectBytesCtx(func([]byte, string, int) { edges++ })
	for _, c := range sample { // warm the scratch and the label cache
		s.ExpandInto(c, x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ExpandInto(sample[i%len(sample)], x)
	}
	b.ReportMetric(float64(edges)/float64(b.N+len(sample)), "edges/op")
}
