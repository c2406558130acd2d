package engine

import (
	"fmt"
	"testing"
)

// twiceExpand emits every successor of inner twice, so on the EmitBytes
// canon path the second emission of each raw encoding is a canon-memo hit.
func twiceExpand(inner ExpandFunc) ExpandFunc {
	return func(s string, x *Ctx) {
		var outs [][]byte
		var labels []string
		var actors []int
		inner(s, CollectCtx(func(to, label string, actor int) {
			outs = append(outs, []byte(to))
			labels = append(labels, label)
			actors = append(actors, actor)
		}))
		for i := range outs {
			x.EmitBytes(outs[i], labels[i], actors[i])
			x.EmitBytes(outs[i], labels[i], actors[i])
		}
	}
}

// TestPhaseAttributionReachesEveryEmitRoute requires the 1-in-64 fine
// sample to time the hash+intern section on every route a successor can
// take into the store — string Emit, direct EmitBytes, EmitBytes through
// the byte canonicalizer and its memo, and the POR collect/record path —
// and to time the canonicalization section exactly when a canonicalizer
// is installed.
func TestPhaseAttributionReachesEveryEmitRoute(t *testing.T) {
	const n = 40
	routes := []struct {
		name   string
		expand ExpandFunc
		opts   Options
		canon  bool
	}{
		{"emit", gridExpand(n), Options{}, false},
		{"emit-bytes", gridExpandBytes(n), Options{}, false},
		{"emit-bytes+canon", gridExpandBytes(n), Options{Canon: sortCanon, CanonBytes: newSortCanonBytes}, true},
		{"emit-bytes+canon-memo", twiceExpand(gridExpandBytes(n)), Options{Canon: sortCanon, CanonBytes: newSortCanonBytes}, true},
		{"emit+canon", gridExpand(n), Options{Canon: sortCanon}, true},
		{"por", gridExpand(n), Options{Independent: gridIndep}, false},
		{"canon+por", gridExpand(n), Options{Canon: mirrorGridCanon, Independent: gridIndep}, true},
	}
	for _, rt := range routes {
		for _, par := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/w%d", rt.name, par), func(t *testing.T) {
				var st Stats
				opts := rt.opts
				opts.Parallelism, opts.Stats = par, &st
				if _, err := Explore([]string{"0,0"}, rt.expand, opts); err != nil {
					t.Fatal(err)
				}
				p := st.Phases
				if p.SampledStates == 0 || p.SampleExpandNs <= 0 {
					t.Fatalf("no fine sample: %+v", p)
				}
				if p.SampleInternNs <= 0 {
					t.Fatalf("hash+intern section not timed: %+v", p)
				}
				if got := p.SampleCanonNs > 0; got != rt.canon {
					t.Fatalf("SampleCanonNs = %d with canon installed = %v", p.SampleCanonNs, rt.canon)
				}
			})
		}
	}
}
