package engine

import (
	"fmt"
	"testing"

	"repro/internal/store"
)

// TestRaceMatrix drives the hot path at 8 workers across every reduction
// stack — full, canon quotient, ample-set POR, and the canon+POR stack —
// over both the mem and spill store backends, with the aliasing falsifier
// on, and checks each graph is byte-identical to its one-worker twin. On
// its own it is a determinism test; under `go test -race` (CI runs it that
// way explicitly) it is the data-race gate for the zero-alloc pipeline:
// slab arenas, scratch buffers, the label interner and the sharded
// interning table all get concurrent traffic here.
func TestRaceMatrix(t *testing.T) {
	const n = 24
	inits := []string{"0,0"}
	modes := []struct {
		name string
		opts Options
	}{
		{"full", Options{}},
		{"canon", Options{Canon: sortCanon, CanonBytes: newSortCanonBytes, VerifyCanon: 4}},
		{"por", Options{Independent: gridIndep}},
		{"canon+por", Options{Canon: sortCanon, CanonBytes: newSortCanonBytes, VerifyCanon: 4, Independent: gridIndep}},
	}
	stores := []struct {
		name string
		cfg  store.Config
	}{
		{"mem", store.Config{}},
		{"spill", store.Config{Kind: store.Spill, MaxBytes: 1 << 10, PageBits: 5}},
	}
	for _, m := range modes {
		for _, sc := range stores {
			t.Run(m.name+"/"+sc.name, func(t *testing.T) {
				seqOpts := m.opts
				seqOpts.Parallelism = 1
				seqOpts.Store = sc.cfg
				seqOpts.VerifyAliasing = 1
				want, err := Explore(inits, gridExpandBytes(n), seqOpts)
				if err != nil {
					t.Fatal(err)
				}
				parOpts := seqOpts
				parOpts.Parallelism = 8
				got, err := Explore(inits, gridExpandBytes(n), parOpts)
				if err != nil {
					t.Fatal(err)
				}
				mustEqualResults(t, fmt.Sprintf("%s/%s workers=8", m.name, sc.name), want, got)
				if m.opts.Canon == nil && m.opts.Independent == nil {
					ref, err := referenceExplore(inits, gridExpandBytes(n), 0)
					if err != nil {
						t.Fatal(err)
					}
					mustEqualResults(t, fmt.Sprintf("%s/%s vs reference BFS", m.name, sc.name), ref, want)
				}
			})
		}
	}
}
