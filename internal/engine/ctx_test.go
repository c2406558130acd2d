package engine

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/store"
)

// gridExpandBytes is gridExpand reworked onto the zero-alloc surface:
// successors are rendered into Ctx.Scratch and emitted as raw bytes, and
// labels go through the Ctx label interner. It must explore byte-identically
// to gridExpand.
func gridExpandBytes(n int) ExpandFunc {
	return func(s string, ex *Ctx) {
		comma := strings.IndexByte(s, ',')
		x, _ := strconv.Atoi(s[:comma])
		y, _ := strconv.Atoi(s[comma+1:])
		buf := ex.Scratch[:0]
		if x+1 < n {
			buf = strconv.AppendInt(buf[:0], int64(x+1), 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(y), 10)
			ex.EmitBytes(buf, ex.Label([]byte("right")), 0)
		}
		if y+1 < n {
			buf = strconv.AppendInt(buf[:0], int64(x), 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(y+1), 10)
			ex.EmitBytes(buf, ex.Label([]byte("up")), 1)
		}
		ex.Scratch = buf
	}
}

// TestEmitBytesMatchesEmit checks the EmitBytes direct path against the
// materializing Emit path: byte-identical Results and invariant telemetry
// at several worker counts and across every bytes-capable backend.
func TestEmitBytesMatchesEmit(t *testing.T) {
	const n = 12
	inits := []string{"0,0"}
	stores := map[string]store.Config{
		"mem":   {},
		"spill": {Kind: store.Spill, MaxBytes: 1 << 10, PageBits: 5},
	}
	for name, sc := range stores {
		for _, par := range []int{1, 2, 8} {
			opts := Options{Parallelism: par, Store: sc, VerifyAliasing: 1}
			want, err := Explore(inits, gridExpand(n), opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Explore(inits, gridExpandBytes(n), opts)
			if err != nil {
				t.Fatal(err)
			}
			mustEqualResults(t, fmt.Sprintf("emit-bytes %s workers=%d", name, par), want, got)
			if want.Stats.DedupHits != got.Stats.DedupHits || want.Stats.Expansions != got.Stats.Expansions {
				t.Fatalf("%s workers=%d: telemetry differs: dedup %d vs %d, expansions %d vs %d", name, par,
					want.Stats.DedupHits, got.Stats.DedupHits, want.Stats.Expansions, got.Stats.Expansions)
			}
		}
	}
}

// sortCanon maps "x,y" to the orbit representative with the coordinates
// sorted — the transposition symmetry of the grid.
func sortCanon(s string) string {
	comma := strings.IndexByte(s, ',')
	a, b := s[:comma], s[comma+1:]
	ai, _ := strconv.Atoi(a)
	bi, _ := strconv.Atoi(b)
	if ai <= bi {
		return s
	}
	return b + "," + a
}

// sortCanonBytes is sortCanon's byte-level twin.
func sortCanonBytes(dst, src []byte) []byte {
	comma := 0
	for src[comma] != ',' {
		comma++
	}
	a, _ := strconv.Atoi(string(src[:comma]))
	b, _ := strconv.Atoi(string(src[comma+1:]))
	if a <= b {
		return append(dst[:0], src...)
	}
	dst = append(dst[:0], src[comma+1:]...)
	dst = append(dst, ',')
	return append(dst, src[:comma]...)
}

// newSortCanonBytes is the Options.CanonBytes factory of sortCanonBytes,
// which is stateless, so every worker shares it.
func newSortCanonBytes() BytesCanonicalizer { return sortCanonBytes }

// TestCanonBytesMatchesCanon checks the byte-level quotient against the
// string canonicalizer on every route (Emit, EmitBytes, each with and
// without POR): identical quotient Results and telemetry, with
// VerifyCanon cross-checking agreement on every remapped state.
func TestCanonBytesMatchesCanon(t *testing.T) {
	const n = 10
	inits := []string{"0,0"}
	expands := map[string]ExpandFunc{"emit": gridExpand(n), "emit-bytes": gridExpandBytes(n)}
	for _, par := range []int{1, 2, 8} {
		for _, indep := range []Independence{nil, gridIndep} {
			strOpts := Options{Parallelism: par, Canon: sortCanon, VerifyCanon: 1, VerifyAliasing: 1, Independent: indep}
			want, err := Explore(inits, gridExpand(n), strOpts)
			if err != nil {
				t.Fatal(err)
			}
			bytesOpts := strOpts
			bytesOpts.CanonBytes = newSortCanonBytes
			for name, expand := range expands {
				got, err := Explore(inits, expand, bytesOpts)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("canon-bytes %s por=%t workers=%d", name, indep != nil, par)
				mustEqualResults(t, what, want, got)
				if want.Stats.CanonHits != got.Stats.CanonHits || want.Stats.RawStates != got.Stats.RawStates {
					t.Fatalf("%s: canon telemetry differs: hits %d vs %d, raw %d vs %d", what,
						want.Stats.CanonHits, got.Stats.CanonHits, want.Stats.RawStates, got.Stats.RawStates)
				}
			}
		}
	}
}

// TestCanonBytesCoversEveryRoute: with CanonBytes installed the string
// Canon is only the specification the sampled checks hold the byte form
// to. No exploration route calls it at VerifyCanon 0 — the Emit route,
// EmitBytes' direct path, EmitBytes under POR (where collect mode
// materializes the raw successor) and the initial states — while at
// VerifyCanon 1 every route does, through the check.
func TestCanonBytesCoversEveryRoute(t *testing.T) {
	const n = 10
	var calls atomic.Int64
	counted := func(s string) string {
		calls.Add(1)
		return sortCanon(s)
	}
	noSuccessors := func(string, *Ctx) {}
	for _, route := range []struct {
		name   string
		inits  []string
		expand ExpandFunc
		indep  Independence
	}{
		{"emit", []string{"0,0"}, gridExpand(n), nil},
		{"emit-bytes", []string{"0,0"}, gridExpandBytes(n), nil},
		{"emit-bytes+por", []string{"0,0"}, gridExpandBytes(n), gridIndep},
		{"inits", []string{"3,1", "1,3", "2,0"}, noSuccessors, nil},
	} {
		for _, par := range []int{1, 2} {
			for _, verify := range []int{0, 1} {
				calls.Store(0)
				if _, err := Explore(route.inits, route.expand, Options{
					Parallelism: par, Canon: counted, CanonBytes: newSortCanonBytes,
					VerifyCanon: verify, Independent: route.indep,
				}); err != nil {
					t.Fatalf("%s workers=%d verify=%d: %v", route.name, par, verify, err)
				}
				got := calls.Load()
				if verify == 0 && got != 0 {
					t.Errorf("%s workers=%d: %d string Canon calls outside sampled checks, want 0", route.name, par, got)
				}
				if verify == 1 && got == 0 {
					t.Errorf("%s workers=%d: VerifyCanon 1 never ran the string Canon", route.name, par)
				}
			}
		}
	}
}

// TestCanonBytesDisagreementCaught plants a byte canonicalizer that
// disagrees with the string canonicalizer; VerifyCanon must fail the run
// with ErrCanonUnsound. The broken canon swaps unconditionally so that it
// remaps states sortCanon holds fixed (the sampler only cross-checks
// remapped states — a disagreeing fixed point of the byte canon would
// also be a remap under it, so unconditional swapping covers the case).
// It runs on EmitBytes' direct path and on the POR route.
func TestCanonBytesDisagreementCaught(t *testing.T) {
	broken := func(dst, src []byte) []byte {
		comma := 0
		for src[comma] != ',' {
			comma++
		}
		dst = append(dst[:0], src[comma+1:]...)
		dst = append(dst, ',')
		return append(dst, src[:comma]...)
	}
	for _, indep := range []Independence{nil, gridIndep} {
		_, err := Explore([]string{"0,0"}, gridExpandBytes(8), Options{
			Canon:       sortCanon,
			CanonBytes:  func() BytesCanonicalizer { return broken },
			VerifyCanon: 1,
			Independent: indep,
		})
		if !errors.Is(err, ErrCanonUnsound) {
			t.Fatalf("swapping CanonBytes under sortCanon (por=%t): err = %v, want ErrCanonUnsound", indep != nil, err)
		}
	}
}

// TestCanonBytesRequiresCanon checks the option-validation coupling.
func TestCanonBytesRequiresCanon(t *testing.T) {
	_, err := Explore([]string{"0,0"}, gridExpandBytes(4), Options{CanonBytes: newSortCanonBytes})
	if err == nil {
		t.Fatal("CanonBytes without Canon accepted")
	}
}

// retainingExpand illegally keeps views into Ctx.Scratch across
// expansions: the first expansion stashes the rendered successor bytes,
// later expansions re-emit from the stale (possibly poisoned or
// overwritten) memory. VerifyAliasing must catch it.
type retainingExpand struct {
	stash [][]byte
}

func (r *retainingExpand) expand(s string, x *Ctx) {
	if len(x.Scratch) < 8 {
		x.Scratch = make([]byte, 8)
	}
	buf := x.Scratch[:0]
	switch s {
	case "a":
		buf = append(buf, "b0"...)
		r.stash = append(r.stash, buf) // illegal: retained across expansions
		x.EmitBytes(buf, "step", 0)
	default:
		if len(r.stash) > 0 {
			// Re-emit from the retained buffer: its contents are garbage
			// by now (the engine poisons Scratch between expansions under
			// VerifyAliasing), so the re-expansion diverges.
			x.EmitBytes(r.stash[0], "step", 0)
		}
	}
}

func TestVerifyAliasingCatchesRetainedBuffer(t *testing.T) {
	// One worker so the stashed slice aliases the scratch buffer of the
	// worker whose re-expansion reads it back. The POR arm checks the
	// collected actions instead of the arena.
	for name, indep := range map[string]Independence{"full": nil, "por": gridIndep} {
		r := &retainingExpand{}
		_, err := Explore([]string{"a"}, r.expand, Options{Parallelism: 1, VerifyAliasing: 1, MaxStates: 100, Independent: indep})
		if !errors.Is(err, ErrAliasUnsound) {
			t.Fatalf("%s: buffer-retaining system: err = %v, want ErrAliasUnsound", name, err)
		}
	}
}

// TestVerifyAliasingCleanSystems re-runs well-behaved expansions (string
// and bytes emitting, full and POR modes) under VerifyAliasing=1 and
// checks the results are byte-identical to unverified runs: the falsifier
// must be a pure observer.
func TestVerifyAliasingCleanSystems(t *testing.T) {
	inits := []string{"0,0"}
	indep := func(s string, a, b Action) bool { return a.Actor != b.Actor }
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"full", Options{}},
		{"canon", Options{Canon: sortCanon, VerifyCanon: 1}},
		{"por", Options{Independent: indep, VerifyPOR: 1}},
	} {
		for _, expand := range []ExpandFunc{gridExpand(9), gridExpandBytes(9)} {
			want, err := Explore(inits, expand, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			vopts := tc.opts
			vopts.VerifyAliasing = 1
			got, err := Explore(inits, expand, vopts)
			if err != nil {
				t.Fatalf("%s with VerifyAliasing: %v", tc.name, err)
			}
			mustEqualResults(t, tc.name+" aliasing-verified", want, got)
		}
	}
}

// TestLabelInterner checks Label returns stable, value-equal strings.
func TestLabelInterner(t *testing.T) {
	x := &Ctx{}
	a := x.Label([]byte("deliver 0>1:m"))
	b := x.Label([]byte("deliver 0>1:m"))
	if a != b {
		t.Fatalf("Label not stable: %q vs %q", a, b)
	}
	if len(x.labels) != 1 {
		t.Fatalf("interner holds %d entries, want 1", len(x.labels))
	}
}
