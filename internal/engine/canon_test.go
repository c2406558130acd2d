package engine

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// mirrorGridCanon quotients the grid under the diagonal reflection
// (x,y) -> (y,x), which commutes with gridExpand (right and up swap). The
// representative is the lexicographic minimum of the two renderings.
func mirrorGridCanon(s string) string {
	i := strings.IndexByte(s, ',')
	m := s[i+1:] + "," + s[:i]
	if m < s {
		return m
	}
	return s
}

func TestQuotientGrid(t *testing.T) {
	const n = 12
	full, err := Explore([]string{"0,0"}, gridExpand(n), Options{})
	if err != nil {
		t.Fatalf("full explore: %v", err)
	}
	if len(full.States) != n*n {
		t.Fatalf("full states = %d, want %d", len(full.States), n*n)
	}
	quo, err := Explore([]string{"0,0"}, gridExpand(n), Options{
		Canon:       mirrorGridCanon,
		VerifyCanon: 1,
	})
	if err != nil {
		t.Fatalf("quotient explore: %v", err)
	}
	want := n * (n + 1) / 2
	if len(quo.States) != want {
		t.Fatalf("quotient states = %d, want %d", len(quo.States), want)
	}
	for _, s := range quo.States {
		if mirrorGridCanon(s) != s {
			t.Fatalf("non-canonical state %q in quotient result", s)
		}
	}
	st := quo.Stats
	if !st.CanonEnabled {
		t.Fatalf("CanonEnabled = false on a quotient run")
	}
	if st.RawStates <= len(quo.States) {
		t.Fatalf("RawStates = %d, want > quotient states %d", st.RawStates, len(quo.States))
	}
	if st.CanonHits == 0 {
		t.Fatalf("CanonHits = 0, want > 0")
	}
	if rf := st.ReductionFactor(); rf <= 1 {
		t.Fatalf("ReductionFactor = %v, want > 1", rf)
	}
	if !strings.Contains(st.String(), "reduction=") {
		t.Fatalf("Stats.String() missing reduction telemetry: %q", st.String())
	}
}

func TestQuotientDeterminismAcrossWorkerCounts(t *testing.T) {
	run := func(par, maxStates int) (*Result[string], error) {
		return Explore([]string{"0,0"}, gridExpand(40), Options{
			Parallelism: par,
			MaxStates:   maxStates,
			Canon:       mirrorGridCanon,
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
			if got.Stats.RawStates != ref.Stats.RawStates {
				t.Fatalf("max=%d par=%d: RawStates = %d, want %d", maxStates, par, got.Stats.RawStates, ref.Stats.RawStates)
			}
			if got.Stats.CanonHits != ref.Stats.CanonHits {
				t.Fatalf("max=%d par=%d: CanonHits = %d, want %d", maxStates, par, got.Stats.CanonHits, ref.Stats.CanonHits)
			}
		}
	}
}

func TestVerifyCanonCatchesNonIdempotent(t *testing.T) {
	// Always reflecting is an involution, not a projection: applying it
	// twice returns to the start, so it picks no representative.
	reflect := func(s string) string {
		i := strings.IndexByte(s, ',')
		return s[i+1:] + "," + s[:i]
	}
	for _, par := range []int{1, 4} {
		_, err := Explore([]string{"0,1"}, gridExpand(6), Options{
			Parallelism: par,
			Canon:       reflect,
			VerifyCanon: 1,
		})
		if !errors.Is(err, ErrCanonUnsound) {
			t.Fatalf("par=%d: err = %v, want ErrCanonUnsound", par, err)
		}
		if !strings.Contains(err.Error(), "idempotent") {
			t.Fatalf("par=%d: err = %v, want idempotence complaint", par, err)
		}
	}
}

func TestVerifyCanonCatchesNonCommuting(t *testing.T) {
	// Rounding down to even is idempotent but does not commute with the
	// chain step: succ(3) canonicalizes to {4} while succ(canon(3)) = succ(2)
	// canonicalizes to {2}.
	roundDown := func(s string) string { return strconv.Itoa(atoi(s) - atoi(s)%2) }
	for _, par := range []int{1, 4} {
		_, err := Explore([]string{"0"}, chainExpand(10), Options{
			Parallelism: par,
			Canon:       roundDown,
			VerifyCanon: 1,
		})
		if !errors.Is(err, ErrCanonUnsound) {
			t.Fatalf("par=%d: err = %v, want ErrCanonUnsound", par, err)
		}
		if !strings.Contains(err.Error(), "step-commuting") {
			t.Fatalf("par=%d: err = %v, want step-commutation complaint", par, err)
		}
	}
}

func TestVerifyCanonSampling(t *testing.T) {
	// A sparse sampling modulus still catches a broken canonicalizer on a
	// large enough system, and sampling is fingerprint-keyed, so the same
	// modulus fails identically at any worker count. The pure reflection
	// keeps the exploration alive (it merges nothing), leaving thousands of
	// off-diagonal states as check candidates.
	reflect := func(s string) string {
		i := strings.IndexByte(s, ',')
		return s[i+1:] + "," + s[:i]
	}
	for _, par := range []int{1, 4} {
		_, err := Explore([]string{"0,0"}, gridExpand(60), Options{
			Parallelism: par,
			Canon:       reflect,
			VerifyCanon: 64,
		})
		if !errors.Is(err, ErrCanonUnsound) {
			t.Fatalf("par=%d: sampled check missed the unsound canonicalizer: %v", par, err)
		}
	}
}
