package synth

import (
	"errors"
	"testing"
)

// TestWalkReusesStorage: a walk reset for a smaller space after a larger
// one starts empty, and Reached counts distinct states only.
func TestWalkReusesStorage(t *testing.T) {
	var w Walk
	w.Reset(130) // three words
	for _, s := range []int{0, 64, 129, 64} {
		w.Add(s)
	}
	if w.Reached() != 3 || !w.Has(129) || w.Has(128) {
		t.Fatalf("after adds: reached %d, has(129) %v, has(128) %v", w.Reached(), w.Has(129), w.Has(128))
	}
	w.Reset(10)
	if w.Reached() != 0 || w.Has(0) {
		t.Fatal("Reset left states behind")
	}
	if _, ok := w.Next(); ok {
		t.Fatal("Reset left the stack non-empty")
	}
	if !w.Add(0) || w.Add(0) {
		t.Fatal("Add must report a state new exactly once")
	}
}

// TestSearchPairsSmallestWitness: at any worker count, with and without
// stopAtFirst, SearchPairs returns the witness with the smallest (i, j),
// and an error from check ends the search with that error.
func TestSearchPairsSmallestWitness(t *testing.T) {
	const rows = 200
	cols := func(i int) (int, int) { return i, rows }
	witness := func(i, j int) bool { return i >= 40 && (i*rows+j)%37 == 5 }
	wi, wj := -1, -1
	for i := 0; i < rows && wi < 0; i++ {
		for j := i; j < rows; j++ {
			if witness(i, j) {
				wi, wj = i, j
				break
			}
		}
	}
	for _, workers := range []int{1, 2, 8} {
		for _, stop := range []bool{false, true} {
			i, j, found, err := SearchPairs(make([]struct{}, workers), rows, cols, stop,
				func(_ struct{}, i, j int) (bool, error) { return witness(i, j), nil })
			if err != nil || !found || i != wi || j != wj {
				t.Fatalf("workers=%d stop=%v: (%d, %d, %v, %v), want (%d, %d)", workers, stop, i, j, found, err, wi, wj)
			}
		}
	}

	boom := errors.New("boom")
	_, _, found, err := SearchPairs(make([]struct{}, 2), rows, cols, false,
		func(_ struct{}, i, j int) (bool, error) {
			if i == 7 {
				return false, boom
			}
			return false, nil
		})
	if !errors.Is(err, boom) || found {
		t.Fatalf("err = %v, found = %v; want boom and no witness", err, found)
	}
}
