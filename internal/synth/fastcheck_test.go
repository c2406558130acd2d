package synth

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/sharedmem"
)

// allTables builds every table of the skeleton's TAS (rw false) or
// read/write (rw true) class, pruned ones included, in search order.
func allTables(sk tasSkeleton, rw bool) [][][]sharedmem.Cell {
	var out [][][]sharedmem.Cell
	if rw {
		opts := rwStateOptions(sk.values, sk.try)
		perProc := spaceSize(uint64(len(opts)), sk.try, uint64(sk.values))
		for idx := uint64(0); idx < perProc; idx++ {
			out = append(out, sk.rwTable(opts, idx))
		}
		return out
	}
	opts := sk.cellOptions()
	perProc := spaceSize(uint64(len(opts)), sk.try*sk.values, uint64(sk.values))
	for idx := uint64(0); idx < perProc; idx++ {
		out = append(out, sk.tasTable(opts, idx))
	}
	return out
}

// e01Tables are the tables E01's search pairs up: the 2-valued TAS class
// with two trying states, after the static prunes.
func e01Tables() (tasSkeleton, [][][]sharedmem.Cell) {
	sk := tasSkeleton{values: 2, try: 2}
	opts := sk.cellOptions()
	perProc := spaceSize(uint64(len(opts)), sk.try*sk.values, uint64(sk.values))
	var res Result
	return sk, sk.viableTables(perProc, func(idx uint64) [][]sharedmem.Cell { return sk.tasTable(opts, idx) }, &res)
}

// compareWithCheckMutex checks every pair with the dense checker and with
// sharedmem.CheckMutex on the same protocol, spread over GOMAXPROCS
// goroutines. Each verdict the dense checker computes must match; it
// skips progress after an exclusion failure and lockout-freedom after a
// progress failure.
func compareWithCheckMutex(t *testing.T, sk tasSkeleton, kind sharedmem.VarKind, pairs [][2][][]sharedmem.Cell) {
	t.Helper()
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pc := sk.newPairChecker()
			for k := w; k < len(pairs); k += workers {
				p := pairs[k]
				got := pc.checkPair(p[0], p[1], true)
				rep, err := sharedmem.CheckMutex(sk.toAlgorithm("oracle", kind, p[0], p[1]),
					sharedmem.CheckMutexOptions{Parallelism: 1})
				switch {
				case err != nil:
					t.Errorf("pair %d: CheckMutex: %v", k, err)
				case got.exclusion != rep.MutualExclusion,
					got.exclusion && got.progress != rep.Progress,
					got.progress && got.lockoutFree != rep.LockoutFree:
					t.Errorf("pair %d: dense %+v, CheckMutex exclusion=%v progress=%v lockout-free=%v",
						k, got, rep.MutualExclusion, rep.Progress, rep.LockoutFree)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPairCheckerMatchesCheckMutex holds the dense mutex checker to the
// engine-backed sharedmem.CheckMutex: on every ordered pair of the v=2,
// t=1 TAS and RW spaces, and on E01's space (v=2, t=2) sampled at a fixed
// stride plus every pair that passes exclusion.
func TestPairCheckerMatchesCheckMutex(t *testing.T) {
	small := tasSkeleton{values: 2, try: 1}
	for _, c := range []struct {
		rw   bool
		kind sharedmem.VarKind
	}{{false, sharedmem.RMW}, {true, sharedmem.RW}} {
		tables := allTables(small, c.rw)
		var pairs [][2][][]sharedmem.Cell
		for _, a := range tables {
			for _, b := range tables {
				pairs = append(pairs, [2][][]sharedmem.Cell{a, b})
			}
		}
		compareWithCheckMutex(t, small, c.kind, pairs)
	}

	e01, tables := e01Tables()
	const stride = 401
	pc := e01.newPairChecker()
	var pairs [][2][][]sharedmem.Cell
	k := 0
	for i := range tables {
		for j := i; j < len(tables); j++ {
			if pc.checkPair(tables[i], tables[j], true).exclusion || k%stride == 0 {
				pairs = append(pairs, [2][][]sharedmem.Cell{tables[i], tables[j]})
			}
			k++
		}
	}
	// The E01 figures: 840,456 pairs of which 2,346 pass exclusion.
	if pc.pairs != 840456 || pc.passedME != 2346 {
		t.Fatalf("E01 space: %d pairs, %d pass exclusion; want 840456 and 2346", pc.pairs, pc.passedME)
	}
	compareWithCheckMutex(t, e01, sharedmem.RMW, pairs)
}

// e01Pair is the first pair of E01's search that passes exclusion and
// progress, so checking it runs the walk and every fairness pass.
func e01Pair(tb testing.TB) (*pairChecker, [2][][]sharedmem.Cell) {
	sk, tables := e01Tables()
	pc := sk.newPairChecker()
	for i := range tables {
		for j := i; j < len(tables); j++ {
			if pc.checkPair(tables[i], tables[j], true).progress {
				return pc, [2][][]sharedmem.Cell{tables[i], tables[j]}
			}
		}
	}
	tb.Fatal("no E01 pair passes progress")
	return nil, [2][][]sharedmem.Cell{}
}

// TestPairCheckerAllocationFree: a warmed checker allocates nothing per
// pair, through the walk and the fairness passes alike.
func TestPairCheckerAllocationFree(t *testing.T) {
	pc, p := e01Pair(t)
	if n := testing.AllocsPerRun(100, func() { pc.checkPair(p[0], p[1], true) }); n != 0 {
		t.Errorf("checkPair allocates %.1f objects per pair, want 0", n)
	}
}

// pairVerdictSink keeps BenchmarkPairCheck's result alive.
var pairVerdictSink pairVerdict

// BenchmarkPairCheck times one E01 pair check on a warmed checker: a pair
// that passes exclusion and progress, so the walk and all three fairness
// passes run.
func BenchmarkPairCheck(b *testing.B) {
	pc, p := e01Pair(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairVerdictSink = pc.checkPair(p[0], p[1], true)
	}
}
