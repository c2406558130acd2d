package registers

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// pairSys is the 2-process configuration system for one table pair under
// fixed inputs, encoded as core-explorable 3-byte string states
// (l0, l1, v), where a local state of locals or locals+1 is the
// decide-0/decide-1 pseudo-state. It is the oracle the dense consChecker
// is held to: the same specification checked on a graph the shared
// exploration engine builds.
type pairSys struct {
	tables         [2]ConsTable
	locals, values int
	a, b           int
}

func appendPair(b []byte, l0, l1, v int) []byte { return append(b, byte(l0), byte(l1), byte(v)) }

func (ps *pairSys) decode(s string) (l0, l1, v int) { return int(s[0]), int(s[1]), int(s[2]) }

// Init implements core.System.
func (ps *pairSys) Init() []string { return []string{string(appendPair(nil, ps.a, ps.b, 0))} }

// ExpandInto implements core.System: each undecided process may take its
// one atomic access next.
func (ps *pairSys) ExpandInto(s string, x *engine.Ctx[string]) {
	l0, l1, v := ps.decode(s)
	ls := [2]int{l0, l1}
	for p := 0; p < 2; p++ {
		if ls[p] >= ps.locals { // decided: takes no further steps
			continue
		}
		c := ps.tables[p][ls[p]][v]
		nl := ls
		nl[p] = c.Next
		x.Scratch = appendPair(x.Scratch[:0], nl[0], nl[1], c.NewVal)
		x.EmitBytes(x.Scratch, "access", p)
	}
}

// referenceCheckPair is wait-free consensus checked the slow way: explore
// each input combination's whole graph with core.Explore, then test
// agreement, validity and solo wait-freedom on every configuration.
func referenceCheckPair(t0, t1 ConsTable, locals, values, maxStates int) (bool, error) {
	for a := 0; a <= 1; a++ {
		for b := 0; b <= 1; b++ {
			ok, err := referenceCheckInputs(t0, t1, locals, values, a, b, maxStates)
			if err != nil || !ok {
				return false, err
			}
		}
	}
	return true, nil
}

func referenceCheckInputs(t0, t1 ConsTable, locals, values, a, b, maxStates int) (bool, error) {
	sys := &pairSys{tables: [2]ConsTable{t0, t1}, locals: locals, values: values, a: a, b: b}
	g, err := core.Explore[string](sys, core.ExploreOptions{MaxStates: maxStates, Parallelism: 1})
	if err != nil {
		return false, err
	}
	decided := func(l int) (int, bool) {
		if l >= locals {
			return l - locals, true
		}
		return 0, false
	}
	for i := 0; i < g.Len(); i++ {
		l0, l1, v := sys.decode(g.State(i))
		ls := [2]int{l0, l1}
		d0, ok0 := decided(l0)
		d1, ok1 := decided(l1)
		if ok0 && ok1 && d0 != d1 {
			return false, nil
		}
		if ok0 && d0 != a && d0 != b || ok1 && d1 != a && d1 != b {
			return false, nil
		}
		for p := 0; p < 2; p++ {
			if _, ok := decided(ls[p]); ok {
				continue
			}
			sl, sv := ls[p], v
			finished := false
			for step := 0; step < locals*values+2; step++ {
				c := sys.tables[p][sl][sv]
				sv = c.NewVal
				if c.Next >= locals {
					finished = true
					break
				}
				sl = c.Next
			}
			if !finished {
				return false, nil
			}
		}
	}
	return true, nil
}

// viableTables enumerates the tables SearchConsensus pairs up.
func viableTables(kind ObjKind, values, locals int) []ConsTable {
	opts := stateOptions(kind, values, locals)
	perProc := uint64(1)
	for i := 0; i < locals; i++ {
		perProc *= uint64(len(opts))
	}
	var out []ConsTable
	for id := uint64(0); id < perProc; id++ {
		t := make(ConsTable, locals)
		fillTable(t, opts, id)
		if soloValid(t, locals, values) {
			out = append(out, t)
		}
	}
	return out
}

// comparePairs runs the dense checker and the reference on every pair,
// spread over GOMAXPROCS goroutines, and reports how many pairs passed.
func comparePairs(t *testing.T, pairs [][2]ConsTable, locals, values int) (passed int) {
	t.Helper()
	workers := runtime.GOMAXPROCS(0)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cc := newConsChecker(locals, values, 0)
			for k := w; k < len(pairs); k += workers {
				p := pairs[k]
				got, err := cc.checkPair(p[0], p[1])
				want, werr := referenceCheckPair(p[0], p[1], locals, values, 0)
				mu.Lock()
				if err != nil || werr != nil {
					t.Errorf("pair %d: dense err %v, reference err %v", k, err, werr)
				} else if got != want {
					t.Errorf("pair %d (%v, %v): dense %v, reference %v", k, p[0], p[1], got, want)
				}
				if got {
					passed++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return passed
}

// TestDenseCheckerMatchesReference holds the dense consensus checker to
// the core.Explore reference: every RW pair the search checks at two
// locals and 2 or 3 values, every diagonal RMW pair, a fixed-stride sample
// of the off-diagonal RMW pairs, and solo-valid random tables at three
// locals and three values (75 configurations, a two-word bitset) with the
// canonical protocol among them.
func TestDenseCheckerMatchesReference(t *testing.T) {
	for _, values := range []int{2, 3} {
		tables := viableTables(RWRegister, values, 2)
		var pairs [][2]ConsTable
		for i := range tables {
			for j := i; j < len(tables); j++ {
				pairs = append(pairs, [2]ConsTable{tables[i], tables[j]})
			}
		}
		if passed := comparePairs(t, pairs, 2, values); passed != 0 {
			t.Errorf("rw values=%d: %d pairs passed, want 0", values, passed)
		}
	}

	rmw := viableTables(RMWObject, 3, 2)
	diag := make([][2]ConsTable, len(rmw))
	for i, tb := range rmw {
		diag[i] = [2]ConsTable{tb, tb}
	}
	if passed := comparePairs(t, diag, 2, 3); passed == 0 {
		t.Error("no diagonal RMW pair passed; the canonical protocol is among them")
	}
	const stride = 7919 // prime, so the sample walks both axes
	var off [][2]ConsTable
	for k := 0; k < 20000; k++ {
		i, j := (k*stride)%len(rmw), (k*stride/len(rmw)+k)%len(rmw)
		if i != j {
			off = append(off, [2]ConsTable{rmw[i], rmw[j]})
		}
	}
	comparePairs(t, off, 2, 3)

	const locals, values = 3, 3
	canon := CanonicalTASConsensus(locals)
	wide := [][2]ConsTable{{canon, canon}}
	opts := stateOptions(RMWObject, values, locals)
	rng := rand.New(rand.NewSource(3))
	var solo []ConsTable
	for len(solo) < 200 {
		tb := make(ConsTable, locals)
		for s := range tb {
			tb[s] = opts[rng.Intn(len(opts))]
		}
		if soloValid(tb, locals, values) {
			solo = append(solo, tb, canon)
		}
	}
	for i := 0; i+1 < len(solo); i++ {
		wide = append(wide, [2]ConsTable{solo[i], solo[i+1]}, [2]ConsTable{solo[i], solo[i]})
	}
	if passed := comparePairs(t, wide, locals, values); passed == 0 {
		t.Error("no pair passed at three locals; the canonical protocol should")
	}
}

// TestSearchConsensusDeterministicAcrossWorkerCounts: the witness is the
// pair with the smallest enumeration index at any worker count, so whole
// results match across 1, 2 and 8 workers. Under StopAtFirst only
// PairsChecked may differ (rows past the witness are skipped as soon as
// it is known), so that case compares everything else.
func TestSearchConsensusDeterministicAcrossWorkerCounts(t *testing.T) {
	cases := []struct {
		name string
		cfg  ConsSearchConfig
	}{
		{"rmw-first", ConsSearchConfig{Kind: RMWObject, Values: 3, LocalStates: 2, Symmetric: true, StopAtFirst: true}},
		{"rmw-all", ConsSearchConfig{Kind: RMWObject, Values: 3, LocalStates: 2, Symmetric: true}},
		{"rw-none", ConsSearchConfig{Kind: RWRegister, Values: 3, LocalStates: 2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.Workers = 1
			base, err := SearchConsensus(c.cfg)
			if err != nil {
				t.Fatalf("workers=1: %v", err)
			}
			for _, w := range []int{2, 8} {
				for rep := 0; rep < 3; rep++ {
					c.cfg.Workers = w
					got, err := SearchConsensus(c.cfg)
					if err != nil {
						t.Fatalf("workers=%d: %v", w, err)
					}
					if c.cfg.StopAtFirst {
						got.PairsChecked = base.PairsChecked
					}
					if !reflect.DeepEqual(got, base) {
						t.Fatalf("workers=%d run %d differs from workers=1:\n%+v\nvs\n%+v", w, rep, got, base)
					}
				}
			}
		})
	}
}

// TestConsCheckerAllocationFree: a warmed checker allocates nothing per
// pair, passing or failing.
func TestConsCheckerAllocationFree(t *testing.T) {
	canon := CanonicalTASConsensus(2)
	rw := viableTables(RWRegister, 3, 2)
	cc := newConsChecker(2, 3, 0)
	for _, p := range [][2]ConsTable{{canon, canon}, {rw[0], rw[len(rw)-1]}} {
		cc.checkPair(p[0], p[1])
		if n := testing.AllocsPerRun(100, func() { cc.checkPair(p[0], p[1]) }); n != 0 {
			t.Errorf("checkPair allocates %.1f objects per pair, want 0", n)
		}
	}
}

// BenchmarkPairCheck times one E20 pair check, the canonical protocol
// against itself (all four input graphs walked to the end), on a warmed
// checker.
func BenchmarkPairCheck(b *testing.B) {
	canon := CanonicalTASConsensus(2)
	cc := newConsChecker(2, 3, 0)
	cc.checkPair(canon, canon)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, err := cc.checkPair(canon, canon); !ok || err != nil {
			b.Fatalf("canonical pair: %v %v", ok, err)
		}
	}
}
