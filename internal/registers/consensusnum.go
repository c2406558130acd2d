package registers

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
)

// This file mechanizes Herlihy's consensus-number separation (§2.3, [65],
// with the underlying impossibility due to Loui–Abu-Amara [76]): wait-free
// 2-process binary consensus is solvable with a single read-modify-write
// (test-and-set) object but not with a read/write register, no matter how
// many values the register holds. The negative half is proved by
// exhaustion over every bounded protocol table under the read/write
// discipline; the positive half is found by the same search run over the
// unrestricted RMW tables.

// ObjKind selects the shared object's access discipline.
type ObjKind int

const (
	// RWRegister permits pure reads and blind writes only.
	RWRegister ObjKind = iota + 1
	// RMWObject permits one atomic read-compute-write per access.
	RMWObject
)

// String implements fmt.Stringer.
func (k ObjKind) String() string {
	switch k {
	case RWRegister:
		return "rw-register"
	case RMWObject:
		return "rmw-object"
	default:
		return fmt.Sprintf("ObjKind(%d)", int(k))
	}
}

// ConsCell is one transition-table entry: the next local state (a plain
// state, or a decide pseudo-state) and the value stored back.
type ConsCell struct {
	Next   int // 0..L-1 plain, L = decide 0, L+1 = decide 1
	NewVal int
}

// ConsTable is one process's program: Table[state][observedValue].
type ConsTable [][]ConsCell

// ConsSearchConfig parameterizes SearchConsensus.
type ConsSearchConfig struct {
	// Kind selects the object discipline.
	Kind ObjKind
	// Values is the object's domain size (initial value 0).
	Values int
	// LocalStates is the plain-state count L >= 2; a process starts in
	// state equal to its input (0 or 1).
	LocalStates int
	// Symmetric makes both processes run the same table.
	Symmetric bool
	// StopAtFirst ends the search at the first witness.
	StopAtFirst bool
	// Workers is the parallelism degree; zero means GOMAXPROCS.
	Workers int
	// MaxStates bounds each per-pair reachability exploration (zero means
	// core.DefaultMaxStates). If any pair's configuration space exceeds the
	// bound, SearchConsensus fails with core.ErrStateLimit.
	MaxStates int
}

// ConsResult reports a consensus search.
type ConsResult struct {
	// TablesEnumerated counts generated per-process tables.
	TablesEnumerated uint64
	// TablesViable counts tables passing the solo-validity prune.
	TablesViable uint64
	// PairsChecked counts protocol pairs model-checked.
	PairsChecked uint64
	// Witness is a working protocol pair, if found.
	Witness *[2]ConsTable
}

// Found reports whether a witness protocol was found.
func (r ConsResult) Found() bool { return r.Witness != nil }

// stateOptions enumerates the legal rows for one local state.
func stateOptions(kind ObjKind, values, locals int) [][]ConsCell {
	targets := locals + 2
	var out [][]ConsCell
	switch kind {
	case RWRegister:
		// Pure reads: a target per observed value, value unchanged.
		total := 1
		for i := 0; i < values; i++ {
			total *= targets
		}
		for idx := 0; idx < total; idx++ {
			row := make([]ConsCell, values)
			rem := idx
			for v := 0; v < values; v++ {
				row[v] = ConsCell{Next: rem % targets, NewVal: v}
				rem /= targets
			}
			out = append(out, row)
		}
		// Blind writes: constant target and stored value.
		for next := 0; next < targets; next++ {
			for nv := 0; nv < values; nv++ {
				row := make([]ConsCell, values)
				for v := 0; v < values; v++ {
					row[v] = ConsCell{Next: next, NewVal: nv}
				}
				out = append(out, row)
			}
		}
	default: // RMWObject: free (target, newVal) per observed value
		perVal := targets * values
		total := 1
		for i := 0; i < values; i++ {
			total *= perVal
		}
		for idx := 0; idx < total; idx++ {
			row := make([]ConsCell, values)
			rem := idx
			for v := 0; v < values; v++ {
				c := rem % perVal
				rem /= perVal
				row[v] = ConsCell{Next: c / values, NewVal: c % values}
			}
			out = append(out, row)
		}
	}
	return out
}

// soloValid checks the per-table prune: a process running entirely alone
// must decide its own input (validity forces this — alone, only its input
// is present in the system) within a bounded number of steps.
func soloValid(t ConsTable, locals, values int) bool {
	for input := 0; input <= 1; input++ {
		l, v := input, 0
		limit := locals*values + 2
		decided := -1
		for step := 0; step < limit; step++ {
			c := t[l][v]
			v = c.NewVal
			if c.Next >= locals {
				decided = c.Next - locals
				break
			}
			l = c.Next
		}
		if decided != input {
			return false
		}
	}
	return true
}

// pairSys is the 2-process configuration system for one table pair under
// fixed inputs, encoded as core-explorable int states
// (l0*L + l1)*values + v with L = locals + 2 (the two extra local states
// are the decide-0/decide-1 pseudo-states). It replaces the hand-rolled
// visited-array search this file used to carry, so pair checking goes
// through the same exploration engine — and the same MaxStates/truncation
// discipline — as every other checker in the repository.
type pairSys struct {
	tables         [2]ConsTable
	locals, values int
	a, b           int
}

func (ps *pairSys) idx(l0, l1, v int) int {
	L := ps.locals + 2
	return (l0*L+l1)*ps.values + v
}

func (ps *pairSys) decode(s int) (l0, l1, v int) {
	L := ps.locals + 2
	return s / ps.values / L, (s / ps.values) % L, s % ps.values
}

// Init implements core.System.
func (ps *pairSys) Init() []int { return []int{ps.idx(ps.a, ps.b, 0)} }

// ExpandInto implements core.System: each undecided process may take its
// one atomic access next.
func (ps *pairSys) ExpandInto(s int, x *engine.Ctx[int]) {
	l0, l1, v := ps.decode(s)
	ls := [2]int{l0, l1}
	for p := 0; p < 2; p++ {
		if ls[p] >= ps.locals { // decided: takes no further steps
			continue
		}
		c := ps.tables[p][ls[p]][v]
		nl := ls
		nl[p] = c.Next
		x.Emit(ps.idx(nl[0], nl[1], c.NewVal), "access", p)
	}
}

// checkPair verifies wait-free consensus for one table pair over all four
// input combinations: every reachable configuration must let each
// undecided process finish solo (wait-freedom), decided values must agree,
// and validity must hold. A non-nil error means the exploration itself
// failed (state bound exceeded), not that the pair is a non-protocol.
func checkPair(t0, t1 ConsTable, locals, values, maxStates int) (bool, error) {
	for a := 0; a <= 1; a++ {
		for b := 0; b <= 1; b++ {
			ok, err := checkInputs(t0, t1, locals, values, a, b, maxStates)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		}
	}
	return true, nil
}

func checkInputs(t0, t1 ConsTable, locals, values, a, b, maxStates int) (bool, error) {
	sys := &pairSys{tables: [2]ConsTable{t0, t1}, locals: locals, values: values, a: a, b: b}
	// The per-pair graphs are tiny (at most (locals+2)^2 * values states);
	// parallelism lives in the outer pair enumeration, so each exploration
	// runs on one worker.
	g, err := core.Explore[int](sys, core.ExploreOptions{MaxStates: maxStates, Parallelism: 1})
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
		// Agreement and validity.
		if ok0 && ok1 && d0 != d1 {
			return false, nil
		}
		for _, dv := range []struct {
			d  int
			ok bool
		}{{d0, ok0}, {d1, ok1}} {
			if !dv.ok {
				continue
			}
			if dv.d != a && dv.d != b {
				return false, nil
			}
		}
		// Wait-freedom: each undecided process must decide running solo.
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

// SearchConsensus exhaustively enumerates 2-process protocols over a
// single shared object and reports whether any achieves wait-free binary
// consensus. With Kind == RWRegister the expected outcome is no witness
// (consensus number 1); with Kind == RMWObject and Values >= 3 the search
// finds the classic test-and-set consensus protocol (consensus number at
// least 2).
func SearchConsensus(cfg ConsSearchConfig) (ConsResult, error) {
	if cfg.Values < 2 || cfg.LocalStates < 2 {
		return ConsResult{}, fmt.Errorf("registers: need Values >= 2 and LocalStates >= 2, got %d/%d", cfg.Values, cfg.LocalStates)
	}
	opts := stateOptions(cfg.Kind, cfg.Values, cfg.LocalStates)
	perProc := uint64(1)
	for i := 0; i < cfg.LocalStates; i++ {
		perProc *= uint64(len(opts))
	}
	res := ConsResult{TablesEnumerated: perProc}
	var tables []ConsTable
	for id := uint64(0); id < perProc; id++ {
		rem := id
		t := make(ConsTable, cfg.LocalStates)
		for s := 0; s < cfg.LocalStates; s++ {
			t[s] = opts[rem%uint64(len(opts))]
			rem /= uint64(len(opts))
		}
		if soloValid(t, cfg.LocalStates, cfg.Values) {
			tables = append(tables, t)
		}
	}
	res.TablesViable = uint64(len(tables))

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var pairs atomic.Uint64
	var mu sync.Mutex // guards res.Witness and firstErr
	var firstErr error
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(tables); i += workers {
				if stop.Load() {
					return
				}
				jEnd := len(tables)
				if cfg.Symmetric {
					jEnd = i + 1
				}
				for j := i; j < jEnd; j++ {
					pairs.Add(1)
					ok, err := checkPair(tables[i], tables[j], cfg.LocalStates, cfg.Values, cfg.MaxStates)
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						stop.Store(true)
						return
					}
					if !ok {
						continue
					}
					mu.Lock()
					if res.Witness == nil {
						res.Witness = &[2]ConsTable{tables[i], tables[j]}
					}
					mu.Unlock()
					if cfg.StopAtFirst {
						stop.Store(true)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	res.PairsChecked = pairs.Load()
	if firstErr != nil {
		return res, firstErr
	}
	return res, nil
}

// CanonicalTASConsensus returns the classic 2-process consensus protocol
// over one 3-valued RMW object (values: 0 = unclaimed, 1 = claimed-with-0,
// 2 = claimed-with-1): the first access claims the object with the
// process's input and decides it; a later access finds the claim and
// decides the claimant's value.
func CanonicalTASConsensus(locals int) ConsTable {
	// Only states 0 and 1 (the inputs) are used; extra states self-loop
	// into deciding 0 to keep the table total.
	t := make(ConsTable, locals)
	decide := func(d int) int { return locals + d }
	for s := range t {
		row := make([]ConsCell, 3)
		input := s
		if s > 1 {
			input = 0
		}
		row[0] = ConsCell{Next: decide(input), NewVal: input + 1} // claim
		row[1] = ConsCell{Next: decide(0), NewVal: 1}             // claimed with 0
		row[2] = ConsCell{Next: decide(1), NewVal: 2}             // claimed with 1
		t[s] = row
	}
	return t
}
