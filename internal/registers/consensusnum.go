package registers

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/synth"
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
	// StopAtFirst ends the search once the first witness in enumeration
	// order is known, without checking the pairs after it.
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
	// PairsChecked counts protocol pairs model-checked. Under StopAtFirst
	// it depends on scheduling: workers may check pairs past the witness
	// before they learn of it.
	PairsChecked uint64
	// Witness is the working protocol pair with the smallest enumeration
	// index, if any, whatever the worker count.
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
	return soloDecision(t, 0, 0, locals, values) == 0 && soloDecision(t, 1, 0, locals, values) == 1
}

// soloDecision is the value a process running t alone from local state l
// and object value v decides within the solo bound, or -1: the walk over
// (local, value) pairs is deterministic, so one that has not decided by
// then never will.
func soloDecision(t ConsTable, l, v, locals, values int) int {
	for step := 0; step < locals*values+2; step++ {
		c := t[l][v]
		if c.Next >= locals {
			return c.Next - locals
		}
		l, v = c.Next, c.NewVal
	}
	return -1
}

// consChecker is one worker's dense checker for consensus table pairs.
// A configuration is the dense index (l0*L + l1)*values + v with
// L = locals + 2 (the two extra local states are the decide-0/decide-1
// pseudo-states). Reachability is a reused bitset walk and successors
// come from the two tables on demand, so a warmed checker allocates
// nothing per pair.
type consChecker struct {
	locals, values int
	// maxStates bounds each walk (core.DefaultMaxStates when zero).
	maxStates int
	walk      synth.Walk
	// pairs counts the pairs this checker has seen.
	pairs uint64
}

func newConsChecker(locals, values, maxStates int) *consChecker {
	if maxStates <= 0 {
		maxStates = core.DefaultMaxStates
	}
	return &consChecker{locals: locals, values: values, maxStates: maxStates}
}

// checkPair verifies wait-free consensus for one table pair over all four
// input combinations: every reachable configuration must let each
// undecided process finish solo (wait-freedom), decided values must agree,
// and validity must hold. A non-nil error means a walk reached more than
// maxStates configurations, not that the pair is a non-protocol.
func (cc *consChecker) checkPair(t0, t1 ConsTable) (bool, error) {
	cc.pairs++
	for a := 0; a <= 1; a++ {
		for b := 0; b <= 1; b++ {
			if ok, err := cc.checkInputs(t0, t1, a, b); !ok || err != nil {
				return false, err
			}
		}
	}
	return true, nil
}

// checkInputs walks the configurations reachable from inputs (a, b) and
// checks each one as it is reached, stopping at the first violation.
func (cc *consChecker) checkInputs(t0, t1 ConsTable, a, b int) (bool, error) {
	locals, values := cc.locals, cc.values
	L := locals + 2
	tables := [2]ConsTable{t0, t1}
	w := &cc.walk
	w.Reset(L * L * values)
	w.Add((a*L + b) * values)
	for s, ok := w.Next(); ok; s, ok = w.Next() {
		v := s % values
		ls := [2]int{s / values / L, (s / values) % L}
		// Agreement and validity.
		if ls[0] >= locals && ls[1] >= locals && ls[0] != ls[1] {
			return false, nil
		}
		for p := 0; p < 2; p++ {
			if l := ls[p]; l >= locals && l-locals != a && l-locals != b {
				return false, nil
			}
		}
		for p := 0; p < 2; p++ {
			if ls[p] >= locals { // decided: takes no further steps
				continue
			}
			// Wait-freedom: an undecided process must decide running solo.
			if soloDecision(tables[p], ls[p], v, locals, values) < 0 {
				return false, nil
			}
			c := tables[p][ls[p]][v]
			nl := ls
			nl[p] = c.Next
			if w.Add((nl[0]*L+nl[1])*values+c.NewVal) && w.Reached() > cc.maxStates {
				return false, fmt.Errorf("%w: limit %d", core.ErrStateLimit, cc.maxStates)
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
	// Candidates are assembled in one reused buffer and only the ids of
	// the viable ones are kept; their tables share one backing array.
	var viable []uint64
	t := make(ConsTable, cfg.LocalStates)
	for id := uint64(0); id < perProc; id++ {
		fillTable(t, opts, id)
		if soloValid(t, cfg.LocalStates, cfg.Values) {
			viable = append(viable, id)
		}
	}
	res.TablesViable = uint64(len(viable))
	tables := make([]ConsTable, len(viable))
	rows := make([][]ConsCell, len(viable)*cfg.LocalStates)
	for k, id := range viable {
		tables[k] = rows[k*cfg.LocalStates : (k+1)*cfg.LocalStates : (k+1)*cfg.LocalStates]
		fillTable(tables[k], opts, id)
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	checkers := make([]*consChecker, workers)
	for w := range checkers {
		checkers[w] = newConsChecker(cfg.LocalStates, cfg.Values, cfg.MaxStates)
	}
	cols := func(i int) (int, int) {
		if cfg.Symmetric {
			return i, i + 1
		}
		return i, len(tables)
	}
	check := func(cc *consChecker, i, j int) (bool, error) { return cc.checkPair(tables[i], tables[j]) }
	i, j, found, err := synth.SearchPairs(checkers, len(tables), cols, cfg.StopAtFirst, check)
	for _, cc := range checkers {
		res.PairsChecked += cc.pairs
	}
	if err != nil {
		return res, err
	}
	if found {
		res.Witness = &[2]ConsTable{tables[i], tables[j]}
	}
	return res, nil
}

// fillTable writes table number id of the enumeration into t: digit s of
// id in base len(opts) picks local state s's row.
func fillTable(t ConsTable, opts [][]ConsCell, id uint64) {
	for s := range t {
		t[s] = opts[id%uint64(len(opts))]
		id /= uint64(len(opts))
	}
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
