package synth

import (
	"fmt"

	"repro/internal/sharedmem"
)

// RWSearchConfig parameterizes SearchRWMutex: the mechanized Burns–Lynch
// result (§2.1) that two processes cannot achieve mutual exclusion with
// progress through a single shared read/write register, regardless of how
// many values it holds. Every access in the enumerated class is either a
// pure read (the register is unchanged; the branch may depend on the
// value) or a blind write (the stored value and successor state are
// independent of the old value) — "a writing process obliterates any
// information previously in the variable".
type RWSearchConfig struct {
	// Values is the register's domain size.
	Values int
	// TryStates bounds the trying-region local states per process.
	TryStates int
	// Symmetric restricts to value-involution-symmetric protocol pairs.
	Symmetric bool
	// RequireLockoutFree adds lockout-freedom to the specification.
	// Burns–Lynch holds already for plain progress, so the default false
	// is the stronger search.
	RequireLockoutFree bool
	// MaxCandidates aborts with ErrSpaceTooLarge if the estimated pair
	// count is bigger. Zero means DefaultMaxCandidates.
	MaxCandidates uint64
	// Workers is the parallelism degree; zero means GOMAXPROCS.
	Workers int
}

// rwStateOptions enumerates the legal behaviors of one trying state under
// the read/write discipline: all pure reads (a next-state per observed
// value), then all blind writes (one next state and one stored value).
func rwStateOptions(values, try int) [][]sharedmem.Cell {
	targets := try + 1 // trying states 1..try plus critical (try+1)
	total := 1
	for i := 0; i < values; i++ {
		total *= targets
	}
	out := make([][]sharedmem.Cell, 0, total+targets*values)
	// Pure reads: next[val] ranges over all target assignments.
	for idx := 0; idx < total; idx++ {
		row := make([]sharedmem.Cell, values)
		rem := idx
		for v := 0; v < values; v++ {
			row[v] = sharedmem.Cell{NextLocal: 1 + rem%targets, NewVal: v}
			rem /= targets
		}
		out = append(out, row)
	}
	// Blind writes: (next, stored) constant across observed values.
	for next := 1; next <= targets; next++ {
		for nv := 0; nv < values; nv++ {
			row := make([]sharedmem.Cell, values)
			for v := 0; v < values; v++ {
				row[v] = sharedmem.Cell{NextLocal: next, NewVal: nv}
			}
			out = append(out, row)
		}
	}
	return out
}

// rwTable builds table number idx of the read/write class: each
// base-len(stateOpts) digit of idx picks one trying state's row, and what
// is left picks the exit value.
func (sk tasSkeleton) rwTable(stateOpts [][]sharedmem.Cell, idx uint64) [][]sharedmem.Cell {
	cells := make([]sharedmem.Cell, 0, sk.try*sk.values)
	for s := 0; s < sk.try; s++ {
		cells = append(cells, stateOpts[idx%uint64(len(stateOpts))]...)
		idx /= uint64(len(stateOpts))
	}
	return sk.buildTable(cells, int(idx%uint64(sk.values)))
}

// SearchRWMutex exhaustively enumerates 2-process protocols over a single
// shared read/write register and checks mutual exclusion + progress
// (+ lockout-freedom if required). An empty result mechanizes Burns–Lynch
// for the bounded class; compare SearchTASMutex, where test-and-set power
// makes the same skeleton succeed.
func SearchRWMutex(cfg RWSearchConfig) (Result, error) {
	if cfg.Values < 2 || cfg.TryStates < 1 {
		return Result{}, fmt.Errorf("synth: invalid config: need Values >= 2 and TryStates >= 1, got %d/%d", cfg.Values, cfg.TryStates)
	}
	sk := tasSkeleton{values: cfg.Values, try: cfg.TryStates}
	stateOpts := rwStateOptions(cfg.Values, cfg.TryStates)
	perProc := spaceSize(uint64(len(stateOpts)), cfg.TryStates, uint64(cfg.Values))
	if err := checkBudget(perProc, cfg.Symmetric, cfg.Values, cfg.MaxCandidates); err != nil {
		return Result{}, err
	}

	res := Result{TablesEnumerated: perProc}
	tables := sk.viableTables(perProc, func(idx uint64) [][]sharedmem.Cell { return sk.rwTable(stateOpts, idx) }, &res)
	runPairSearch(sk, tables, cfg.Symmetric, cfg.RequireLockoutFree, cfg.Workers, sharedmem.RW,
		fmt.Sprintf("synth-rw(v=%d,t=%d)", cfg.Values, cfg.TryStates), &res)
	return res, nil
}
