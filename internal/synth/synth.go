// Package synth proves small impossibility results by exhaustion: it
// enumerates every protocol in a bounded class (all transition tables over
// a fixed skeleton) and model-checks each against a problem statement.
//
// The paper (§2.1) tells the story of Cremers and Hibbard proving that two
// processes cannot achieve fair mutual exclusion through a single 2-valued
// test-and-set variable, and of Burns and Lynch proving that mutual
// exclusion is impossible with a single read/write register no matter how
// many values it holds. Those pen-and-paper proofs quantify over *all*
// algorithms; this package mechanizes the quantification for bounded local
// state counts: if the search over every table returns no witness, the
// impossibility holds for the enumerated class, and when a witness exists
// the search returns it — reproducing the paper's observation (§3.4) that
// failed impossibility proofs yield "counterexample algorithms".
package synth

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/sharedmem"
	"repro/internal/spec"
)

// ErrSpaceTooLarge is returned when the requested search space exceeds the
// configured candidate budget.
var ErrSpaceTooLarge = errors.New("synth: search space exceeds candidate budget")

// Result summarizes one exhaustive search.
type Result struct {
	// TablesEnumerated is the number of per-process transition tables
	// generated before pruning.
	TablesEnumerated uint64
	// TablesPruned counts tables discarded by the static prunes
	// (critical-state unreachable, or failing solo liveness).
	TablesPruned uint64
	// PairsChecked is the number of two-process protocols model-checked.
	PairsChecked uint64
	// PassedExclusion counts pairs satisfying mutual exclusion.
	PassedExclusion uint64
	// PassedProgress counts pairs additionally satisfying progress.
	PassedProgress uint64
	// Passed counts pairs satisfying the full specification.
	Passed uint64
	// Example is a protocol meeting the full specification, if any.
	Example *sharedmem.TableAlgorithm
}

// Found reports whether the search produced a witness protocol.
func (r Result) Found() bool { return r.Example != nil }

// TASSearchConfig parameterizes SearchTASMutex.
type TASSearchConfig struct {
	// Values is the domain size of the single shared RMW variable.
	Values int
	// TryStates is the number of distinct trying-region local states each
	// process may use (the skeleton bound for the exhaustion).
	TryStates int
	// Symmetric restricts the search to protocols where process 1 runs
	// process 0's table under a value involution — a standard symmetry
	// reduction. When false, both tables are enumerated independently.
	Symmetric bool
	// RequireLockoutFree adds lockout-freedom to the specification
	// (otherwise only mutual exclusion + progress are required).
	RequireLockoutFree bool
	// MaxCandidates aborts with ErrSpaceTooLarge if the estimated pair
	// count is bigger. Zero means DefaultMaxCandidates.
	MaxCandidates uint64
	// Workers is the parallelism degree; zero means GOMAXPROCS.
	Workers int
}

// DefaultMaxCandidates bounds search spaces unless overridden.
const DefaultMaxCandidates = 50_000_000

// tasSkeleton describes the fixed protocol skeleton: local states are
// 0 = remainder, 1..T = trying, T+1 = critical, T+2 = exit. The remainder
// step is a pure read entering trying state 1; the critical step is a pure
// read entering exit; exit writes a searched constant and returns to
// remainder. All searched freedom lives in the trying states and the exit
// write.
type tasSkeleton struct {
	values int
	try    int
}

func (sk tasSkeleton) remainder() int { return 0 }
func (sk tasSkeleton) critical() int  { return sk.try + 1 }
func (sk tasSkeleton) exit() int      { return sk.try + 2 }
func (sk tasSkeleton) numLocals() int { return sk.try + 3 }

// cellOptions enumerates the choices for one (tryState, value) cell:
// next local state in {trying states} ∪ {critical}, paired with any new
// value.
func (sk tasSkeleton) cellOptions() []sharedmem.Cell {
	opts := make([]sharedmem.Cell, 0, (sk.try+1)*sk.values)
	for next := 1; next <= sk.try+1; next++ {
		for nv := 0; nv < sk.values; nv++ {
			opts = append(opts, sharedmem.Cell{NextLocal: next, NewVal: nv})
		}
	}
	return opts
}

// buildTable materializes a full per-process transition table from the
// searched trying-cell assignment and exit constant.
func (sk tasSkeleton) buildTable(tryCells []sharedmem.Cell, exitVal int) [][]sharedmem.Cell {
	table := make([][]sharedmem.Cell, sk.numLocals())
	// Remainder: pure read into first trying state.
	row := make([]sharedmem.Cell, sk.values)
	for v := 0; v < sk.values; v++ {
		row[v] = sharedmem.Cell{NextLocal: 1, NewVal: v}
	}
	table[sk.remainder()] = row
	// Trying states.
	idx := 0
	for t := 1; t <= sk.try; t++ {
		row := make([]sharedmem.Cell, sk.values)
		for v := 0; v < sk.values; v++ {
			row[v] = tryCells[idx]
			idx++
		}
		table[t] = row
	}
	// Critical: pure read into exit.
	row = make([]sharedmem.Cell, sk.values)
	for v := 0; v < sk.values; v++ {
		row[v] = sharedmem.Cell{NextLocal: sk.exit(), NewVal: v}
	}
	table[sk.critical()] = row
	// Exit: blind write of exitVal, back to remainder.
	row = make([]sharedmem.Cell, sk.values)
	for v := 0; v < sk.values; v++ {
		row[v] = sharedmem.Cell{NextLocal: sk.remainder(), NewVal: exitVal}
	}
	table[sk.exit()] = row
	return table
}

// regions returns the region classification for the skeleton.
func (sk tasSkeleton) regions() []spec.Region {
	out := make([]spec.Region, sk.numLocals())
	out[sk.remainder()] = spec.Remainder
	for t := 1; t <= sk.try; t++ {
		out[t] = spec.Trying
	}
	out[sk.critical()] = spec.Critical
	out[sk.exit()] = spec.Exit
	return out
}

// toAlgorithm wraps a table pair as a checkable sharedmem.TableAlgorithm.
func (sk tasSkeleton) toAlgorithm(name string, kind sharedmem.VarKind, t0, t1 [][]sharedmem.Cell) *sharedmem.TableAlgorithm {
	return &sharedmem.TableAlgorithm{
		AlgName:  name,
		Procs:    2,
		VarSpecs: []sharedmem.VarSpec{{Kind: kind, Init: 0, Values: sk.values}},
		Initial:  []int{0, 0},
		Regions:  [][]spec.Region{sk.regions(), sk.regions()},
		Accesses: [][]int{zeros(sk.numLocals()), zeros(sk.numLocals())},
		Table:    [][][]sharedmem.Cell{t0, t1},
	}
}

// permuteTable renames the values of a table by involution pi: the derived
// process "behaves like process 0 with values relabeled".
func permuteTable(table [][]sharedmem.Cell, pi []int) [][]sharedmem.Cell {
	out := make([][]sharedmem.Cell, len(table))
	for l, row := range table {
		out[l] = make([]sharedmem.Cell, len(row))
	}
	return permuteInto(out, table, pi)
}

// permuteInto writes permuteTable(table, pi) into dst, which has table's
// shape, and returns dst.
func permuteInto(dst, table [][]sharedmem.Cell, pi []int) [][]sharedmem.Cell {
	for l, row := range table {
		for v := range row {
			c := row[pi[v]]
			dst[l][v] = sharedmem.Cell{NextLocal: c.NextLocal, NewVal: pi[c.NewVal]}
		}
	}
	return dst
}

// involutions returns all involutions (self-inverse permutations) of
// {0..n-1}, identity included.
func involutions(n int) [][]int {
	var out [][]int
	perm := make([]int, n)
	for i := range perm {
		perm[i] = -1
	}
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			cp := make([]int, n)
			copy(cp, perm)
			out = append(out, cp)
			return
		}
		if perm[i] != -1 {
			rec(i + 1)
			return
		}
		perm[i] = i
		rec(i + 1)
		perm[i] = -1
		for j := i + 1; j < n; j++ {
			if perm[j] == -1 {
				perm[i], perm[j] = j, i
				rec(i + 1)
				perm[i], perm[j] = -1, -1
			}
		}
	}
	rec(0)
	return out
}

// criticalReachable statically prunes tables from which no chain of cells
// reaches the critical state (such protocols trivially fail progress).
func (sk tasSkeleton) criticalReachable(table [][]sharedmem.Cell) bool {
	seen := make([]bool, sk.numLocals())
	stack := []int{1}
	seen[1] = true
	for len(stack) > 0 {
		l := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if l == sk.critical() {
			return true
		}
		for _, c := range table[l] {
			if !seen[c.NextLocal] {
				seen[c.NextLocal] = true
				stack = append(stack, c.NextLocal)
			}
		}
	}
	return false
}

// SearchTASMutex exhaustively enumerates 2-process protocols over a single
// shared test-and-set variable and checks them against the fair mutual
// exclusion specification. With Values=2 and RequireLockoutFree=true the
// search is the mechanized Cremers–Hibbard impossibility (no witness in
// the bounded class); rerunning with Values=3 searches for their
// "carefully-crafted" positive algorithm.
func SearchTASMutex(cfg TASSearchConfig) (Result, error) {
	if cfg.Values < 2 || cfg.TryStates < 1 {
		return Result{}, fmt.Errorf("synth: invalid config: need Values >= 2 and TryStates >= 1, got %d/%d", cfg.Values, cfg.TryStates)
	}
	sk := tasSkeleton{values: cfg.Values, try: cfg.TryStates}
	opts := sk.cellOptions()
	perProc := spaceSize(uint64(len(opts)), sk.try*sk.values, uint64(cfg.Values))
	if err := checkBudget(perProc, cfg.Symmetric, cfg.Values, cfg.MaxCandidates); err != nil {
		return Result{}, err
	}

	res := Result{TablesEnumerated: perProc}
	tables := sk.viableTables(perProc, func(idx uint64) [][]sharedmem.Cell { return sk.tasTable(opts, idx) }, &res)
	runPairSearch(sk, tables, cfg.Symmetric, cfg.RequireLockoutFree, cfg.Workers, sharedmem.RMW,
		fmt.Sprintf("synth-tas(v=%d,t=%d)", cfg.Values, cfg.TryStates), &res)
	return res, nil
}

// tasTable builds table number idx of the TAS class: each base-len(opts)
// digit of idx picks one trying cell, and what is left picks the exit
// value.
func (sk tasSkeleton) tasTable(opts []sharedmem.Cell, idx uint64) [][]sharedmem.Cell {
	cells := make([]sharedmem.Cell, sk.try*sk.values)
	for c := range cells {
		cells[c] = opts[idx%uint64(len(opts))]
		idx /= uint64(len(opts))
	}
	return sk.buildTable(cells, int(idx%uint64(sk.values)))
}

// viableTables builds tables 0..perProc-1 and keeps those that pass the
// static prunes, counting the others in res.TablesPruned.
func (sk tasSkeleton) viableTables(perProc uint64, table func(idx uint64) [][]sharedmem.Cell, res *Result) [][][]sharedmem.Cell {
	tables := make([][][]sharedmem.Cell, 0, 1024)
	for idx := uint64(0); idx < perProc; idx++ {
		t := table(idx)
		if !sk.criticalReachable(t) || !sk.soloLive(t) {
			res.TablesPruned++
			continue
		}
		tables = append(tables, t)
	}
	return tables
}

// spaceSize computes base^cells * extra with overflow saturation.
func spaceSize(base uint64, cells int, extra uint64) uint64 {
	out := uint64(1)
	for i := 0; i < cells; i++ {
		out, _ = mulCheck(out, base)
	}
	out, _ = mulCheck(out, extra)
	return out
}

// checkBudget validates the estimated pair count against the budget.
func checkBudget(perProc uint64, symmetric bool, values int, budget uint64) error {
	if budget == 0 {
		budget = DefaultMaxCandidates
	}
	var total uint64
	if symmetric {
		total, _ = mulCheck(perProc, uint64(len(involutions(values))))
	} else {
		half, _ := mulCheck(perProc, perProc+1)
		total = half / 2
	}
	if total > budget {
		return fmt.Errorf("%w: ~%d candidate pairs > budget %d", ErrSpaceTooLarge, total, budget)
	}
	return nil
}

// runPairSearch drives the pair-checking phase shared by the TAS and RW
// searches on SearchPairs, one pairChecker per worker. The specification
// is symmetric under process renaming, so the asymmetric search only
// examines ordered pairs i <= j; the symmetric search pairs table i with
// its image under involution j. The counters are order-independent sums
// and the witness is SearchPairs's smallest (i, j), so the result is
// deterministic at any worker count.
func runPairSearch(sk tasSkeleton, tables [][][]sharedmem.Cell, symmetric, needLockout bool,
	workers int, kind sharedmem.VarKind, exampleName string, res *Result) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var pis [][]int
	if symmetric {
		pis = involutions(sk.values)
	}
	checkers := make([]*pairChecker, workers)
	for w := range checkers {
		checkers[w] = sk.newPairChecker()
	}
	cols := func(i int) (int, int) {
		if symmetric {
			return 0, len(pis)
		}
		return i, len(tables)
	}
	check := func(pc *pairChecker, i, j int) (bool, error) {
		t1 := tables[j]
		if symmetric {
			t1 = permuteInto(pc.perm, tables[i], pis[j])
		}
		return pc.checkPair(tables[i], t1, needLockout).ok, nil
	}
	// check never returns an error, so neither does SearchPairs.
	i, j, found, _ := SearchPairs(checkers, len(tables), cols, false, check)
	for _, pc := range checkers {
		res.PairsChecked += pc.pairs
		res.PassedExclusion += pc.passedME
		res.PassedProgress += pc.passedProg
		res.Passed += pc.passed
	}
	if found {
		t1 := tables[j]
		if symmetric {
			t1 = permuteTable(tables[i], pis[j])
		}
		res.Example = sk.toAlgorithm(exampleName, kind, tables[i], t1)
	}
}

func zeros(n int) []int { return make([]int, n) }

func mulCheck(a, b uint64) (uint64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	c := a * b
	if c/a != b {
		return ^uint64(0), false
	}
	return c, true
}
