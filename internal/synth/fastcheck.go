package synth

import "repro/internal/sharedmem"

// This file implements a dedicated high-throughput checker for the
// 2-process single-variable skeleton: the exhaustive searches evaluate
// millions of tables, so instead of the generic core explorer they use a
// dense integer state encoding (local0, local1, value), successors read
// off the two tables, and per-worker scratch reused from pair to pair.
// The semantics are identical to sharedmem's adapter: request steps from
// the remainder state belong to the environment and are exempt from
// fairness; all other steps are process steps under weak fairness.

// soloLive checks a necessary condition cheaply before any pairing: a
// process running entirely alone (its rival never requests) must still
// enter the critical region infinitely often. The deterministic solo walk
// over (local, value) pairs must cycle through the critical state.
func (sk tasSkeleton) soloLive(table [][]sharedmem.Cell) bool {
	// The solo walk over (local, value) pairs is deterministic on at most
	// numLocals*values states, so it reaches its cycle within that many
	// steps; walking twice that bound guarantees a full lap of the cycle.
	// The protocol is solo-live iff the cyclic part visits critical.
	n := sk.numLocals() * sk.values
	l, v := 0, 0
	for step := 0; step < n; step++ { // burn in: reach the cycle
		c := table[l][v]
		l, v = c.NextLocal, c.NewVal
	}
	crit := sk.critical()
	startL, startV := l, v
	for step := 0; step < n; step++ { // one full lap
		if l == crit {
			return true
		}
		c := table[l][v]
		l, v = c.NextLocal, c.NewVal
		if l == startL && v == startV {
			break
		}
	}
	return l == crit
}

// pairChecker is one worker's dense checker for 2-process table pairs.
// A state is the dense index (l0*L + l1)*V + v. Successors are computed
// from the two tables on demand, reachability is a reused bitset walk, and
// the arrays of the fairness pass are sized once per search, so a warmed
// checker allocates nothing per pair.
type pairChecker struct {
	sk tasSkeleton
	// L is the per-process local state count, V the value count, n the
	// dense state space size L*L*V.
	L, V, n int
	// dec[s] is state s as (l0, l1, v), saving the divisions per decode.
	dec [][3]uint16
	// t holds the tables of the pair being checked.
	t [2][][]sharedmem.Cell
	// walk is the reachability walk; after an exclusion-passing explore
	// its bitset is the reachable set.
	walk Walk
	// Scratch of leadsTo and hasFairCycle, indexed by dense state.
	inH, onStack     []bool
	index, low, comp []int32
	sstack, frames   []int32
	cursors          []int8
	members          []int32
	// perm receives process 1's table in the symmetric searches.
	perm [][]sharedmem.Cell
	// Verdict counters over the pairs this checker has seen.
	pairs, passedME, passedProg, passed uint64
}

func (sk tasSkeleton) newPairChecker() *pairChecker {
	L, V := sk.numLocals(), sk.values
	n := L * L * V
	pc := &pairChecker{
		sk: sk, L: L, V: V, n: n,
		inH: make([]bool, n), onStack: make([]bool, n),
		index: make([]int32, n), low: make([]int32, n), comp: make([]int32, n),
		perm: make([][]sharedmem.Cell, L),
	}
	for l := range pc.perm {
		pc.perm[l] = make([]sharedmem.Cell, V)
	}
	pc.dec = make([][3]uint16, n)
	for s := range pc.dec {
		pc.dec[s] = [3]uint16{uint16(s / V / L), uint16(s / V % L), uint16(s % V)}
	}
	pc.walk.Reset(n)
	return pc
}

func (pc *pairChecker) decode(s int) (l0, l1, v int) {
	d := pc.dec[s]
	return int(d[0]), int(d[1]), int(d[2])
}

func (pc *pairChecker) encode(l0, l1, v int) int { return (l0*pc.L+l1)*pc.V + v }

// succ is the state process p's step leads to from state s.
func (pc *pairChecker) succ(s, p int) int {
	l0, l1, v := pc.decode(s)
	if p == 0 {
		c := pc.t[0][l0][v]
		return pc.encode(c.NextLocal, l1, c.NewVal)
	}
	c := pc.t[1][l1][v]
	return pc.encode(l0, c.NextLocal, c.NewVal)
}

// isEnv reports whether p's step from s is an environment (request) step:
// p is in its remainder state.
func (pc *pairChecker) isEnv(s, p int) bool {
	l0, l1, _ := pc.decode(s)
	if p == 1 {
		l0 = l1
	}
	return l0 == pc.sk.remainder()
}

// explore walks the states reachable from the initial state (both
// processes in remainder, value 0) and reports whether mutual exclusion
// holds on all of them. It stops at the first state where it fails.
func (pc *pairChecker) explore() (mutualExclusion bool) {
	w := &pc.walk
	w.Reset(pc.n)
	w.Add(0)
	crit := pc.sk.critical()
	for s, ok := w.Next(); ok; s, ok = w.Next() {
		l0, l1, v := pc.decode(s)
		if l0 == crit && l1 == crit {
			return false
		}
		c := pc.t[0][l0][v]
		w.Add(pc.encode(c.NextLocal, l1, c.NewVal))
		c = pc.t[1][l1][v]
		w.Add(pc.encode(l0, c.NextLocal, c.NewVal))
	}
	return true
}

// leadsTo checks "premise leads to goal" under weak fairness on the
// reachable states; premise and goal are predicates on the two local
// states. Transition functions are total, so only livelocks (fair cycles
// in the goal-avoiding region) can violate the property.
func (pc *pairChecker) leadsTo(premise, goal func(l0, l1 int) bool) bool {
	inGoal := func(s int) bool {
		l0, l1, _ := pc.decode(s)
		return goal(l0, l1)
	}
	clear(pc.inH)
	stack := pc.sstack[:0]
	for s := 0; s < pc.n; s++ {
		l0, l1, _ := pc.decode(s)
		if pc.walk.Has(s) && premise(l0, l1) && !goal(l0, l1) {
			pc.inH[s] = true
			stack = append(stack, int32(s))
		}
	}
	for len(stack) > 0 {
		s := int(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		for p := 0; p < 2; p++ {
			t := pc.succ(s, p)
			if !pc.inH[t] && !inGoal(t) {
				pc.inH[t] = true
				stack = append(stack, int32(t))
			}
		}
	}
	pc.sstack = stack
	return !pc.hasFairCycle()
}

// hasFairCycle reports whether the subgraph inH contains a cycle that is
// weakly fair: for each process p, either p takes a step inside the cycle
// or p is in its remainder region somewhere on the cycle (where its
// process step does not exist — only the environment's request does).
func (pc *pairChecker) hasFairCycle() bool {
	const unvisited = -1
	inH, index, low, onStack, comp := pc.inH, pc.index, pc.low, pc.onStack, pc.comp
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	clear(onStack)
	var counter, nComp int32
	sstack, frames, cursors := pc.sstack[:0], pc.frames[:0], pc.cursors[:0]
	defer func() { pc.sstack, pc.frames, pc.cursors = sstack, frames, cursors }()
	for root := 0; root < pc.n; root++ {
		if !inH[root] || index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], int32(root))
		cursors = append(cursors[:0], 0)
		index[root] = counter
		low[root] = counter
		counter++
		sstack = append(sstack, int32(root))
		onStack[root] = true
		for len(frames) > 0 {
			v := frames[len(frames)-1]
			ci := cursors[len(cursors)-1]
			advanced := false
			for ; ci < 2; ci++ {
				w := int32(pc.succ(int(v), int(ci)))
				if !inH[w] {
					continue
				}
				if index[w] == unvisited {
					cursors[len(cursors)-1] = ci + 1
					index[w] = counter
					low[w] = counter
					counter++
					sstack = append(sstack, w)
					onStack[w] = true
					frames = append(frames, w)
					cursors = append(cursors, 0)
					advanced = true
					break
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			frames = frames[:len(frames)-1]
			cursors = cursors[:len(cursors)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1]
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				// Pop one SCC and test fairness inline.
				members := pc.members[:0]
				for {
					w := sstack[len(sstack)-1]
					sstack = sstack[:len(sstack)-1]
					onStack[w] = false
					comp[w] = nComp
					members = append(members, w)
					if w == v {
						break
					}
				}
				pc.members = members
				nComp++
				if pc.sccFair(members) {
					return true
				}
			}
		}
	}
	return false
}

// sccFair tests one SCC for an internal edge and weak fairness of both
// processes.
func (pc *pairChecker) sccFair(members []int32) bool {
	cid := pc.comp[members[0]]
	hasEdge := false
	var stepTaken [2]bool
	var disabled [2]bool
	for _, s := range members {
		for p := 0; p < 2; p++ {
			t := pc.succ(int(s), p)
			env := pc.isEnv(int(s), p)
			if pc.inH[t] && pc.comp[t] == cid {
				hasEdge = true
				if !env {
					stepTaken[p] = true
				}
			}
			if env {
				// Process p has no process-step here (it is in remainder):
				// weak fairness for p is dischargeable at this state.
				disabled[p] = true
			}
		}
	}
	if !hasEdge {
		return false
	}
	for p := 0; p < 2; p++ {
		if !stepTaken[p] && !disabled[p] {
			return false
		}
	}
	return true
}

// pairVerdict is the outcome of checkPair.
type pairVerdict struct {
	exclusion   bool
	progress    bool
	lockoutFree bool
	// ok reports that the pair meets the whole specification checked.
	ok bool
}

// checkPair runs the full fair-mutex specification on one table pair and
// adds the outcome to the checker's counters. Later checks are skipped
// once an earlier one fails; progress and lockout-freedom run only on
// pairs that pass exclusion.
func (pc *pairChecker) checkPair(t0, t1 [][]sharedmem.Cell, needLockout bool) pairVerdict {
	pc.t = [2][][]sharedmem.Cell{t0, t1}
	pc.pairs++
	var v pairVerdict
	if v.exclusion = pc.explore(); !v.exclusion {
		return v
	}
	pc.passedME++
	try, crit := pc.sk.try, pc.sk.critical()
	trying := func(l int) bool { return l >= 1 && l <= try }
	v.progress = pc.leadsTo(
		func(l0, l1 int) bool { return (trying(l0) || trying(l1)) && l0 != crit && l1 != crit },
		func(l0, l1 int) bool { return l0 == crit || l1 == crit },
	)
	if !v.progress {
		return v
	}
	pc.passedProg++
	if needLockout {
		v.lockoutFree = pc.leadsTo(
			func(l0, _ int) bool { return trying(l0) },
			func(l0, _ int) bool { return l0 == crit },
		) && pc.leadsTo(
			func(_, l1 int) bool { return trying(l1) },
			func(_, l1 int) bool { return l1 == crit },
		)
		if !v.lockoutFree {
			return v
		}
	}
	pc.passed++
	v.ok = true
	return v
}
