package core

import (
	"fmt"
	"math/bits"
	"sort"
)

// Fairness selects the admissibility condition used by liveness analyses.
// The paper stresses (§2.1, §2.2.4, §3.4) that "the proper treatment of
// admissibility" is one of the hardest parts of these proofs: an infinite
// execution only refutes a liveness property if the processes that are
// supposed to keep moving actually do.
type Fairness int

const (
	// WeakFairness admits an infinite execution only if every actor that
	// is continuously enabled takes infinitely many steps. This is the
	// standard admissibility condition for asynchronous systems: non-failed
	// processes keep taking steps.
	WeakFairness Fairness = iota + 1
	// NoFairness admits every infinite execution. This models full
	// resiliency / wait-freedom (§2.3): the only liveness assumption is
	// that *some* process keeps taking steps.
	NoFairness
)

// String implements fmt.Stringer.
func (f Fairness) String() string {
	switch f {
	case WeakFairness:
		return "weak-fairness"
	case NoFairness:
		return "no-fairness"
	default:
		return fmt.Sprintf("Fairness(%d)", int(f))
	}
}

// MaxDecisionValues bounds the number of distinct decision values the
// valence analysis can track (a bitmask word).
const MaxDecisionValues = 64

// ValenceInfo records, for every reachable state, the set of decision
// values attainable from it. A state is univalent if exactly one value is
// attainable and bivalent (more generally multivalent) if several are —
// the central notion of the FLP-style proofs surveyed in §2.2.4.
type ValenceInfo struct {
	masks []uint64
}

// Valence computes attainable-decision sets for every state. decide
// reports whether the state with id i is a decided state and with which
// value (0 ≤ value < MaxDecisionValues). Decidedness is usually a property
// of terminal states, but intermediate decided states are handled too:
// their own value is included along with everything reachable beyond them.
func (g *Graph[S]) Valence(decide func(i int) (int, bool)) (*ValenceInfo, error) {
	n := len(g.states)
	masks := make([]uint64, n)
	// Reverse adjacency for backward propagation, in compressed sparse
	// rows built by counting sort: state t's predecessors are
	// preds[predOff[t]:predOff[t+1]], in ascending id order.
	predOff := make([]uint32, n+1)
	for i := 0; g.expanded(i); i++ {
		for _, e := range g.out(i) {
			predOff[e.To+1]++
		}
	}
	for t := 0; t < n; t++ {
		predOff[t+1] += predOff[t]
	}
	preds := make([]int32, predOff[n])
	next := append([]uint32(nil), predOff[:n]...)
	for i := 0; g.expanded(i); i++ {
		for _, e := range g.out(i) {
			preds[next[e.To]] = int32(i)
			next[e.To]++
		}
	}
	queue := make([]int, 0, n)
	inQueue := make([]bool, n)
	for i := range g.states {
		if v, ok := decide(i); ok {
			if v < 0 || v >= MaxDecisionValues {
				return nil, fmt.Errorf("core: decision value %d out of range [0,%d)", v, MaxDecisionValues)
			}
			masks[i] |= 1 << uint(v)
			queue = append(queue, i)
			inQueue[i] = true
		}
	}
	for head := 0; head < len(queue); head++ {
		i := queue[head]
		inQueue[i] = false
		m := masks[i]
		for _, p := range preds[predOff[i]:predOff[i+1]] {
			if masks[p]|m != masks[p] {
				masks[p] |= m
				if !inQueue[p] {
					queue = append(queue, int(p))
					inQueue[p] = true
				}
			}
		}
	}
	return &ValenceInfo{masks: masks}, nil
}

// Values returns the sorted set of decision values attainable from state i.
func (v *ValenceInfo) Values(i int) []int {
	m := v.masks[i]
	out := make([]int, 0, bits.OnesCount64(m))
	for m != 0 {
		b := bits.TrailingZeros64(m)
		out = append(out, b)
		m &^= 1 << uint(b)
	}
	return out
}

// Count returns the number of distinct attainable decision values.
func (v *ValenceInfo) Count(i int) int { return bits.OnesCount64(v.masks[i]) }

// IsBivalent reports whether at least two decision values are attainable
// from state i.
func (v *ValenceInfo) IsBivalent(i int) bool { return bits.OnesCount64(v.masks[i]) >= 2 }

// IsUnivalent reports whether exactly one decision value is attainable.
func (v *ValenceInfo) IsUnivalent(i int) bool { return bits.OnesCount64(v.masks[i]) == 1 }

// IsNullvalent reports whether no decision is attainable from state i
// (every path from it avoids decided states forever or deadlocks).
func (v *ValenceInfo) IsNullvalent(i int) bool { return v.masks[i] == 0 }

// BivalentInitial returns a bivalent initial state id, if one exists.
// Its existence is the first lemma of the FLP proof (§2.2.4).
func (g *Graph[S]) BivalentInitial(v *ValenceInfo) (int, bool) {
	for _, i := range g.inits {
		if v.IsBivalent(i) {
			return i, true
		}
	}
	return 0, false
}

// Decider looks for a "decider" configuration in Herlihy's sense (§2.3):
// a bivalent state all of whose successors are univalent. If dec is found,
// the step structure around it is exactly the "hook" of the FLP-style
// case analyses.
func (g *Graph[S]) Decider(v *ValenceInfo) (int, bool) {
	for i := 0; g.expanded(i); i++ {
		es := g.out(i)
		if !v.IsBivalent(i) || len(es) == 0 {
			continue
		}
		all := true
		for _, e := range es {
			if !v.IsUnivalent(int(e.To)) {
				all = false
				break
			}
		}
		if all {
			return i, true
		}
	}
	return 0, false
}

// Lasso is an infinite execution in finite-state form: a finite prefix
// from an initial state to an entry state, followed by a cycle repeated
// forever. It is the witness shape for liveness violations and for the
// non-deciding admissible executions of bivalence arguments.
type Lasso struct {
	Prefix Trace
	Cycle  Trace
	// Entry is the state id at the start of the cycle.
	Entry int
}

// LivenessResult reports the outcome of a leads-to check.
type LivenessResult struct {
	// Holds is true when the property was verified.
	Holds bool
	// Kind is "deadlock" or "livelock" when Holds is false.
	Kind string
	// Witness is a finite path to the deadlock state, or the lasso prefix
	// for a livelock.
	Witness Trace
	// Cycle is the violating fair cycle for livelocks.
	Cycle Trace
	// StateID is the deadlock state or the livelock cycle entry state.
	StateID int
}

// CheckLeadsTo verifies "premise leads to goal": from every reachable
// state satisfying premise, every fair execution eventually reaches a
// state satisfying goal. Violations are returned as a deadlock witness or
// a fair-cycle (livelock) lasso. This is the workhorse for progress and
// lockout-freedom conditions (§2.1).
func (g *Graph[S]) CheckLeadsTo(premise, goal func(S) bool, fair Fairness, numActors int) LivenessResult {
	goalSet := make([]bool, len(g.states))
	var premised []int
	for i, s := range g.states {
		goalSet[i] = goal(S(s))
		if premise(S(s)) {
			premised = append(premised, i)
		}
	}
	// H = states reachable from a premise state without entering goal.
	inH := g.ReachableWithin(premised, func(i int) bool { return !goalSet[i] })
	// Deadlock: terminal state inside H (a truncated graph's cut-off
	// states are not terminal).
	for i := range g.states {
		if inH[i] && g.IsTerminal(i) {
			return LivenessResult{Kind: "deadlock", Witness: g.PathTo(i), StateID: i}
		}
	}
	// Livelock: fair cycle inside H.
	if lasso, ok := g.fairCycleWithin(inH, fair, numActors); ok {
		return LivenessResult{Kind: "livelock", Witness: lasso.Prefix, Cycle: lasso.Cycle, StateID: lasso.Entry}
	}
	return LivenessResult{Holds: true}
}

// FairLassoWithin finds an infinite fair execution confined to the allowed
// state set, starting from an initial state that is itself allowed (the
// whole prefix stays inside the set). This is how a bivalence argument
// exhibits its non-deciding admissible execution: allowed = bivalent.
func (g *Graph[S]) FairLassoWithin(allowed func(int) bool, fair Fairness, numActors int) (Lasso, bool) {
	return g.fairCycleWithin(g.ReachableWithin(g.inits, allowed), fair, numActors)
}

// ReachableWithin returns the set of states reachable from starts along
// paths that never leave the allowed set: a start that is not allowed is
// not in it, and neither is anything reached only through such a state.
func (g *Graph[S]) ReachableWithin(starts []int, allowed func(int) bool) []bool {
	in := make([]bool, len(g.states))
	var stack []int
	for _, i := range starts {
		if allowed(i) && !in[i] {
			in[i] = true
			stack = append(stack, i)
		}
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.out(i) {
			if !in[e.To] && allowed(int(e.To)) {
				in[e.To] = true
				stack = append(stack, int(e.To))
			}
		}
	}
	return in
}

// fairCycleWithin finds a fair cycle entirely inside the state set inH.
// Weak fairness for an actor a is discharged within a strongly connected
// component if either a takes some edge of the component or a is disabled
// (in the whole graph) at some state of the component.
func (g *Graph[S]) fairCycleWithin(inH []bool, fair Fairness, numActors int) (Lasso, bool) {
	comps := g.sccsWithin(inH)
	for _, comp := range comps {
		if !g.sccHasInternalEdge(comp, inH) {
			continue
		}
		if fair == WeakFairness && !g.sccIsWeaklyFair(comp, inH, numActors) {
			continue
		}
		cycle, entry := g.buildFairCycle(comp, inH, fair, numActors)
		return Lasso{Prefix: g.PathTo(entry), Cycle: cycle, Entry: entry}, true
	}
	return Lasso{}, false
}

// sccsWithin computes strongly connected components of the subgraph
// induced by inH, using an iterative Tarjan algorithm.
func (g *Graph[S]) sccsWithin(inH []bool) [][]int {
	n := len(g.states)
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		counter  int32
		stack    []int
		comps    [][]int
		callFrom []int // DFS stack of states
		callEdge []int // per-frame next-edge cursor
	)
	for root := 0; root < n; root++ {
		if !inH[root] || index[root] != unvisited {
			continue
		}
		callFrom = append(callFrom[:0], root)
		callEdge = append(callEdge[:0], 0)
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(callFrom) > 0 {
			v := callFrom[len(callFrom)-1]
			ei := callEdge[len(callEdge)-1]
			advanced := false
			es := g.out(v)
			for ; ei < len(es); ei++ {
				w := int(es[ei].To)
				if !inH[w] {
					continue
				}
				if index[w] == unvisited {
					callEdge[len(callEdge)-1] = ei + 1
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					callFrom = append(callFrom, w)
					callEdge = append(callEdge, 0)
					advanced = true
					break
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// v finished.
			callFrom = callFrom[:len(callFrom)-1]
			callEdge = callEdge[:len(callEdge)-1]
			if len(callFrom) > 0 {
				parent := callFrom[len(callFrom)-1]
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	return comps
}

// sccHasInternalEdge reports whether comp contains at least one edge
// (so that a cycle exists; single states without self-loops do not count).
func (g *Graph[S]) sccHasInternalEdge(comp []int, inH []bool) bool {
	inComp := make(map[int]bool, len(comp))
	for _, i := range comp {
		inComp[i] = true
	}
	for _, i := range comp {
		for _, e := range g.out(i) {
			if inH[e.To] && inComp[int(e.To)] {
				return true
			}
		}
	}
	return false
}

// sccIsWeaklyFair reports whether an infinite execution confined to comp
// can satisfy weak fairness for actors 0..numActors-1: each actor either
// takes an internal edge of comp or is disabled somewhere in comp.
func (g *Graph[S]) sccIsWeaklyFair(comp []int, inH []bool, numActors int) bool {
	inComp := make(map[int]bool, len(comp))
	for _, i := range comp {
		inComp[i] = true
	}
	for a := 0; a < numActors; a++ {
		satisfied := false
		for _, i := range comp {
			enabledHere := false
			for _, e := range g.out(i) {
				if int(e.Actor) != a {
					continue
				}
				enabledHere = true
				if inH[e.To] && inComp[int(e.To)] {
					satisfied = true // actor a takes a step inside the SCC
					break
				}
			}
			if satisfied {
				break
			}
			if !enabledHere {
				satisfied = true // actor a is disabled at state i
				break
			}
		}
		if !satisfied {
			return false
		}
	}
	return true
}

// buildFairCycle constructs an explicit cycle within comp that, under weak
// fairness, discharges every actor's obligation: for each actor that is
// enabled throughout the component, the cycle includes one of its steps.
func (g *Graph[S]) buildFairCycle(comp []int, inH []bool, fair Fairness, numActors int) (Trace, int) {
	inComp := make(map[int]bool, len(comp))
	for _, i := range comp {
		inComp[i] = true
	}
	internal := func(e edge) bool { return inH[e.To] && inComp[int(e.To)] }

	// Choose must-visit edges: one internal edge per actor that takes
	// internal steps in the component (under weak fairness only).
	type mustEdge struct {
		from int
		e    edge
	}
	var musts []mustEdge
	if fair == WeakFairness {
		for a := 0; a < numActors; a++ {
			found := false
			for _, i := range comp {
				for _, e := range g.out(i) {
					if int(e.Actor) == a && internal(e) {
						musts = append(musts, mustEdge{from: i, e: e})
						found = true
						break
					}
				}
				if found {
					break
				}
			}
		}
	}
	// Pick a deterministic entry.
	entry := comp[0]
	for _, i := range comp {
		if i < entry {
			entry = i
		}
	}
	if len(musts) == 0 {
		// Any simple cycle through entry.
		if path, ok := g.pathWithin(entry, entry, inComp, inH, true); ok {
			return path, entry
		}
		// entry may not be on a cycle itself; fall back to first edge-bearing state.
		for _, i := range comp {
			if path, ok := g.pathWithin(i, i, inComp, inH, true); ok {
				return path, i
			}
		}
		return nil, entry
	}
	sort.Slice(musts, func(a, b int) bool { return musts[a].from < musts[b].from })
	entry = musts[0].from
	var cycle Trace
	cur := entry
	for _, m := range musts {
		seg, ok := g.pathWithin(cur, m.from, inComp, inH, false)
		if !ok {
			continue
		}
		cycle = append(cycle, seg...)
		cycle = append(cycle, g.event(m.e))
		cur = int(m.e.To)
	}
	seg, ok := g.pathWithin(cur, entry, inComp, inH, cur == entry)
	if ok {
		cycle = append(cycle, seg...)
	}
	return cycle, entry
}

// pathWithin finds a path from src to dst confined to the component. When
// src == dst and forceMove is true it finds a nonempty cycle.
func (g *Graph[S]) pathWithin(src, dst int, inComp map[int]bool, inH []bool, forceMove bool) (Trace, bool) {
	if src == dst && !forceMove {
		return nil, true
	}
	type pv struct {
		prev int
		e    edge
	}
	visited := map[int]pv{}
	queue := []int{}
	// Seed with successors of src so that cycles of length >= 1 are found.
	for _, e := range g.out(src) {
		to := int(e.To)
		if inH[to] && inComp[to] {
			if to == dst {
				return Trace{g.event(e)}, true
			}
			if _, seen := visited[to]; !seen {
				visited[to] = pv{prev: src, e: e}
				queue = append(queue, to)
			}
		}
	}
	for head := 0; head < len(queue); head++ {
		i := queue[head]
		for _, e := range g.out(i) {
			to := int(e.To)
			if !inH[to] || !inComp[to] {
				continue
			}
			if to == dst {
				var rev []TraceEvent
				rev = append(rev, g.event(e))
				cur := i
				for cur != src {
					p := visited[cur]
					rev = append(rev, g.event(p.e))
					cur = p.prev
				}
				out := make(Trace, len(rev))
				for k := range rev {
					out[k] = rev[len(rev)-1-k]
				}
				return out, true
			}
			if _, seen := visited[to]; !seen {
				visited[to] = pv{prev: i, e: e}
				queue = append(queue, to)
			}
		}
	}
	return nil, false
}
