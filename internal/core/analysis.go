package core

import (
	"fmt"
	"math/bits"
	"slices"
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
//
// It is one Tarjan pass over the forward rows. Tarjan finishes a strongly
// connected component only after every component it has an edge into, so
// when a component is finished the masks of the targets outside it are
// final, and the component's mask — the one value all its states share,
// as they reach each other — is the OR of its states' decisions and of
// the masks of their out-edges' targets. A target inside the component
// holds only its own decision then, which the OR already includes.
func (g *Graph[S]) Valence(decide func(i int) (int, bool)) (*ValenceInfo, error) {
	masks := make([]uint64, len(g.states))
	for i := range masks {
		if v, ok := decide(i); ok {
			if v < 0 || v >= MaxDecisionValues {
				return nil, fmt.Errorf("core: decision value %d out of range [0,%d)", v, MaxDecisionValues)
			}
			masks[i] = 1 << uint(v)
		}
	}
	g.tarjan(newSCCPass(len(masks)), nil, func(comp []int32) bool {
		var m uint64
		for _, i := range comp {
			m |= masks[i]
			for _, e := range g.out(int(i)) {
				m |= masks[e.To]
			}
		}
		for _, i := range comp {
			masks[i] = m
		}
		return true
	})
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
		if !v.IsBivalent(i) {
			continue
		}
		es := g.out(i)
		if len(es) == 0 {
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
// (in the whole graph) at some state of the component. The first component
// Tarjan finishes that has an internal edge and, under weak fairness, is
// weakly fair, carries the cycle.
func (g *Graph[S]) fairCycleWithin(inH []bool, fair Fairness, numActors int) (Lasso, bool) {
	p := newSCCPass(len(g.states))
	var (
		lasso Lasso
		found bool
	)
	g.tarjan(p, inH, func(comp []int32) bool {
		if len(comp) == 1 && !g.hasSelfLoop(int(comp[0])) {
			return true
		}
		stamp := p.nodes[comp[0]].low
		if fair == WeakFairness && !g.sccIsWeaklyFair(comp, p, stamp, numActors) {
			return true
		}
		cycle, entry := g.buildFairCycle(comp, p, stamp, fair, numActors)
		lasso, found = Lasso{Prefix: g.PathTo(entry), Cycle: cycle, Entry: entry}, true
		return false
	})
	return lasso, found
}

// hasSelfLoop reports whether state i has an edge to itself.
func (g *Graph[S]) hasSelfLoop(i int) bool {
	for _, e := range g.out(i) {
		if int(e.To) == i {
			return true
		}
	}
	return false
}

// sccPass is one Tarjan pass's column, indexed by state id, and its
// reused stacks.
type sccPass struct {
	nodes  []sccNode
	stack  []int32
	frames []sccFrame
}

// sccNode is one state's Tarjan entry. The two numbers share a cache line,
// as the pass reads both for every edge.
type sccNode struct {
	// index is the state's DFS number, unvisited before the pass reaches
	// it.
	index int32
	// low is the state's low-link while it is on the stack and, once its
	// component is finished, the component's stamp: the bitwise complement
	// of the component's root's DFS number, so negative and shared by no
	// other component. A state is on the stack exactly when it is visited
	// and its low is not negative, and w is in a finished component comp
	// exactly when its low equals comp[0]'s.
	low int32
}

// sccFrame is one DFS call: the state, its row, read once when the call
// starts, and the cursor into the row.
type sccFrame struct {
	v, next int32
	es      []edge
}

// unvisited marks an index entry the pass has not reached.
const unvisited = -1

func newSCCPass(n int) *sccPass {
	p := &sccPass{nodes: make([]sccNode, n)}
	for i := range p.nodes {
		p.nodes[i].index = unvisited
	}
	return p
}

// tarjan runs one iterative Tarjan pass over the subgraph inH induces
// (every state when inH is nil), rooting DFS trees in id order, and hands
// each strongly connected component to visit as soon as it is finished,
// so a component comes after every component it has an edge into. comp is
// a slice of the pass's stack, valid during the call only, in the order
// its states leave the stack (the component's root last), with every
// state's low already set to the component's stamp. visit returns false
// to stop the pass.
func (g *Graph[S]) tarjan(p *sccPass, inH []bool, visit func(comp []int32) bool) {
	nodes := p.nodes
	var counter int32
	for root := range nodes {
		if (inH != nil && !inH[root]) || nodes[root].index != unvisited {
			continue
		}
		nodes[root] = sccNode{counter, counter}
		counter++
		p.stack = append(p.stack, int32(root))
		p.frames = append(p.frames[:0], sccFrame{v: int32(root), es: g.out(root)})
		for len(p.frames) > 0 {
			f := &p.frames[len(p.frames)-1]
			v, es := f.v, f.es
			descended := false
			for !descended && f.next < int32(len(es)) {
				w := es[f.next].To
				f.next++
				switch {
				case inH != nil && !inH[w]:
				case nodes[w].index == unvisited:
					nodes[w] = sccNode{counter, counter}
					counter++
					p.stack = append(p.stack, w)
					p.frames = append(p.frames, sccFrame{v: w, es: g.out(int(w))})
					descended = true
				case nodes[w].low >= 0 && nodes[w].index < nodes[v].low:
					nodes[v].low = nodes[w].index
				}
			}
			if descended {
				continue
			}
			// v is finished.
			p.frames = p.frames[:len(p.frames)-1]
			if len(p.frames) > 0 {
				if parent := p.frames[len(p.frames)-1].v; nodes[v].low < nodes[parent].low {
					nodes[parent].low = nodes[v].low
				}
			}
			if nodes[v].low != nodes[v].index {
				continue
			}
			k := len(p.stack) - 1
			for p.stack[k] != v {
				k--
			}
			comp := p.stack[k:]
			slices.Reverse(comp)
			for _, w := range comp {
				nodes[w].low = ^nodes[v].index
			}
			if !visit(comp) {
				return
			}
			p.stack = p.stack[:k]
		}
	}
}

// sccIsWeaklyFair reports whether an infinite execution confined to comp
// can satisfy weak fairness for actors 0..numActors-1: each actor either
// takes an internal edge of comp or is disabled somewhere in comp. A
// state w is in comp exactly when p.nodes[w].low == stamp.
func (g *Graph[S]) sccIsWeaklyFair(comp []int32, p *sccPass, stamp int32, numActors int) bool {
	for a := 0; a < numActors; a++ {
		satisfied := false
		for _, i := range comp {
			enabledHere := false
			for _, e := range g.out(int(i)) {
				if int(e.Actor) != a {
					continue
				}
				enabledHere = true
				if p.nodes[e.To].low == stamp {
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

// buildFairCycle constructs an explicit cycle within comp, the component
// of p's stamp, that, under weak fairness, discharges every actor's
// obligation: for each actor that is enabled throughout the component,
// the cycle includes one of its steps. It ends p's pass: the paths it
// searches reuse the index of comp's states, and p.stack past comp, for
// their BFS.
func (g *Graph[S]) buildFairCycle(comp []int32, p *sccPass, stamp int32, fair Fairness, numActors int) (Trace, int) {
	b := &cycleSearch[S]{g: g, nodes: p.nodes, stamp: stamp, comp: comp, queue: p.stack[len(p.stack):]}
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
				for _, e := range g.out(int(i)) {
					if int(e.Actor) == a && b.internal(e.To) {
						musts = append(musts, mustEdge{from: int(i), e: e})
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
	entry := int(slices.Min(comp))
	if len(musts) == 0 {
		// Any simple cycle through entry.
		if path, ok := b.path(entry, entry, true); ok {
			return path, entry
		}
		// entry may not be on a cycle itself; fall back to first edge-bearing state.
		for _, i := range comp {
			if path, ok := b.path(int(i), int(i), true); ok {
				return path, int(i)
			}
		}
		return nil, entry
	}
	sort.Slice(musts, func(a, b int) bool { return musts[a].from < musts[b].from })
	entry = musts[0].from
	var cycle Trace
	cur := entry
	for _, m := range musts {
		seg, ok := b.path(cur, m.from, false)
		if !ok {
			continue
		}
		cycle = append(cycle, seg...)
		cycle = append(cycle, g.event(m.e))
		cur = int(m.e.To)
	}
	seg, ok := b.path(cur, entry, cur == entry)
	if ok {
		cycle = append(cycle, seg...)
	}
	return cycle, entry
}

// cycleSearch is the breadth-first path search inside one finished
// component: w is in it exactly when nodes[w].low == stamp. The search
// reuses the index of the component's states as its prev column, the
// state it reached w from, or notReached, and queue's storage.
type cycleSearch[S ~string] struct {
	g     *Graph[S]
	nodes []sccNode
	stamp int32
	comp  []int32
	queue []int32
}

// notReached marks a prev entry the search has not reached.
const notReached = -2

func (b *cycleSearch[S]) internal(w int32) bool { return b.nodes[w].low == b.stamp }

func (b *cycleSearch[S]) prev(w int32) *int32 { return &b.nodes[w].index }

// path finds a path from src to dst confined to the component. When
// src == dst and forceMove is true it finds a nonempty cycle. A state is
// reached by the first edge, in breadth-first order, that leads to it, so
// walking back takes, from each state's prev, the first edge of its row
// to the state.
func (b *cycleSearch[S]) path(src, dst int, forceMove bool) (Trace, bool) {
	if src == dst && !forceMove {
		return nil, true
	}
	for _, w := range b.comp {
		*b.prev(w) = notReached
	}
	b.queue = b.queue[:0]
	// Seed with successors of src so that cycles of length >= 1 are found.
	for _, e := range b.g.out(src) {
		if !b.internal(e.To) {
			continue
		}
		if int(e.To) == dst {
			return Trace{b.g.event(e)}, true
		}
		if *b.prev(e.To) == notReached {
			*b.prev(e.To) = int32(src)
			b.queue = append(b.queue, e.To)
		}
	}
	for head := 0; head < len(b.queue); head++ {
		i := b.queue[head]
		for _, e := range b.g.out(int(i)) {
			if !b.internal(e.To) {
				continue
			}
			if int(e.To) == dst {
				rev := Trace{b.g.event(e)}
				for cur := i; int(cur) != src; cur = *b.prev(cur) {
					rev = append(rev, b.g.event(b.firstEdge(*b.prev(cur), cur)))
				}
				slices.Reverse(rev)
				return rev, true
			}
			if *b.prev(e.To) == notReached {
				*b.prev(e.To) = i
				b.queue = append(b.queue, e.To)
			}
		}
	}
	return nil, false
}

// firstEdge returns the first edge of from's row that leads to to.
func (b *cycleSearch[S]) firstEdge(from, to int32) edge {
	for _, e := range b.g.out(int(from)) {
		if e.To == to {
			return e
		}
	}
	panic("core: cycle search lost an edge")
}
