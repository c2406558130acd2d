package core

import (
	"fmt"
	"slices"
)

// This file keeps the analysis passes as they were before they moved onto
// one Tarjan pass over the forward rows, as oracles: referenceValence
// propagates decisions backwards over a reverse CSR built by counting
// sort, and referenceSCCs collects every component of the subgraph into
// a [][]int. The exported functions below let the external test package,
// which can import flp, check the passes against them.

// referenceValence computes the attainable-decision masks by backward
// propagation: a work queue of states whose mask grew, each pushing its
// mask to its predecessors.
func referenceValence[S ~string](g *Graph[S], decide func(i int) (int, bool)) ([]uint64, error) {
	n := len(g.states)
	masks := make([]uint64, n)
	// Reverse adjacency in compressed sparse rows: state t's predecessors
	// are preds[predOff[t]:predOff[t+1]], in ascending id order.
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
	return masks, nil
}

// referenceSCCs computes the strongly connected components of the
// subgraph induced by inH with an iterative Tarjan algorithm, each
// component in the order its states leave the stack.
func referenceSCCs[S ~string](g *Graph[S], inH []bool) [][]int {
	n := len(g.states)
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

// ValenceReferenceDiff describes the first state whose Valence mask
// differs from referenceValence's, or whose out-of-range error differs;
// "" when they agree.
func ValenceReferenceDiff(g *Graph[string], decide func(i int) (int, bool)) string {
	want, werr := referenceValence(g, decide)
	got, gerr := g.Valence(decide)
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		return fmt.Sprintf("errors differ: %v vs reference %v", gerr, werr)
	}
	if werr != nil {
		return ""
	}
	for i, m := range want {
		if got.masks[i] != m {
			return fmt.Sprintf("state %d: mask %b, reference %b", i, got.masks[i], m)
		}
	}
	return ""
}

// SCCReferenceDiff describes the first difference between the components
// tarjan hands out over inH and referenceSCCs': their number, order or
// membership, in order; "" when they agree.
func SCCReferenceDiff(g *Graph[string], inH []bool) string {
	want := referenceSCCs(g, inH)
	var got [][]int
	g.tarjan(newSCCPass(g.Len()), inH, func(comp []int32) bool {
		c := make([]int, len(comp))
		for k, i := range comp {
			c[k] = int(i)
		}
		got = append(got, c)
		return true
	})
	if len(got) != len(want) {
		return fmt.Sprintf("%d components, reference %d", len(got), len(want))
	}
	for k := range want {
		if !slices.Equal(got[k], want[k]) {
			return fmt.Sprintf("component %d is %v, reference %v", k, got[k], want[k])
		}
	}
	return ""
}

// RandomSystem is newRandomSys for the external test package: a seeded
// random system over up to 34 states with cycles and self-loops.
func RandomSystem(seed int64) System { return newRandomSys(seed) }
