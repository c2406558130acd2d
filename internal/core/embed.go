package core

// Trace embedding: the refinement half of the paper's unified-model story
// (§3.6). A live execution observed by internal/runtime refines the
// explored model iff its event sequence traces a path through the Graph —
// every observed (label, actor) step must be an edge enabled at the
// current model state. Because the live system may be nondeterministic in
// ways the labels do not distinguish (e.g. two in-flight messages with the
// same label), the walk carries the whole frontier of model states
// consistent with the prefix so far — a subset construction, not a
// single-path replay.

// EmbedResult reports one trace-embedding attempt.
type EmbedResult struct {
	// Ok is true when the whole trace embeds from some initial state.
	Ok bool
	// Ends is the sorted set of state ids the trace can end in (every model
	// state consistent with the full observation); empty when !Ok.
	Ends []int
	// FailAt is the index of the first event with no consistent extension
	// (the whole prefix [0,FailAt) embeds, event FailAt does not); -1 when
	// Ok.
	FailAt int
	// Frontier is the set of model states the prefix [0,FailAt) can reach —
	// the states at which the failing event was not enabled. Nil when Ok.
	Frontier []int
}

// EmbedTrace checks that tr embeds as a path in the explored graph,
// starting from any initial state. Matching is by exact (Label, Actor)
// equality against graph edges: each event's label is resolved to its id
// in the graph's label table once, and edges are compared as integers. The
// search carries the full set of model states consistent with each prefix
// (a subset construction over the graph), so label-ambiguous systems embed
// iff any resolution works; frontier sets are deduplicated per step,
// bounding work by O(len(tr) · states · max-degree).
func (g *Graph[S]) EmbedTrace(tr Trace) EmbedResult {
	g.labelIndexOnce.Do(func() {
		idx := make(map[string]uint32, len(g.labels))
		for i, l := range g.labels {
			idx[l] = uint32(i)
		}
		g.labelIndex = idx
	})
	frontier := append([]int(nil), g.inits...)
	seen := make(map[int32]bool, len(frontier))
	for i, ev := range tr {
		next := frontier[:0:0] // fresh backing array; frontier is still read below
		for k := range seen {
			delete(seen, k)
		}
		// A label the graph never produced (or an actor outside int32)
		// matches no edge.
		label, ok := g.labelIndex[ev.Label]
		if actor := int32(ev.Actor); ok && int(actor) == ev.Actor {
			for _, id := range frontier {
				for _, e := range g.out(id) {
					if e.Label == label && e.Actor == actor && !seen[e.To] {
						seen[e.To] = true
						next = append(next, int(e.To))
					}
				}
			}
		}
		if len(next) == 0 {
			return EmbedResult{FailAt: i, Frontier: sortedIDs(frontier)}
		}
		frontier = next
	}
	return EmbedResult{Ok: true, Ends: sortedIDs(frontier), FailAt: -1}
}

// sortedIDs copies ids into ascending order so embedding results are
// deterministic regardless of edge iteration order.
func sortedIDs(ids []int) []int {
	out := append([]int(nil), ids...)
	// Insertion sort: frontiers are small (bounded by label ambiguity, not
	// graph size) and this avoids an import for the hot path.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
