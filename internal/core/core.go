// Package core provides the unified formal model underlying every checker
// in this library: finite labeled transition systems, bounded reachability
// exploration, execution traces, valence analysis, and fairness-aware
// liveness checking.
//
// The paper this library reproduces (Lynch, "A Hundred Impossibility Proofs
// for Distributed Computing", PODC 1989) argues that all impossibility
// proofs in distributed computing rest on the limitation of local knowledge,
// and calls (§3.6, §4.4) for a unified model in which the arguments can be
// expressed once instead of re-deriving ad-hoc models per paper. This
// package is that unified model: shared-memory systems, synchronous round
// systems, asynchronous message-passing systems, and timed systems all
// compile down to a System over canonical string-encoded states, and every
// proof-technique engine (bivalence, scenario, chain, stretching, symmetry)
// operates on the resulting Graph.
package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/engine"
)

// EnvironmentActor is the Actor value used for steps taken by the
// environment (message delivery, clock advance, adversary moves) rather
// than by a numbered process. Environment steps are exempt from process
// fairness requirements.
const EnvironmentActor = -1

// Step is one labeled transition out of a state, the engine's Action: To
// is the successor, Actor the process taking the step (or
// EnvironmentActor), and Label a human-readable action name used in traces
// and counterexamples.
type Step = engine.Action

// System is a (finitely explorable) labeled transition system over
// canonical states encoded as strings. Implementations must ensure that equal
// states (in the == sense) are behaviorally identical: the explorer
// deduplicates by state equality, which is exactly the paper's "if a
// process sees the same thing in two executions, it behaves the same in
// both" — equality of canonical encodings is the mechanized form of
// indistinguishability.
type System interface {
	// Init returns the initial states.
	Init() []string
	// ExpandInto is the transition relation: it emits every enabled
	// transition from s into x (Emit, or EmitBytes for states rendered
	// into x.Scratch), in a deterministic order. Emitting nothing
	// marks s as terminal. It must be a pure function of s, safe for
	// concurrent calls on distinct contexts, and follow engine.Ctx's
	// buffer-ownership rules: emitted byte slices are consumed by the time
	// the emit call returns and must not be retained across expansions.
	// engine.Differential and Options.VerifyAliasing hold implementations
	// to these rules; StepsOf materializes one state's transitions. It is
	// the engine.ExpandFunc that Explore hands to the engine.
	ExpandInto(s string, x *engine.Ctx)
}

// StepsOf returns the transitions sys.ExpandInto emits from s, in emission
// order — the materialized form for one-off callers and tests. The
// explorers never call it.
func StepsOf(sys System, s string) []Step {
	var out []Step
	sys.ExpandInto(s, engine.CollectCtx(func(to, label string, actor int) {
		out = append(out, Step{To: to, Label: label, Actor: actor})
	}))
	return out
}

// ErrStateLimit is returned by Explore when the reachable state space
// exceeds the configured bound before exploration completes.
var ErrStateLimit = errors.New("core: state limit exceeded during exploration")

// edge is the stored form of a Step: successor id, actor and label id. It
// is the engine's canonical edge type, aliased so that exploration results
// are adopted into a Graph without copying.
type edge = engine.Edge

// Graph is the explored reachable state graph of a System. It supports the
// analyses every impossibility engine needs: invariant checking with
// counterexample paths, terminal/deadlock detection, valence computation,
// and fair-cycle (livelock) detection.
//
// The graph is the engine's compressed sparse rows, adopted as is: state
// i's transitions are edges[off[i]:off[i+1]], labels are ids into a label
// table, and the passes walk ids, looking a label string up only when they
// build a Trace.
//
// S is always string or an alias of it: the parameter stays only because
// bench/ names core.Graph[string] and core.Explore[string], and Go 1.22
// has no generic aliases. The states are the engine's []string, converted
// to S only at the accessors.
type Graph[S ~string] struct {
	states []string
	// index and labelIndex are built lazily, under their sync.Once, on the
	// first StateID and EmbedTrace call, so concurrent readers race neither
	// on construction nor on lookup.
	index          map[string]int
	indexOnce      sync.Once
	labelIndex     map[string]uint32
	labelIndexOnce sync.Once
	// off has one entry per expanded state plus the end offset; states
	// from len(off)-1 on (a truncated graph's cut-off frontier) have no
	// row.
	off    []uint32
	edges  []edge
	labels []string
	// parent[i] is the state that first reached state i during BFS, used
	// to reconstruct shortest witness paths; -1 for initial states.
	// parentEdge[i] indexes the edge it took; -1 for initial states.
	parent     []int32
	parentEdge []int32
	inits      []int
}

// out returns the stored transitions of state i: nil when i has no row.
func (g *Graph[S]) out(i int) []edge {
	if i+1 >= len(g.off) {
		return nil
	}
	return g.edges[g.off[i]:g.off[i+1]]
}

// event renders e as a trace event, looking up its label.
func (g *Graph[S]) event(e edge) TraceEvent {
	return TraceEvent{Label: g.labels[e.Label], Actor: int(e.Actor)}
}

// ExploreOptions bound an exploration. They are the engine's options:
// every field means what engine.Options documents.
type ExploreOptions = engine.Options

// DefaultMaxStates bounds exploration when ExploreOptions.MaxStates is zero.
const DefaultMaxStates = engine.DefaultMaxStates

// Explore performs breadth-first exhaustive exploration of sys through
// engine.Explore and returns the reachable graph. It returns ErrStateLimit
// (wrapped) if the state space exceeds the bound; the partial graph built
// up to the bound — itself canonical, and identical at any parallelism — is
// returned alongside the error.
//
// Whatever the worker count, the Graph is identical: state numbering, edge
// order, parent tree and initials all match a sequential breadth-first
// search (engine.Differential holds the engine to that reference), so
// downstream analyses stay reproducible. Parallel exploration relies on
// ExpandInto being safe for concurrent calls on distinct contexts and a
// pure function of its state (true of every System in this repository). A
// lossy store (bitstate) taints the exploration: the Graph may undercount
// the reachable set, so callers must downgrade universally-quantified
// verdicts — check Stats.Lossy.
//
// The Graph shares the engine result's arrays rather than copying them
// (see the edge alias); its index map is built on the first StateID call.
// S names only the Graph's state type; see Graph for why it stays.
func Explore[S ~string](sys System, opts ExploreOptions) (*Graph[S], error) {
	if opts.MaxStates <= 0 {
		opts.MaxStates = DefaultMaxStates
	}
	res, err := engine.Explore(sys.Init(), sys.ExpandInto, opts)
	switch {
	case err == nil:
	case errors.Is(err, engine.ErrNoInitialStates):
		return nil, errors.New("core: system has no initial states")
	case errors.Is(err, engine.ErrStateLimit):
		err = fmt.Errorf("%w: limit %d", ErrStateLimit, opts.MaxStates)
	default:
		return nil, err
	}
	return &Graph[S]{
		states:     res.States,
		off:        res.Off,
		edges:      res.Edges,
		labels:     res.Labels,
		parent:     res.Parents,
		parentEdge: res.ParentEdges,
		inits:      res.Inits,
	}, err
}

// Len returns the number of reachable states.
func (g *Graph[S]) Len() int { return len(g.states) }

// NumEdges returns the number of transitions in the reachable graph.
func (g *Graph[S]) NumEdges() int { return int(g.off[len(g.off)-1]) }

// State returns the state with internal id i. Ids are stable for the life
// of the graph and densely numbered from 0.
func (g *Graph[S]) State(i int) S { return S(g.states[i]) }

// StateID returns the id of state s, if it is reachable. The state index
// is materialized on the first call, under a sync.Once so that concurrent
// readers are safe: after exploration the graph is immutable and StateID
// may be called from multiple goroutines.
func (g *Graph[S]) StateID(s S) (int, bool) {
	g.indexOnce.Do(func() {
		idx := make(map[string]int, len(g.states))
		for i, st := range g.states {
			idx[st] = i
		}
		g.index = idx
	})
	id, ok := g.index[string(s)]
	return id, ok
}

// Initials returns the ids of the initial states.
func (g *Graph[S]) Initials() []int {
	out := make([]int, len(g.inits))
	copy(out, g.inits)
	return out
}

// expanded reports whether state id i has a row: always, except on a
// truncated graph, whose cut-off states were never expanded.
func (g *Graph[S]) expanded(i int) bool { return i+1 < len(g.off) }

// step renders e as a Step.
func (g *Graph[S]) step(e edge) Step {
	return Step{To: g.states[e.To], Label: g.labels[e.Label], Actor: int(e.Actor)}
}

// Successors returns the steps out of state id i; nil for a state whose
// expansion a truncated exploration cut off.
func (g *Graph[S]) Successors(i int) []Step {
	if !g.expanded(i) {
		return nil
	}
	es := g.out(i)
	out := make([]Step, len(es))
	for k, e := range es {
		out[k] = g.step(e)
	}
	return out
}

// IsTerminal reports whether state id i was expanded and has no outgoing
// transitions. A state whose expansion a truncated exploration cut off is
// not terminal: its successors are unknown.
func (g *Graph[S]) IsTerminal(i int) bool { return g.expanded(i) && g.off[i] == g.off[i+1] }

// Parent returns the id of the state that first reached state i during
// BFS, or -1 for initial states.
func (g *Graph[S]) Parent(i int) int { return int(g.parent[i]) }

// ParentStep returns the step by which Parent(i) first reached state i.
// For initial states it returns the zero Step.
func (g *Graph[S]) ParentStep(i int) Step {
	if g.parent[i] < 0 {
		return Step{}
	}
	return g.step(g.edges[g.parentEdge[i]])
}

// TraceEvent is one step of a witness execution.
type TraceEvent struct {
	Label string
	Actor int
}

// Trace is a finite execution fragment: the sequence of events from an
// initial state to a witness state. It is the mechanized form of the
// paper's "construction of a bad execution".
type Trace []TraceEvent

// String renders the trace one event per line.
func (t Trace) String() string {
	out := ""
	for i, ev := range t {
		if i > 0 {
			out += "\n"
		}
		if ev.Actor == EnvironmentActor {
			out += fmt.Sprintf("%3d. [env] %s", i+1, ev.Label)
		} else {
			out += fmt.Sprintf("%3d. p%-3d %s", i+1, ev.Actor, ev.Label)
		}
	}
	return out
}

// PathTo reconstructs the BFS-shortest trace from an initial state to
// state id i.
func (g *Graph[S]) PathTo(i int) Trace {
	var rev []TraceEvent
	for cur := i; g.parent[cur] != -1; cur = int(g.parent[cur]) {
		rev = append(rev, g.event(g.edges[g.parentEdge[cur]]))
	}
	out := make(Trace, len(rev))
	for k := range rev {
		out[k] = rev[len(rev)-1-k]
	}
	return out
}

// FindState returns the id of a BFS-first reachable state satisfying pred,
// or ok=false if none exists.
func (g *Graph[S]) FindState(pred func(S) bool) (int, bool) {
	for i, s := range g.states {
		if pred(S(s)) {
			return i, true
		}
	}
	return 0, false
}

// CheckInvariant verifies that inv holds in every reachable state. On
// violation it returns the violating state id and a witness trace.
func (g *Graph[S]) CheckInvariant(inv func(S) bool) (violation int, trace Trace, ok bool) {
	for i, s := range g.states {
		if !inv(S(s)) {
			return i, g.PathTo(i), false
		}
	}
	return 0, nil, true
}

// Terminals returns the ids of all terminal (deadlocked or decided) states;
// see IsTerminal for truncated graphs.
func (g *Graph[S]) Terminals() []int {
	var out []int
	for i := 0; g.expanded(i); i++ {
		if g.off[i] == g.off[i+1] {
			out = append(out, i)
		}
	}
	return out
}
