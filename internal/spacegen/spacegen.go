// Package spacegen generates random labeled transition systems with
// planted, known-by-construction ground truth, for differential testing of
// the exploration engine's mode stack (sequential, parallel, symmetry
// quotient, ample-set POR, and their composition).
//
// The construction is an asynchronous product of independent components.
// Each component runs a small random "family" digraph (a spanning tree from
// state 0 plus extra edges, with a chosen set of sink states), and a family
// may be replicated several times — identical replicas stepping on disjoint
// bytes of the composite state. That shape makes every ground truth exact
// by construction rather than by re-measurement:
//
//   - reachability: every family state is tree-reachable and components
//     step independently, so the reachable composite space is the full
//     product — Π_f R_f^{m_f} states for family sizes R_f and
//     multiplicities m_f;
//   - terminals: a composite state is terminal iff every component sits on
//     a family sink, so the terminal count is Π_f D_f^{m_f} for sink
//     counts D_f, and each sink is flagged decided or deadlocked, giving
//     an exact decided-terminal count too;
//   - symmetry: replicas of a family are interchangeable, so sorting each
//     family's block of the state string is a sound canonicalizer, and the
//     quotient has exactly Π_f C(R_f+m_f-1, m_f) states (multisets of
//     replica states) — the quotient's ReductionFactor is predictable;
//   - independence: actions of distinct components touch disjoint bytes,
//     so declaring them independent satisfies the full ample-set contract
//     (commuting diamonds, persistence), and POR must preserve the exact
//     terminal state set.
//
// A second topology (Config.Chain) plants the opposite extreme: a
// deep-narrow "braid" of identical linear chains hanging off one root,
// with branching ~1 and planted depth in the thousands. Wide products
// stress per-state throughput; the chains stress the level loop (the
// frontier never exceeds the lane count, so every level is a barrier over
// a handful of states). Its ground truth, lane-symmetry
// canonicalizer and (all-false) independence relation are closed-form too.
//
// Deliberately-poisoned variants of the canonicalizer and independence
// relation (see poison.go) provide the negative ground truth: the engine's
// VerifyCanon / VerifyPOR falsifiers must reject them.
//
// The generator core speaks plain states, labels and actors; the single
// engine-facing file (bridge.go) adapts a Space onto engine.Differential
// for the fuzz targets and the cmd/hundred fuzz subcommand.
package spacegen

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// stateBase is the byte encoding a component sitting on family state 0;
// family state i renders as stateBase+i. Keeping the encoding printable
// makes divergence reports and shrinker output readable.
const stateBase = 'A'

// MaxFamilyStates bounds the per-family state count so a component always
// fits one printable byte.
const MaxFamilyStates = 50

// Edge is one transition of a family digraph.
type Edge struct {
	// To is the destination family state.
	To int
	// Label identifies the edge within its family; labels are unique per
	// family, so (Label, component) identifies an action of the product.
	Label string
}

// Family is one component type: a digraph over states 0..States-1 in which
// every state is reachable from 0, Sinks have no outgoing edges, and every
// non-sink state has at least one.
type Family struct {
	// States is the number of family states (all reachable by construction).
	States int
	// Edges[i] are the out-edges of family state i, in emission order.
	Edges [][]Edge
	// Sink[i] reports that state i is terminal.
	Sink []bool
	// Decided[i] reports that sink i models a decided halt rather than a
	// deadlock. False for non-sinks.
	Decided []bool
	// Mult is the number of identical replicas of this family in the
	// product.
	Mult int
}

// Config are the generator knobs. Every knob is a maximum: the per-family
// draws stay within it, so shrinking a knob shrinks the space.
type Config struct {
	// Seed drives every random draw; equal Configs generate equal Spaces.
	Seed uint64
	// Families is the number of distinct component families (min 1).
	Families int
	// MaxStates is the largest per-family state count (min 2).
	MaxStates int
	// MaxMult is the largest per-family replica count (min 1).
	MaxMult int
	// MaxExtra is the largest number of extra (non-tree) edges per family;
	// extra edges may close cycles, exercising the POR cycle proviso.
	MaxExtra int
	// MaxSinks is the largest number of planted sinks per family (may be 0:
	// then every composite run is non-terminating).
	MaxSinks int
	// Chain, when positive, switches the generator to the deep-narrow chain
	// ("braid") topology instead of the product construction: up to MaxMult
	// lanes (capped at MaxChainLanes), each a linear chain of the same
	// planted depth drawn in (Chain/2, Chain], hanging off a single root.
	// Branching factor is 1 everywhere except the root, so BFS frontiers
	// never exceed the lane count and exploration cost is dominated by
	// per-level overhead rather than expansion. The product knobs other
	// than MaxMult are ignored. Ground truth stays
	// closed-form: 1 + lanes*depth states, one terminal per lane (decided
	// iff the depth is even, uniformly across lanes so decidedness is
	// orbit-invariant), and lane symmetry gives a 1 + depth state quotient.
	Chain int
}

// MaxChainLanes caps the chain topology's lane count so a lane always
// renders as one printable byte.
const MaxChainLanes = 26

// MaxChainDepth caps the planted chain depth.
const MaxChainDepth = 100_000

// normalized returns cfg with every knob raised to its minimum viable
// value, so arbitrary fuzzer inputs map onto a generable configuration.
func (cfg Config) normalized() Config {
	if cfg.Families < 1 {
		cfg.Families = 1
	}
	if cfg.MaxStates < 2 {
		cfg.MaxStates = 2
	}
	if cfg.MaxStates > MaxFamilyStates {
		cfg.MaxStates = MaxFamilyStates
	}
	if cfg.MaxMult < 1 {
		cfg.MaxMult = 1
	}
	if cfg.MaxExtra < 0 {
		cfg.MaxExtra = 0
	}
	if cfg.MaxSinks < 0 {
		cfg.MaxSinks = 0
	}
	if cfg.Chain < 0 {
		cfg.Chain = 0
	}
	if cfg.Chain > MaxChainDepth {
		cfg.Chain = MaxChainDepth
	}
	return cfg
}

// Truth is the planted ground truth of a generated Space. All counts are
// exact consequences of the construction, not measurements.
type Truth struct {
	// States is the reachable composite state count: Π_f R_f^{m_f}.
	States int
	// Terminals is the reachable terminal count: Π_f D_f^{m_f}.
	Terminals int
	// Decided is the count of terminals whose components all halted on
	// decided sinks.
	Decided int
	// QuotientStates is the state count of the symmetry quotient under
	// Canon: Π_f C(R_f+m_f-1, m_f).
	QuotientStates int
	// QuotientTerminals is the quotient's terminal count:
	// Π_f C(D_f+m_f-1, m_f).
	QuotientTerminals int
	// QuotientDecided is the quotient's decided-terminal count.
	QuotientDecided int
}

// Space is one generated product system plus its planted truth.
type Space struct {
	// Cfg is the configuration the space was generated from.
	Cfg Config
	// Families are the component types, in generation order.
	Families []Family
	// Truth is the planted ground truth.
	Truth Truth

	// comp[i] is the family index of component i; replicas of a family are
	// contiguous, so family blocks of the state string can be sorted
	// in place by the canonicalizer.
	comp []int
	// blockStart[f] is the component index where family f's block begins.
	blockStart []int

	// lanes and depth describe the chain topology; depth > 0 selects it
	// (Families and comp are then empty).
	lanes, depth int
}

// chainRoot is the chain topology's initial state; lane l at position p
// renders as byte('A'+l) + ":" + decimal(p).
const chainRoot = "*"

// Generate builds the space for cfg. It never fails: out-of-range knobs
// are clamped to the nearest viable value first (see Config).
func Generate(cfg Config) *Space {
	cfg = cfg.normalized()
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	sp := &Space{Cfg: cfg}
	if cfg.Chain > 0 {
		sp.lanes = 1 + rng.Intn(min(cfg.MaxMult, MaxChainLanes))
		lo := cfg.Chain/2 + 1
		sp.depth = lo + rng.Intn(cfg.Chain-lo+1)
		sp.Truth = chainTruth(sp.lanes, sp.depth)
		return sp
	}
	for f := 0; f < cfg.Families; f++ {
		fam := genFamily(rng, cfg)
		sp.blockStart = append(sp.blockStart, len(sp.comp))
		for r := 0; r < fam.Mult; r++ {
			sp.comp = append(sp.comp, f)
		}
		sp.Families = append(sp.Families, fam)
	}
	sp.Truth = computeTruth(sp.Families)
	return sp
}

// genFamily draws one family: a spanning tree rooted at 0, a sink set
// among the childless states, and extra edges out of the non-sinks.
func genFamily(rng *rand.Rand, cfg Config) Family {
	n := 2 + rng.Intn(cfg.MaxStates-1)
	fam := Family{
		States:  n,
		Edges:   make([][]Edge, n),
		Sink:    make([]bool, n),
		Decided: make([]bool, n),
		Mult:    1 + rng.Intn(cfg.MaxMult),
	}
	// Spanning tree: every state i>0 hangs off an earlier state, so all n
	// states are reachable from 0.
	edgeID := 0
	addEdge := func(from, to int) {
		fam.Edges[from] = append(fam.Edges[from], Edge{To: to, Label: fmt.Sprintf("e%d", edgeID)})
		edgeID++
	}
	hasChild := make([]bool, n)
	for i := 1; i < n; i++ {
		p := rng.Intn(i)
		addEdge(p, i)
		hasChild[p] = true
	}
	// Sinks: childless states may drop their (nonexistent) out-edges. The
	// root always keeps at least one edge (n >= 2 gives it a child), so the
	// space never collapses to a single terminal init.
	var childless []int
	for i := 1; i < n; i++ {
		if !hasChild[i] {
			childless = append(childless, i)
		}
	}
	wantSinks := 0
	if cfg.MaxSinks > 0 && len(childless) > 0 {
		wantSinks = rng.Intn(min(cfg.MaxSinks, len(childless)) + 1)
	}
	for _, i := range rng.Perm(len(childless))[:wantSinks] {
		s := childless[i]
		fam.Sink[s] = true
		fam.Decided[s] = rng.Intn(2) == 1
	}
	// Childless states not planted as sinks get a fallback edge, keeping the
	// invariant that exactly the planted sinks are terminal.
	for _, s := range childless {
		if !fam.Sink[s] {
			addEdge(s, rng.Intn(n))
		}
	}
	// Extra edges (possibly cycles, possibly parallel to tree edges — the
	// distinct labels keep the multigraph deterministic): only non-sinks
	// may grow them, so planted sinks stay terminal.
	extra := rng.Intn(cfg.MaxExtra + 1)
	for k := 0; k < extra; k++ {
		from := rng.Intn(n)
		if fam.Sink[from] {
			continue // a dropped draw, not a retry: keeps generation O(extra)
		}
		addEdge(from, rng.Intn(n))
	}
	return fam
}

// computeTruth evaluates the closed-form planted counts.
func computeTruth(fams []Family) Truth {
	t := Truth{States: 1, Terminals: 1, Decided: 1, QuotientStates: 1, QuotientTerminals: 1, QuotientDecided: 1}
	for _, fam := range fams {
		sinks, decided := 0, 0
		for i := 0; i < fam.States; i++ {
			if fam.Sink[i] {
				sinks++
				if fam.Decided[i] {
					decided++
				}
			}
		}
		t.States *= pow(fam.States, fam.Mult)
		t.Terminals *= pow(sinks, fam.Mult)
		t.Decided *= pow(decided, fam.Mult)
		t.QuotientStates *= multisets(fam.States, fam.Mult)
		t.QuotientTerminals *= multisets(sinks, fam.Mult)
		t.QuotientDecided *= multisets(decided, fam.Mult)
	}
	return t
}

// chainTruth evaluates the chain topology's closed-form counts: the root
// plus lanes*depth lane states; one terminal per lane end, decided iff the
// depth is even (uniform across lanes, so decidedness is orbit-invariant
// under the lane symmetry); and a quotient that collapses every lane onto
// lane A.
func chainTruth(lanes, depth int) Truth {
	t := Truth{
		States:            1 + lanes*depth,
		Terminals:         lanes,
		QuotientStates:    1 + depth,
		QuotientTerminals: 1,
	}
	if depth%2 == 0 {
		t.Decided = lanes
		t.QuotientDecided = 1
	}
	return t
}

// pow is integer exponentiation (small operands by construction).
func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}

// multisets is C(n+k-1, k): the number of size-k multisets over n symbols.
func multisets(n, k int) int {
	if n == 0 {
		return 0
	}
	// C(n+k-1, k) computed multiplicatively; operands are small.
	num, den := 1, 1
	for i := 1; i <= k; i++ {
		num *= n - 1 + i
		den *= i
	}
	return num / den
}

// Components returns the number of components in the product.
func (sp *Space) Components() int { return len(sp.comp) }

// Init returns the single initial composite state: every component on its
// family's state 0 (or the chain root).
func (sp *Space) Init() string {
	if sp.depth > 0 {
		return chainRoot
	}
	b := make([]byte, len(sp.comp))
	for i := range b {
		b[i] = stateBase
	}
	return string(b)
}

// chainState renders lane l at position p.
func chainState(lane, pos int) string {
	return string(byte('A'+lane)) + ":" + strconv.Itoa(pos)
}

// chainPos decodes a lane state's position (s must not be the root).
func chainPos(s string) int {
	p, _ := strconv.Atoi(s[2:])
	return p
}

// Expand emits every enabled action of s: for each component, the out-edges
// of its current family state, with the component index as the actor. The
// emission order (components ascending, family edge order within) is fixed,
// so Expand is a pure deterministic function of s.
func (sp *Space) Expand(s string, emit func(to, label string, actor int)) {
	if sp.depth > 0 {
		if s == chainRoot {
			for l := 0; l < sp.lanes; l++ {
				emit(chainState(l, 1), "start", l)
			}
			return
		}
		if p := chainPos(s); p < sp.depth {
			emit(chainState(int(s[0]-'A'), p+1), "step", int(s[0]-'A'))
		}
		return
	}
	for i := 0; i < len(s); i++ {
		fam := sp.Families[sp.comp[i]]
		for _, e := range fam.Edges[s[i]-stateBase] {
			b := []byte(s)
			b[i] = stateBase + byte(e.To)
			emit(string(b), e.Label, i)
		}
	}
}

// Terminal reports whether composite state s is terminal (every component
// on a sink).
func (sp *Space) Terminal(s string) bool {
	if sp.depth > 0 {
		return s != chainRoot && chainPos(s) == sp.depth
	}
	for i := 0; i < len(s); i++ {
		if !sp.Families[sp.comp[i]].Sink[s[i]-stateBase] {
			return false
		}
	}
	return true
}

// DecidedState reports whether composite state s is a decided terminal
// (every component halted on a decided sink).
func (sp *Space) DecidedState(s string) bool {
	if sp.depth > 0 {
		return sp.Terminal(s) && sp.depth%2 == 0
	}
	for i := 0; i < len(s); i++ {
		if !sp.Families[sp.comp[i]].Decided[s[i]-stateBase] {
			return false
		}
	}
	return true
}

// Canon returns the sound symmetry canonicalizer: each family's block of
// the state string sorted ascending. Replicas of a family are identical
// and touch disjoint bytes, so every block permutation is an automorphism
// of the product; the sorted representative is idempotent and
// step-commuting by construction.
func (sp *Space) Canon() func(string) string {
	if sp.depth > 0 {
		// Lane symmetry: the lanes are identical chains, so relabeling any
		// lane state onto lane A picks one representative per orbit. The
		// root is alone in its orbit; idempotence and step-commutation are
		// immediate (every lane state has the single successor "one step
		// further on the same lane", which the relabeling commutes with).
		return func(s string) string {
			if s == chainRoot || s[0] == 'A' {
				return s
			}
			return "A" + s[1:]
		}
	}
	type block struct{ lo, hi int }
	var blocks []block
	for f, fam := range sp.Families {
		if fam.Mult > 1 {
			blocks = append(blocks, block{sp.blockStart[f], sp.blockStart[f] + fam.Mult})
		}
	}
	return func(s string) string {
		if len(blocks) == 0 {
			return s
		}
		b := []byte(s)
		for _, bl := range blocks {
			seg := b[bl.lo:bl.hi]
			sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
		}
		return string(b)
	}
}

// Independence returns the sound independence relation: two enabled actions
// commute iff they belong to distinct components. Distinct components
// rewrite disjoint bytes of the state, so the commuting diamond closes
// exactly, neither action can disable the other, and deferred components'
// enabled sets are invariant under other components' steps (the ample-set
// persistence condition holds with equality).
func (sp *Space) Independence() func(s string, aActor, bActor int) bool {
	if sp.depth > 0 {
		// No two chain actions commute: the only multi-enabled state is the
		// root, and taking one lane's start disables every other lane's
		// (the successor state has a single out-edge). The all-false
		// relation is the strongest sound one — POR degenerates to full
		// exploration, which still exercises the ample-set machinery on
		// the deep-narrow shape.
		return func(string, int, int) bool { return false }
	}
	return func(_ string, aActor, bActor int) bool {
		return aActor != bActor
	}
}

// Describe renders the space's shape and truth on one line, for divergence
// reports and the fuzz subcommand.
func (sp *Space) Describe() string {
	if sp.depth > 0 {
		return fmt.Sprintf("seed=%d chain[lanes=%d depth=%d] truth{states=%d terminals=%d decided=%d quotient=%d qterm=%d qdec=%d}",
			sp.Cfg.Seed, sp.lanes, sp.depth,
			sp.Truth.States, sp.Truth.Terminals, sp.Truth.Decided,
			sp.Truth.QuotientStates, sp.Truth.QuotientTerminals, sp.Truth.QuotientDecided)
	}
	var fams []string
	for _, fam := range sp.Families {
		edges, sinks := 0, 0
		for i := 0; i < fam.States; i++ {
			edges += len(fam.Edges[i])
			if fam.Sink[i] {
				sinks++
			}
		}
		fams = append(fams, fmt.Sprintf("%d states/%d edges/%d sinks x%d", fam.States, edges, sinks, fam.Mult))
	}
	return fmt.Sprintf("seed=%d [%s] truth{states=%d terminals=%d decided=%d quotient=%d qterm=%d qdec=%d}",
		sp.Cfg.Seed, strings.Join(fams, "; "),
		sp.Truth.States, sp.Truth.Terminals, sp.Truth.Decided,
		sp.Truth.QuotientStates, sp.Truth.QuotientTerminals, sp.Truth.QuotientDecided)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
