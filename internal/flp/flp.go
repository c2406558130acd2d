// Package flp mechanizes the bivalence technique of Fischer, Lynch and
// Paterson (§2.2.4): for an asynchronous message-passing consensus
// protocol, it explores the configuration graph (including up to one crash
// event, since the theorem is about 1-resilient protocols), computes the
// valence of every configuration, finds bivalent initial configurations
// and Herlihy-style decider configurations, and constructs the admissible
// non-deciding executions at the heart of the proof. For any concrete
// protocol the analyzer therefore exhibits at least one of the horns the
// theorem guarantees: a safety violation (disagreement or invalidity) or a
// liveness violation (a fair non-deciding execution or an undecided
// deadlock after a single crash).
package flp

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/store"
)

// Send is a message emitted by a protocol step.
type Send struct {
	// To is the destination process.
	To int
	// Payload is the message body.
	Payload string
}

// Protocol is a deterministic asynchronous message-passing protocol in the
// FLP style: every step is the receipt of one in-flight message, which
// updates the local state and emits messages. Initial messages are
// declared by AppendInitialSends.
//
// Configurations are packed into a fixed byte layout (DESIGN.md, "flp
// configuration encoding"), which puts three limits on a protocol:
//
//   - at most 16 processes;
//   - a fixed state width: every local state has the length of Init(0, 0),
//     for every process and input, and AppendStep keeps it;
//   - one-byte payloads other than 0x00, which marks the wake message.
//
// Analyze returns an error, and NewSystem panics, for a protocol whose Init
// breaks the first two; an expansion that meets a wrong width or payload
// panics.
//
// The transition functions are append-style, so the explorer's expansion
// allocates nothing per successor: AppendStep renders the successor local
// state into dst and appends the emitted messages to the reusable sends
// slice, returning both grown slices. Returned Send payloads must be
// immutable strings (constants or substrings of the inputs), never views
// over dst.
type Protocol interface {
	// Name identifies the protocol.
	Name() string
	// NumProcs returns the number of processes.
	NumProcs() int
	// Init returns process p's initial local state for an input value.
	Init(p, input int) string
	// AppendInitialSends appends the messages p emits before receiving
	// anything to sends.
	AppendInitialSends(p int, state string, sends []Send) []Send
	// AppendStep handles delivery of a message from a peer: it appends p's
	// new local state to dst and the emitted messages to sends.
	AppendStep(dst []byte, p int, state string, from int, payload string, sends []Send) ([]byte, []Send)
	// Decide reports p's decision, if any, from its state.
	Decide(p int, state string) (int, bool)
}

// config is a packed configuration (see layout).
type config = string

// maxProcs bounds NumProcs: a message record holds both endpoints in one
// byte.
const maxProcs = 16

// layout is the fixed byte layout of one protocol's configurations:
//
//	crash | state_0 … state_{n-1} | record_0 … record_{k-1}
//
// crash is the rank of the crash mask's decimal string among all 2^n masks
// (one byte for n ≤ 8, two big-endian bytes above), every state is w bytes
// wide, and each in-flight message is a two-byte record from<<4|to, payload
// with payload 0x00 for the wake message. Records are sorted as big-endian
// uint16s, and a multiset holds equal records side by side. For n ≤ 10 the
// bytes sort exactly as the decimal text encoding the package used before
// (DESIGN.md gives the argument), so explorations assign the same ids.
type layout struct {
	n, w int
	cw   int // width of the crash field
	hdr  int // cw + n*w: offset of the first message record
	*crashTable
}

// crashTable maps crash masks to ranks and back for one process count.
type crashTable struct {
	rank []uint16 // mask -> rank of strconv.Itoa(mask) among all masks
	mask []uint16 // rank -> mask
}

var crashTables [maxProcs + 1]struct {
	once sync.Once
	t    crashTable
}

// crashTableFor returns the shared crash table for n processes.
func crashTableFor(n int) *crashTable {
	e := &crashTables[n]
	e.once.Do(func() {
		dec := make([]string, 1<<n)
		masks := make([]uint16, 1<<n)
		for m := range masks {
			masks[m], dec[m] = uint16(m), strconv.Itoa(m)
		}
		sort.Slice(masks, func(i, j int) bool { return dec[masks[i]] < dec[masks[j]] })
		e.t.mask, e.t.rank = masks, make([]uint16, 1<<n)
		for r, m := range masks {
			e.t.rank[m] = uint16(r)
		}
	})
	return &e.t
}

// newLayout derives p's layout, or says which part of the Protocol contract
// p breaks.
func newLayout(p Protocol) (*layout, error) {
	n := p.NumProcs()
	if n < 1 || n > maxProcs {
		return nil, fmt.Errorf("flp: protocol %s has %d processes, outside 1..%d", p.Name(), n, maxProcs)
	}
	w := len(p.Init(0, 0))
	for q := 0; q < n; q++ {
		for in := 0; in <= 1; in++ {
			if got := len(p.Init(q, in)); got != w {
				return nil, fmt.Errorf("flp: protocol %s: Init(%d, %d) is %d bytes wide, Init(0, 0) %d", p.Name(), q, in, got, w)
			}
		}
	}
	cw := 1
	if n > 8 {
		cw = 2
	}
	return &layout{n: n, w: w, cw: cw, hdr: cw + n*w, crashTable: crashTableFor(n)}, nil
}

// mustLayout is newLayout for constructors without an error result.
func mustLayout(p Protocol) *layout {
	l, err := newLayout(p)
	if err != nil {
		panic(err.Error())
	}
	return l
}

// valid reports whether c is a configuration this layout can hold: a crash
// rank below 2^n, whole records after the states, endpoints below n, the
// wake payload only on a self-addressed record, records in sorted order.
func (l *layout) valid(c config) bool {
	if len(c) < l.hdr || (len(c)-l.hdr)%2 != 0 || l.crashRank(c) >= len(l.mask) {
		return false
	}
	prev := -1
	for i := l.hdr; i < len(c); i += 2 {
		from, to, rec := int(c[i]>>4), int(c[i]&15), int(c[i])<<8|int(c[i+1])
		if from >= l.n || to >= l.n || (c[i+1] == 0 && from != to) || rec < prev {
			return false
		}
		prev = rec
	}
	return true
}

// crashRank reads c's crash field.
func (l *layout) crashRank(c config) int {
	if l.cw == 2 {
		return int(c[0])<<8 | int(c[1])
	}
	return int(c[0])
}

// crashMask returns the crash mask of a valid configuration.
func (l *layout) crashMask(c config) int { return int(l.mask[l.crashRank(c)]) }

// appendCrash appends the crash field of mask.
func (l *layout) appendCrash(dst []byte, mask int) []byte {
	r := l.rank[mask]
	if l.cw == 2 {
		dst = append(dst, byte(r>>8))
	}
	return append(dst, byte(r))
}

// state returns process q's local state in c.
func (l *layout) state(c config, q int) string {
	o := l.cw + q*l.w
	return c[o : o+l.w]
}

// system adapts a Protocol to core.System: events are message deliveries
// (attributed to the receiving process) and — when resilience > 0 — crash
// events (attributed to the environment). A crashed process takes no
// further steps; messages addressed to it are silently absorbed.
type system struct {
	p            Protocol
	lay          *layout
	inputVectors [][]int
	resilience   int
}

var _ core.System[config] = (*system)(nil)

// The wake message is the self-addressed message whose delivery
// constitutes a process's first step (emitting its initial sends); its
// record carries payload 0x00. Crashing a process before its wake-up
// suppresses those sends entirely — without this, the adversary could never
// prevent a process's first broadcast, and the crash-resilience analysis
// would be vacuous.

func (s *system) initialFor(inputs []int) config {
	l := s.lay
	buf := l.appendCrash(make([]byte, 0, l.hdr+2*l.n), 0)
	for p := 0; p < l.n; p++ {
		buf = append(buf, s.p.Init(p, inputs[p])...)
	}
	for p := 0; p < l.n; p++ {
		buf = append(buf, byte(p<<4|p), 0)
	}
	return string(buf)
}

// Init implements core.System.
func (s *system) Init() []config {
	out := make([]config, 0, len(s.inputVectors))
	for _, in := range s.inputVectors {
		out = append(out, s.initialFor(in))
	}
	return out
}

func countBits(x int) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

// Report is the outcome of Analyze.
type Report struct {
	// Protocol names the analyzed protocol.
	Protocol string
	// States and Edges size the explored configuration graph.
	States, Edges int
	// HasBivalentInitial reports whether some initial configuration is
	// bivalent (the first FLP lemma predicts one for every correct
	// 1-resilient protocol).
	HasBivalentInitial bool
	// BivalentConfigs counts bivalent configurations.
	BivalentConfigs int
	// AgreementViolated reports a reachable configuration in which two
	// processes decided differently, with a witness execution.
	AgreementViolated bool
	AgreementWitness  core.Trace
	// ValidityViolated reports that, from the all-v input for some v, a
	// configuration in which some process decided a value other than v is
	// reachable.
	ValidityViolated bool
	// NondecidingLasso is a weakly-fair infinite execution confined to
	// undecided configurations, if one exists.
	NondecidingLasso *core.Lasso
	// UndecidedDeadlock is a reachable terminal undecided configuration
	// (typically: everyone waits for a crashed process), if one exists.
	UndecidedDeadlock core.Trace
	HasDeadlock       bool
	// DeciderFound reports a Herlihy-style decider configuration:
	// bivalent, with every successor univalent.
	DeciderFound bool
	// Lively is true when no liveness or safety horn was found — which
	// the FLP theorem says cannot happen for a nontrivial 1-resilient
	// protocol.
	Lively bool
	// Lossy reports that the exploration ran on a lossy visited-set backend
	// (bitstate): the configuration graph may undercount the reachable set,
	// so every universally-quantified verdict above is only "no violation
	// found among the states kept" — never evidence that the protocol is
	// lively. DescribeHorn renders the downgrade.
	Lossy bool
}

// AnalyzeOptions configures Analyze.
type AnalyzeOptions struct {
	// Resilience is the number of crash events the adversary may inject
	// (default 1, per the FLP setting). Set to 0 to analyze the
	// crash-free graph.
	Resilience *int
	// MaxStates bounds exploration.
	MaxStates int
	// Parallelism is the exploration worker count (0 = GOMAXPROCS). The
	// configuration graph is identical at any worker count.
	Parallelism int
	// Stats, when non-nil, receives the telemetry of the configuration-graph
	// exploration.
	Stats *engine.Stats
	// Canon, when non-nil, quotients the exploration by the given
	// configuration symmetry — see PermutationCanon. Only process-relabeling
	// symmetries are admissible here: the analysis evaluates per-value
	// predicates (validity pins the decided value), so a value-relabeling
	// canon would corrupt the verdicts even where it is sound. Counts in the
	// Report (States, Edges, BivalentConfigs) then describe the quotient
	// graph; the boolean verdicts are unchanged.
	Canon engine.Canonicalizer
	// VerifyCanon, when > 0, samples raw configurations (every one whose
	// fingerprint is ≡ 0 mod VerifyCanon; 1 = all) and fails the analysis
	// with engine.ErrCanonUnsound if Canon is not idempotent and
	// step-commuting on them.
	VerifyCanon int
	// CanonBytes, when non-nil, makes the byte-level twin of Canon, one
	// per worker, and the engine then canonicalizes with it on every
	// route, POR included — see PermutationCanonBytes and
	// engine.Options.CanonBytes. Requires Canon (Analyze fails without
	// it); VerifyCanon additionally cross-checks the two on sampled
	// configurations.
	CanonBytes func() engine.BytesCanonicalizer
	// VerifyAliasing, when > 0, enables the engine's buffer-aliasing
	// falsifier on the exploration (every configuration whose
	// fingerprint is ≡ 0 mod VerifyAliasing is re-expanded over poisoned
	// scratch; 1 = all) and fails the analysis with
	// engine.ErrAliasUnsound on divergence — see engine.Options.
	VerifyAliasing int
	// Independent, when non-nil, applies ample-set partial-order reduction
	// to the exploration under the given independence relation — see
	// DeliveryIndependence. The reduced graph preserves the boolean verdicts
	// (bivalence, agreement, validity, deadlock, fair lasso) but not
	// per-interleaving structure: States, Edges and BivalentConfigs then
	// describe the reduced graph, and DeciderFound — a property of the full
	// branching — is not meaningful under reduction.
	Independent engine.Independence
	// Visible marks the deliveries whose ordering the analyzer's predicates
	// observe, keeping them out of proper ample sets — see
	// DecisionVisibility. Only meaningful together with Independent.
	Visible engine.Visibility
	// VerifyPOR, when > 0, samples expanded configurations (every one whose
	// fingerprint is ≡ 0 mod VerifyPOR; 1 = all) and fails the analysis
	// with engine.ErrPORUnsound if a declared-independent pair of events
	// does not commute there.
	VerifyPOR int
	// Sink, when non-nil, streams the telemetry of the configuration-graph
	// exploration: a trace carries exactly one run, whose final snapshot
	// equals the exploration's Stats.
	Sink obs.Sink
	// SnapshotEvery is the timer-driven snapshot period (only meaningful
	// with Sink; zero = engine.DefaultSnapshotEvery, negative = barrier
	// events only).
	SnapshotEvery time.Duration
	// Store selects the visited-set backend of the exploration. A lossy
	// backend sets Report.Lossy and downgrades the verdicts — see
	// Report.Lossy. See store.Config.
	Store store.Config
}

// NewSystem exposes a protocol's configuration graph (canonical encoded
// configurations, crash events included when resilience > 0) as a
// core.System, for direct exploration by the determinism tests and the
// exploration benchmarks. A nil inputVectors means all binary input
// assignments. It panics for a protocol that breaks the Protocol contract.
func NewSystem(p Protocol, inputVectors [][]int, resilience int) core.System[string] {
	if len(inputVectors) == 0 {
		inputVectors = allBinaryVectors(p.NumProcs())
	}
	return &system{p: p, lay: mustLayout(p), inputVectors: inputVectors, resilience: resilience}
}

// Analyze explores the protocol's configuration graph once and runs the
// full bivalence analysis on it: valence, agreement, validity and both
// liveness horns all read one decision column of that graph.
func Analyze(p Protocol, opts AnalyzeOptions) (Report, error) {
	l, err := newLayout(p)
	if err != nil {
		return Report{}, err
	}
	n := l.n
	resilience := 1
	if opts.Resilience != nil {
		resilience = *opts.Resilience
	}
	sys := &system{p: p, lay: l, inputVectors: allBinaryVectors(n), resilience: resilience}
	g, err := core.Explore[config](sys, engine.Options{
		MaxStates: opts.MaxStates, Parallelism: opts.Parallelism, Stats: opts.Stats,
		Canon: opts.Canon, VerifyCanon: opts.VerifyCanon, CanonBytes: opts.CanonBytes,
		Independent: opts.Independent, Visible: opts.Visible, VerifyPOR: opts.VerifyPOR,
		VerifyAliasing: opts.VerifyAliasing, Sink: opts.Sink,
		SnapshotEvery: opts.SnapshotEvery, Store: opts.Store,
	})
	if err != nil {
		return Report{}, fmt.Errorf("flp: exploring %s: %w", p.Name(), err)
	}
	rep := Report{Protocol: p.Name(), States: g.Len(), Edges: g.NumEdges(), Lossy: opts.Store.Lossy()}

	// The decision column, read off each configuration's process states
	// (the in-flight multiset never bears on a decision).
	dec := make([]int8, g.Len())
	for i := range dec {
		dec[i] = undecided
		c := g.State(i)
		for q := 0; q < n; q++ {
			v, ok := p.Decide(q, l.state(c, q))
			switch {
			case !ok:
			case v != 0 && v != 1:
				return rep, fmt.Errorf("flp: %s: process %d decides %d, not a binary value", p.Name(), q, v)
			case dec[i] == undecided:
				dec[i] = int8(v)
			case int8(v) != dec[i]&1:
				dec[i] |= conflict
			}
		}
	}

	val, err := g.Valence(func(i int) (int, bool) { return int(dec[i] & 1), dec[i] != undecided })
	if err != nil {
		return rep, fmt.Errorf("flp: valence of %s: %w", p.Name(), err)
	}
	_, rep.HasBivalentInitial = g.BivalentInitial(val)
	for i := 0; i < g.Len(); i++ {
		if val.IsBivalent(i) {
			rep.BivalentConfigs++
		}
	}
	_, rep.DeciderFound = g.Decider(val)

	// Agreement: no reachable configuration with contradictory decisions.
	for i, d := range dec {
		if d >= conflict {
			rep.AgreementViolated = true
			rep.AgreementWitness = g.PathTo(i)
			break
		}
	}

	// Validity (binary inputs): from the all-v input no process decides
	// anything but v. That input's initial configuration is one of the
	// graph's initials, so this is reachability from it. Under Canon the
	// initial is its own representative: a uniform input is a fixed point
	// of every process relabeling. Under POR the part of the reduced graph
	// reached from it is a reduction for that initial alone (its cycles are
	// cycles of the whole graph, so they met the cycle proviso), and
	// DecisionVisibility keeps the decisions read here visible.
	inits := g.Initials()
	// The all-0 and all-1 inputs are the first and last binary vectors.
	for v, in := range [][]int{sys.inputVectors[0], sys.inputVectors[len(sys.inputVectors)-1]} {
		c := sys.initialFor(in)
		if opts.Canon != nil {
			c = opts.Canon(c)
		}
		k := slices.IndexFunc(inits, func(i int) bool { return g.State(i) == c })
		if k < 0 {
			if rep.Lossy {
				continue // a lossy store may have merged it away
			}
			return rep, fmt.Errorf("flp: %s: the all-%d initial configuration is not among the graph's initials", p.Name(), v)
		}
		for i, r := range g.ReachableWithin(inits[k:k+1], func(int) bool { return true }) {
			if r && dec[i] != undecided && dec[i] != int8(v) {
				rep.ValidityViolated = true
			}
		}
	}

	// Liveness horns: a fair undecided lasso, or an undecided deadlock.
	isUndecided := func(i int) bool { return dec[i] == undecided }
	if lasso, ok := g.FairLassoWithin(isUndecided, core.WeakFairness, n); ok {
		rep.NondecidingLasso = &lasso
	}
	for _, i := range g.Terminals() {
		if isUndecided(i) {
			rep.HasDeadlock = true
			rep.UndecidedDeadlock = g.PathTo(i)
			break
		}
	}
	rep.Lively = !rep.AgreementViolated && !rep.ValidityViolated &&
		rep.NondecidingLasso == nil && !rep.HasDeadlock
	return rep, nil
}

// A decision column entry is undecided, a value v (0 or 1) on which every
// decided process agrees, or v|conflict when some process decided 1-v
// after the first decider chose v.
const undecided, conflict int8 = -1, 2

func allBinaryVectors(n int) [][]int {
	out := make([][]int, 0, 1<<uint(n))
	for mask := 0; mask < 1<<uint(n); mask++ {
		v := make([]int, n)
		for i := 0; i < n; i++ {
			v[i] = (mask >> uint(i)) & 1
		}
		out = append(out, v)
	}
	return out
}
