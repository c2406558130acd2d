// Package engine is the parallel reachability-exploration subsystem
// underneath every proof-technique checker in the library. It executes the
// unified model the paper calls for (§3.6, §4.4) at scale: a worker-pool
// breadth-first exploration over a fingerprint-sharded visited set, followed
// by a sequential canonicalization pass that renumbers the discovered graph
// into exactly the order a single-threaded BFS would have produced.
//
// The determinism guarantee is the load-bearing property: the returned
// Result — state numbering, edge order, BFS parent tree, initial-state ids —
// is byte-identical to a sequential exploration of the same system,
// regardless of worker count or interleaving. Every downstream analysis
// (valence, deciders, fair lassos, counterexample traces) is therefore
// reproducible across runs and across machines.
//
// A state is a string: every system encodes its configurations as byte
// strings, so the engine fingerprints, compares and stores a state as its
// bytes, and a successor emitted as bytes (Ctx.EmitBytes) is never
// materialized on a dedup hit.
//
// The package deliberately does not import internal/core: core hands its
// System's ExpandInto to Explore as the ExpandFunc and adopts the Result
// into a core.Graph, so the engine stays independently testable (notably
// under -race) and free of import cycles.
//
// Correctness of the two-phase design rests on a BFS invariant: the set of
// states at distance d from the initial states is a function of the system
// alone, not of scheduling. The parallel phase explores whole levels at a
// time, so after every level barrier it has discovered exactly the states a
// sequential BFS would have discovered by the end of that level; the replay
// pass then re-walks the recorded successor lists in canonical order without
// ever calling back into the system.
package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/store"
)

// ErrStateLimit is returned by Explore when the reachable state space
// exceeds the configured bound. The partial Result accompanying it is still
// valid — and still canonical: it is exactly the partial graph a sequential
// BFS would have built when it hit the same bound.
var ErrStateLimit = errors.New("engine: state limit exceeded during exploration")

// ErrNoInitialStates is returned when the system declares no initial states.
var ErrNoInitialStates = errors.New("engine: system has no initial states")

// ErrEdgeOverflow is returned when the explored graph has more transitions
// than the engine's 32-bit layout addresses: a worker arena past the chunks
// a span can locate, or more than math.MaxInt32 edges in all.
var ErrEdgeOverflow = errors.New("engine: edge count overflows the graph's 32-bit edge indices")

// DefaultMaxStates bounds exploration when Options.MaxStates is zero.
const DefaultMaxStates = 2_000_000

// ExpandFunc enumerates the successors of s by calling x.Emit (or
// x.EmitBytes) once per outgoing transition, in a deterministic order. It
// must be safe to call concurrently from multiple goroutines — each call
// gets its worker's private Ctx — and must be a pure function of s: the
// determinism guarantee (and the visited-set dedup) are both built on
// "same state in, same transitions out". The Ctx (and its scratch
// buffers) is valid only for the duration of the call; see Ctx for the
// buffer-ownership contract.
type ExpandFunc func(s string, x *Ctx)

// Options configure an exploration.
type Options struct {
	// MaxStates caps the number of distinct states explored. Zero means
	// DefaultMaxStates.
	MaxStates int
	// Parallelism is the worker count. Zero (or negative) means
	// runtime.GOMAXPROCS(0). One worker still runs the full two-phase
	// pipeline and produces the same canonical Result.
	Parallelism int
	// Stats, when non-nil, receives a copy of the exploration telemetry
	// (also available as Result.Stats).
	Stats *Stats
	// Canon, when non-nil, maps every generated state to its orbit
	// representative before fingerprinting/interning, so the engine
	// explores the symmetry quotient instead of the full space. See
	// Canonicalizer for the soundness contract.
	Canon Canonicalizer
	// VerifyCanon enables the canonicalizer safety check: every raw
	// (pre-canonicalization) state whose fingerprint is ≡ 0 mod VerifyCanon
	// is checked for idempotence and step-commutation, and Explore fails
	// with ErrCanonUnsound on a violation. 1 checks every state; 0 disables
	// the check. Sampling is by state fingerprint, so which states are
	// checked is independent of scheduling and worker count.
	VerifyCanon int
	// Independent, when non-nil, makes the engine perform ample-set
	// partial-order reduction, expanding at each state only a
	// dependence-closed proper subset of the enabled actions when one
	// exists and the cycle proviso permits it. See Independence for the
	// soundness contract. Composes with Canon: the ample set is selected
	// among the canonicalized successors of each orbit representative.
	Independent Independence
	// Visible, when non-nil, marks actions that are never placed in a
	// proper ample set (they may still be deferred). Only meaningful
	// together with Independent. See Visibility for the contract.
	Visible Visibility
	// VerifyPOR enables the independence safety check: at every expanded
	// state whose fingerprint is ≡ 0 mod VerifyPOR, each pair of enabled
	// actions the relation declares independent is re-executed in both
	// orders, and Explore fails with ErrPORUnsound if either order is
	// disabled or the diamond lands in different states. 1 checks every
	// state; 0 disables the check. Sampling is by state fingerprint, so
	// which states are checked is independent of scheduling and worker
	// count.
	VerifyPOR int
	// CanonBytes, when non-nil, makes the byte-level twin of Canon: a
	// factory called once per worker, so stateful scratch canonicalizers
	// stay single-threaded. The BytesCanonicalizer it returns is the one
	// canon step on every route — EmitBytes, Emit, the POR action
	// collection and the initial states — and the string Canon runs only
	// inside the sampled checks. It must agree with Canon exactly — see
	// BytesCanonicalizer for the contract; VerifyCanon cross-checks the
	// two on sampled states. Requires Canon.
	CanonBytes func() BytesCanonicalizer
	// VerifyAliasing enables the buffer-aliasing falsifier for the revised
	// expand API: every expanded state whose fingerprint is ≡ 0 mod
	// VerifyAliasing is re-expanded after the engine poisons the reusable
	// scratch buffer with 0xDB bytes, and Explore fails with
	// ErrAliasUnsound if the two emission sequences differ — which is what
	// happens when a system illegally retains emitted slices or scratch
	// contents across expansions (or is simply not a pure function of its
	// state). 1 checks every state; 0 disables the check. Sampling is by
	// state fingerprint, so it is independent of scheduling and worker
	// count.
	VerifyAliasing int
	// Sink, when non-nil, receives the run's streaming telemetry: a
	// run_start event, one level event per BFS barrier, timer-driven
	// progress snapshots, a truncated event when the state limit trips,
	// and a run_end event whose final snapshot totals equal the returned
	// Stats. Observation is passive — the Result is byte-identical with
	// and without a sink, at any worker count — and a nil Sink costs one
	// branch (no telemetry code runs at all). Publish is called from the
	// coordinator and from one monitor goroutine; see obs.Sink for the
	// concurrency and ownership contract.
	Sink obs.Sink
	// SnapshotEvery is the period of the timer-driven snapshots (only
	// meaningful with a Sink). Zero selects DefaultSnapshotEvery;
	// negative disables periodic snapshots, leaving the deterministic
	// barrier events.
	SnapshotEvery time.Duration
	// Store selects and parameterizes the visited-set backend (the zero
	// value is the RAM-resident sharded map the engine always had). The
	// mem and spill backends preserve the determinism contract bit for
	// bit; the bitstate backend is lossy and taints the run's Stats with
	// Lossy=true. See internal/store.
	Store store.Config

	// degradeFingerprint collapses the state fingerprint to two bits,
	// forcing heavy shard collisions. Test-only: it exercises the
	// full-state confirmation path that rules out fingerprint collisions.
	degradeFingerprint bool
	// maxEdges, when positive, lowers the edge-count bound replay enforces.
	// Test-only: it exercises the ErrEdgeOverflow path without four
	// billion edges.
	maxEdges int
}

// Edge is one transition out of the state whose row holds it: To is the
// successor's id, Actor the acting process, and Label a label id. A worker
// records it with provisional ids, To from the store and Label from its own
// label table (worker.labels); replay rewrites each row in place, once, to
// the canonical To and the Result.Labels index. It holds no pointers, so
// the garbage collector never scans an edge chunk.
type Edge struct {
	To, Actor int32
	Label     uint32
}

// Result is the canonicalized exploration outcome. Ids are dense from 0 in
// sequential-BFS discovery order. The graph is stored once: every row stays
// in the arena chunk its worker recorded it in, rewritten in place by
// replay, and Row(i) locates state i's transitions, in expansion order.
type Result struct {
	// States maps canonical id to state.
	States []string
	// Inits are the canonical ids of the (deduplicated) initial states, in
	// declaration order.
	Inits []int
	// Labels is the label table Edge.Label indexes. Ids are assigned on
	// first sight in canonical edge order, so the table is the same at any
	// worker count.
	Labels []string
	// Parents[i] is the canonical id of the state that first reached state
	// i in BFS order; -1 for initial states.
	Parents []int32
	// ParentEdges[i] is the index, within the row of Parents[i], of the
	// transition by which it first reached i; -1 for initial states.
	ParentEdges []int32
	// Truncated reports that the state limit cut the exploration short.
	Truncated bool
	// Stats is the exploration telemetry.
	Stats Stats

	// rows locates every row; expanded counts the states that have one (on
	// a complete Result every state, on a truncated one the states before
	// the one whose expansion the limit cut off) and numEdges their edges.
	rows     rowTable
	expanded int
	numEdges int
}

// Row returns the outgoing transitions of state i, or nil when i has no
// row (its expansion was cut off on a truncated Result). The slice aliases
// the Result's storage and must not be modified.
func (r *Result) Row(i int) []Edge {
	if i >= r.expanded {
		return nil
	}
	return r.rows.row(i)
}

// Expanded returns the number of states with a row: ids [0, Expanded())
// were expanded, and on a truncated Result the ones from Expanded() on had
// their expansion cut off by the state limit.
func (r *Result) Expanded() int { return r.expanded }

// NumEdges returns the number of transitions in the expanded rows.
func (r *Result) NumEdges() int { return r.numEdges }

// ParentEdge returns the transition by which Parents[i] first reached
// state i; i must not be an initial state. On a truncated Result the
// parent may be the state whose expansion was cut off: its row is kept up
// to the transition that discovered the state past the limit.
func (r *Result) ParentEdge(i int) Edge {
	return r.rows.row(int(r.Parents[i]))[r.ParentEdges[i]]
}

// graphBytes is the memory the graph layout holds: the edge chunks, the
// row table, the label table and the parent tree. State payloads are
// excluded.
func (r *Result) graphBytes() int64 {
	b := r.rows.bytes() + int64(cap(r.Parents))*4 + int64(cap(r.ParentEdges))*4 +
		int64(cap(r.Labels))*int64(unsafe.Sizeof(""))
	for _, l := range r.Labels {
		b += int64(len(l))
	}
	return b
}

// span locates one state's recorded successors inside its expanding
// worker's arena: loc packs the chunk index above the worker (the low
// explorer.wbits bits), and the row is n edges from off in that chunk.
// Like Edge it holds no pointers; the arena checks the packed limits
// (ErrEdgeOverflow), so loc never wraps.
type span struct {
	loc int32
	off int32
	n   int32
}

// worker holds one worker's private exploration storage. arena is only
// ever touched by its owner during a level and by the coordinator between
// levels, so none of it needs locking.
type worker struct {
	// arena accumulates the rows of the states this worker expands.
	arena edgeArena
	// labels is the worker's label table, which the Label of every edge it
	// records indexes, and labelIDs its inverse. Replay maps these worker-local ids onto the
	// canonical Result.Labels.
	labels   []string
	labelIDs map[string]uint32
	// steps counts states expanded by this worker over the whole run. It
	// is atomic — single-writer (the owner), read live by the telemetry
	// monitor goroutine for per-worker utilization snapshots.
	steps atomic.Uint64
	// dedup counts successor generations that hit an already-known state.
	dedup uint64
	// rawSeen fingerprints the raw (pre-canonicalization) states this worker
	// generated; the per-worker sets are unioned into Stats.RawStates. Nil
	// unless a canonicalizer is installed.
	rawSeen map[uint64]struct{}
	// canonHits counts generated states the canonicalizer remapped to a
	// different representative.
	canonHits uint64
	// acts and uf are scratch buffers for the POR path: the collected
	// actions of the state being expanded and the union-find array over
	// them.
	acts []porAction
	uf   []int32
	// ampleStates counts expansions where a proper ample subset was taken;
	// deferred counts the enabled actions those expansions skipped.
	ampleStates uint64
	deferred    uint64
	// ctx is the worker's reusable expansion context; the same pointer is
	// handed to every ExpandFunc call this worker makes.
	ctx Ctx
	// canonB and canonBuf are the worker's byte-level canonicalizer
	// instance and its output buffer, and rawBuf the input buffer
	// canonicalize copies a string successor into; nil without CanonBytes.
	canonB           BytesCanonicalizer
	canonBuf, rawBuf []byte
	// canonMemo caches, per distinct raw successor encoding, the interned
	// id its canonicalization produced, plus whether it was remapped (so
	// canonHits stays exact). It serves EmitBytes' direct path only: the
	// other routes need the representative state itself, not its id, and
	// the POR route's raw successors are mostly distinct (a raw→rep memo
	// there measured no gain). Quotient exploration re-generates the same
	// raw successors constantly — orbit factor × branch factor times each —
	// and a hit replaces the full canonicalization (n! candidate renders
	// for the permutation canon) with one map probe. The cache is exact:
	// within a run, equal raw bytes canonicalize to equal bytes and
	// re-interning returns the same id, so a hit is extensionally identical
	// to re-running the pipeline. Per-worker, so no synchronization; capped
	// at canonMemoCap entries and cleared when full.
	canonMemo map[string]canonMemoEntry
	// aliasGot and aliasWant are the VerifyAliasing comparison buffers.
	aliasGot, aliasWant []aliasEdge
	// prof is the worker's phase-attribution profile; nil when profiling
	// is off (no Stats out-param and no Sink). profSampling marks the
	// current expansion as fine-sampled: the timed sections (canonicalize,
	// EmitBytes' canon/memo step, intern) read the clock only while it is
	// set. It is never set on an unprofiled worker, so with profiling off
	// each timed section pays one predictable branch and no clock read.
	// See profile.go.
	prof         *phaseProf
	profSampling bool
}

// canonMemoEntry is one canonMemo cache line.
type canonMemoEntry struct {
	id       int32
	remapped bool
}

// canonMemoCap bounds each worker's canon memo (roughly 100 bytes/entry
// for short encodings). Exceeding it drops the whole cache — correctness
// is unaffected, the next occurrences just re-pay the canonicalization.
const canonMemoCap = 1 << 18

// explorer is the shared state of one Explore run.
type explorer struct {
	expand ExpandFunc
	// store is the visited set: the fingerprint-sharded id assignment and
	// the id -> payload table, whose kind (RAM-resident, disk-spilling, or
	// lossy bitstate sweep) is a policy of the one store.Store. fp is the
	// one state fingerprint: the store shards by it, EmitBytes hashes its
	// successors' bytes with it, and the sampled soundness checks pick
	// states by it.
	store *store.Store
	fp    func(string) uint64

	// canon, when non-nil, maps every generated state to its orbit
	// representative before interning. verifyMod != 0 samples raw states
	// (by fingerprint) for the soundness check.
	canon     Canonicalizer
	verifyMod uint64

	// bytesDirect gates the EmitBytes direct path on CanonBytes whenever
	// a canonicalizer is installed, so the bytes and string paths can
	// never disagree silently.
	bytesDirect bool

	// aliasMod != 0 samples expanded states (by fingerprint) for the
	// buffer-aliasing falsifier.
	aliasMod uint64

	// indep, when non-nil, switches expansion to the partial-order-reduced
	// path. porVerifyMod != 0 samples expanded states (by fingerprint) for
	// the commuting-diamond check.
	indep        Independence
	visible      Visibility
	porVerifyMod uint64

	// tel, when non-nil, is the run's streaming-telemetry state (see
	// telemetry.go). Every use is nil-guarded: with no sink installed the
	// engine pays one branch per barrier and nothing per state.
	tel *telemetry

	// The first canon/POR safety-check failure lands in verifyErr and
	// surfaces deterministically at the next level barrier.
	verifyMu  sync.Mutex
	verifyErr error

	// spans is indexed by provisional id. It grows only between level
	// barriers; during a level, workers write spans at the distinct ids
	// they own. (The id -> state payloads live in the store.) wbits is the
	// width of span.loc's worker field.
	spans spanTable
	wbits uint

	// profStoreIO and profReplay are the coordinator-only phase counters
	// (store maintenance between levels, the sequential replay pass);
	// per-worker phases live in each worker's prof. See profile.go.
	profStoreIO atomic.Int64
	profReplay  atomic.Int64

	workers []*worker
}

// canonicalize maps raw to its orbit representative, recording the raw
// fingerprint and remap count in ws and running the sampled soundness check.
// Callers guard on e.canon != nil to keep the no-symmetry path branch-cheap.
// It is the timed canon section of the Emit and POR routes and of the
// initial states. Under CanonBytes the raw string is copied into the
// worker's rawBuf and goes through canonBytes, so the string form runs
// only inside sampled checks; the representative is materialized only
// when it differs from raw.
func (e *explorer) canonicalize(raw string, ws *worker) string {
	t := ws.clock()
	h := e.fp(raw)
	if ws.canonB != nil {
		ws.rawBuf = append(ws.rawBuf[:0], raw...)
		if rep, remapped := e.canonBytes(ws, ws.rawBuf, h); remapped {
			raw = string(rep)
		}
		ws.lap(sampleCanon, t)
		return raw
	}
	ws.rawSeen[h] = struct{}{}
	// Fixed points are trivially idempotent and step-commuting, so the
	// soundness check has nothing to test there.
	if rep := e.canon(raw); rep != raw {
		ws.canonHits++
		if e.verifyMod != 0 && h%e.verifyMod == 0 {
			if err := e.checkCanon(raw); err != nil {
				e.noteVerifyErr(err)
			}
		}
		raw = rep
	}
	ws.lap(sampleCanon, t)
	return raw
}

// canonBytes is the one byte canon step, shared by
// EmitBytes' direct path and canonicalize: it records raw's fingerprint h
// in rawSeen, canonicalizes raw with the worker's byte canonicalizer and,
// when that remaps it, counts the hit and runs the sampled check. It
// returns raw itself when raw is its own representative, else the
// representative in ws.canonBuf (valid until the worker's next call).
func (e *explorer) canonBytes(ws *worker, raw []byte, h uint64) (rep []byte, remapped bool) {
	ws.rawSeen[h] = struct{}{}
	rep = ws.canonB(ws.canonBuf[:0], raw)
	ws.canonBuf = rep
	if bytes.Equal(rep, raw) {
		return raw, false
	}
	ws.canonHits++
	// Fixed points are trivially idempotent and step-commuting, and a
	// byte-identical representative trivially agrees with the string
	// canonicalizer, so the sampled check only runs on remapped states.
	if e.verifyMod != 0 && h%e.verifyMod == 0 {
		e.checkCanonBytes(raw, rep)
	}
	return rep, true
}

// intern interns one canonical successor and records its edge in the
// worker's arena: the timed hash+intern section of the Emit and POR
// routes.
func (e *explorer) intern(ws *worker, to, label string, actor int) {
	t := ws.clock()
	tid, fresh := e.store.Intern(to)
	ws.lap(sampleIntern, t)
	ws.record(tid, fresh, label, actor)
}

// record appends one interned successor's edge to the worker's arena,
// counting a dedup hit when the successor was already known.
func (ws *worker) record(tid int32, fresh bool, label string, actor int) {
	if !fresh {
		ws.dedup++
	}
	ws.arena.add(Edge{To: tid, Actor: int32(actor), Label: ws.labelID(label)})
}

// labelID returns label's index in the worker's label table, adding it on
// first sight.
func (ws *worker) labelID(label string) uint32 {
	if id, ok := ws.labelIDs[label]; ok {
		return id
	}
	if ws.labelIDs == nil {
		ws.labelIDs = make(map[string]uint32)
	}
	id := uint32(len(ws.labels))
	ws.labelIDs[label] = id
	ws.labels = append(ws.labels, label)
	return id
}

// expandRange expands provisional ids [lo, hi) claimed in chunks from
// cursor, writing successors into worker w's arena. It is the engine's
// one expand loop: chunk claiming, the level's expand-phase clock, the
// 1-in-64 fine sample, span and step bookkeeping and the sampled
// aliasing check live here, and each state goes through one per-state
// step — e.expand straight into the arena, or expandPOR when an
// independence relation is installed.
func (e *explorer) expandRange(w int32, cursor *atomic.Int64, hi int, chunk int) {
	ws := e.workers[w]
	x := &ws.ctx
	var collect func(to, label string, actor int)
	if e.indep != nil {
		collect = func(to, label string, actor int) {
			pa := porAction{act: Action{To: to, Label: label, Actor: actor}, to: to}
			if e.canon != nil {
				pa.to = e.canonicalize(to, ws)
			}
			ws.acts = append(ws.acts, pa)
		}
	}
	prof := ws.prof
	if prof != nil {
		// One clock read per level entry/exit: all in-level time (expansion
		// plus chunk claiming and span bookkeeping) is the expand phase.
		prof.start()
		defer prof.flush()
	}
	for {
		lo := int(cursor.Add(int64(chunk))) - chunk
		if lo >= hi {
			return
		}
		end := lo + chunk
		if end > hi {
			end = hi
		}
		for id := lo; id < end; id++ {
			ws.arena.beginRow()
			s := e.store.State(int32(id))
			var t time.Time
			if prof != nil && id&profSampleMask == 0 {
				ws.profSampling = true
				t = time.Now()
			}
			if collect != nil {
				e.expandPOR(s, ws, collect, hi)
			} else {
				e.expand(s, x)
			}
			if ws.profSampling {
				prof.noteSample(time.Since(t))
				ws.profSampling = false
			}
			if ws.arena.err != nil {
				return
			}
			sp := ws.arena.endRow(w, e.wbits)
			*e.spans.at(int32(id)) = sp
			ws.steps.Add(1)
			if e.aliasMod != 0 && e.fp(s)%e.aliasMod == 0 {
				e.checkAliasing(s, ws, sp)
			}
		}
	}
}

// expandPOR is the partial-order-reduced per-state step: instead of
// interning successors as they are emitted, it first collects the full
// enabled-action set of s into ws.acts (collect canonicalizes each
// successor), asks ampleSet for a sufficient proper subset, and interns
// only the selected actions (in emission order, so the reduced graph is
// as deterministic as the full one). States where no proper ample set
// exists — or where the cycle proviso vetoes every candidate — are
// expanded fully.
func (e *explorer) expandPOR(s string, ws *worker, collect func(string, string, int), hi int) {
	x := &ws.ctx
	ws.acts = ws.acts[:0]
	x.sink = collect
	e.expand(s, x)
	x.sink = nil
	acts := ws.acts
	if e.porVerifyMod != 0 && e.fp(s)%e.porVerifyMod == 0 {
		if err := e.checkPOR(s, acts); err != nil {
			e.noteVerifyErr(err)
		}
	}
	var ample []int32
	if len(acts) > 1 {
		ws.uf = slices.Grow(ws.uf[:0], len(acts))[:len(acts)]
		ample = e.ampleSet(s, acts, ws.uf, hi)
	}
	if ample == nil {
		for _, pa := range acts {
			e.intern(ws, pa.to, pa.act.Label, pa.act.Actor)
		}
		return
	}
	ws.ampleStates++
	ws.deferred += uint64(len(acts) - len(ample))
	for _, m := range ample {
		e.intern(ws, acts[m].to, acts[m].act.Label, acts[m].act.Actor)
	}
}

// Explore runs the two-phase parallel BFS: inits are the initial states (in
// declaration order, duplicates tolerated) and expand enumerates
// successors. See ExpandFunc for the purity and concurrency requirements.
//
// On success the Result is canonical: identical to a sequential BFS at any
// Parallelism. When the state space exceeds Options.MaxStates, Explore
// returns the canonical partial Result alongside ErrStateLimit (wrapped).
func Explore(inits []string, expand ExpandFunc, opts Options) (*Result, error) {
	start := time.Now()
	limit := opts.MaxStates
	if limit <= 0 {
		limit = DefaultMaxStates
	}
	if limit > math.MaxInt32-2 {
		limit = math.MaxInt32 - 2
	}
	nw := opts.Parallelism
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}

	e := &explorer{expand: expand, fp: fingerprint}
	if opts.degradeFingerprint {
		e.fp = func(s string) uint64 { return fingerprint(s) & 3 }
	}
	e.canon = opts.Canon
	if e.canon != nil && opts.VerifyCanon > 0 {
		e.verifyMod = uint64(opts.VerifyCanon)
	}
	e.indep = opts.Independent
	if e.indep != nil && opts.VerifyPOR > 0 {
		e.porVerifyMod = uint64(opts.VerifyPOR)
	}
	e.visible = opts.Visible
	if opts.CanonBytes != nil && e.canon == nil {
		return nil, errors.New("engine: Options.CanonBytes requires Options.Canon (the string canonicalizer defines the quotient)")
	}
	if opts.VerifyAliasing > 0 {
		e.aliasMod = uint64(opts.VerifyAliasing)
	}
	var err error
	e.store, err = store.New(opts.Store, shardCount(nw), e.fp)
	if err != nil {
		return nil, err
	}
	defer e.store.Close()
	// Under a canonicalizer without its byte form, EmitBytes degrades to
	// the materializing fallback, never to wrong behavior.
	e.bytesDirect = e.canon == nil || opts.CanonBytes != nil

	e.workers = make([]*worker, nw)
	e.wbits = workerBits(nw)
	for i := range e.workers {
		ws := &worker{arena: edgeArena{lastChunk: math.MaxInt32 >> e.wbits}}
		if e.canon != nil {
			ws.rawSeen = make(map[uint64]struct{})
		}
		if opts.CanonBytes != nil {
			ws.canonB = opts.CanonBytes()
		}
		ws.ctx = Ctx{e: e, w: ws}
		e.workers[i] = ws
	}
	// Phase profiling is on whenever the caller can observe the result.
	// The passive-observation rule extends to it: profiles are pure
	// timing, excluded from digests and diffStats, so results stay
	// byte-identical with profiling on or off, at any worker count.
	if opts.Stats != nil || opts.Sink != nil {
		for _, ws := range e.workers {
			ws.prof = &phaseProf{}
		}
	}

	// Intern initial states sequentially: their provisional ids coincide
	// with their canonical ones, and duplicates collapse exactly as in a
	// sequential exploration.
	var initIDs []int32
	for _, s := range inits {
		if e.canon != nil {
			s = e.canonicalize(s, e.workers[0])
		}
		if id, fresh := e.store.Intern(s); fresh {
			initIDs = append(initIDs, id)
		}
	}
	if len(initIDs) == 0 {
		return nil, ErrNoInitialStates
	}
	if e.verifyErr != nil {
		return nil, e.verifyErr
	}

	if opts.Sink != nil {
		e.tel = newTelemetry(e, opts.Sink, start, limit, len(initIDs), opts.Store)
		every := opts.SnapshotEvery
		if every == 0 {
			every = DefaultSnapshotEvery
		}
		e.tel.startMonitor(every)
		// The deferred stop covers the error returns below; the success
		// path stops the monitor again (idempotently) inside runEnd, so
		// that no timer event can trail the final run_end.
		defer e.tel.stopMonitor()
	}

	// Parallel phase: expand whole BFS levels between barriers. The level
	// granularity is what keeps truncation canonical — if the state count
	// crosses the limit, every state a sequential BFS would have
	// expanded before failing has already been expanded here (the
	// overshoot is at most one level of successors).
	var st Stats
	st.Workers = nw
	lo, hi := 0, e.store.Len()
	e.spans.grow(hi)
	var cursor atomic.Int64
	for lo < hi {
		frontier := hi - lo
		if frontier > st.PeakFrontier {
			st.PeakFrontier = frontier
		}
		st.Depth++
		cursor.Store(int64(lo))
		chunk := frontier/(nw*4) + 1
		// Small frontiers are not worth a fan-out: per-level goroutine and
		// barrier costs would dominate on deep, narrow graphs (chains).
		if nw == 1 || frontier < nw*16 {
			e.expandRange(0, &cursor, hi, chunk)
		} else {
			var wg sync.WaitGroup
			for w := 1; w < nw; w++ {
				wg.Add(1)
				go func(w int32, hi, chunk int) {
					defer wg.Done()
					e.expandRange(w, &cursor, hi, chunk)
				}(int32(w), hi, chunk)
			}
			e.expandRange(0, &cursor, hi, chunk)
			waitBarrier(e.workers[0].prof, &wg)
		}
		// Level barrier: the store already holds every state interned
		// during this level (the barrier's happens-before makes the
		// payloads readable by id from any worker next level).
		total := e.store.Len()
		for _, ws := range e.workers {
			if ws.arena.err != nil {
				return nil, ws.arena.err
			}
		}
		e.spans.grow(total)
		lo, hi = hi, total
		// Budget maintenance runs at the barrier, while the workers are
		// quiescent: the store may spill payloads below the next frontier
		// (ids < lo) and must surface any sticky I/O error here, so the
		// failure is deterministic per level, never mid-expansion.
		if err := e.maintainStore(int32(lo)); err != nil {
			return nil, fmt.Errorf("engine: state store: %w", err)
		}
		if e.canon != nil || e.indep != nil || e.aliasMod != 0 {
			// The barrier makes soundness-check failure deterministic:
			// every sampled state of the finished level has been checked,
			// so whether an error exists here depends only on the system
			// and the installed hooks, never on scheduling.
			if verr := e.takeVerifyErr(); verr != nil {
				return nil, verr
			}
		}
		if e.tel != nil {
			// The workers are quiescent between barriers, so the level
			// event's counters are exact — and worker-count-invariant, per
			// the determinism contract (the trace digest relies on this).
			e.tel.level(total, st.Depth, hi-lo, st.PeakFrontier)
		}
		if total > limit {
			if e.tel != nil {
				e.tel.truncated(total, st.Depth, st.PeakFrontier)
			}
			break
		}
	}
	for _, ws := range e.workers {
		st.WorkerSteps = append(st.WorkerSteps, ws.steps.Load())
		st.Expansions += ws.steps.Load()
		st.DedupHits += ws.dedup
		st.CanonHits += ws.canonHits
		st.AmpleStates += ws.ampleStates
		st.DeferredActions += ws.deferred
	}
	st.POREnabled = e.indep != nil
	if e.canon != nil {
		st.CanonEnabled = true
		rawAll := e.workers[0].rawSeen
		for _, ws := range e.workers[1:] {
			for h := range ws.rawSeen {
				rawAll[h] = struct{}{}
			}
		}
		st.RawStates = len(rawAll)
	}

	// Whole levels are expanded, so every id below lo has recorded
	// successors and none at or above it has.
	maxEdges := math.MaxInt32
	if opts.maxEdges > 0 {
		maxEdges = opts.maxEdges
	}
	for _, ws := range e.workers {
		st.ArenaBytes += ws.arena.bytes()
	}
	res, err := e.replayTimed(initIDs, limit, lo, maxEdges)
	if err != nil && !errors.Is(err, ErrStateLimit) {
		return nil, err
	}
	// Replay reads spilled payloads back; surface a read failure as the
	// run's error rather than a silently wrong graph.
	if serr := e.store.Err(); serr != nil {
		return nil, fmt.Errorf("engine: state store: %w", serr)
	}
	st.States = len(res.States)
	st.Edges = res.NumEdges()
	st.GraphBytes = res.graphBytes()
	st.Truncated = res.Truncated
	st.Store = e.store.Stats()
	st.Lossy = st.Store.Lossy
	e.collectPhases(&st)
	if opts.Stats != nil || opts.Sink != nil {
		st.PeakRSSBytes = obs.PeakRSS()
	}
	st.Elapsed = time.Since(start)
	if secs := st.Elapsed.Seconds(); secs > 0 {
		st.StatesPerSec = float64(st.States) / secs
	}
	res.Stats = st
	if opts.Stats != nil {
		*opts.Stats = st
	}
	if e.tel != nil {
		e.tel.runEnd(st)
	}
	return res, err
}

// replay is the canonicalization pass: a sequential BFS over the recorded
// successor lists, renumbering provisional ids into canonical (discovery
// order) ids and worker-local label ids into canonical ones (first sight in
// canonical edge order). Each row is dequeued once and rewritten in place
// in its worker's arena, and the span table is renumbered to canonical ids
// at the end, so the arenas and the span pages become the Result's edge
// storage without a copy.
// It mirrors referenceExplore's loop exactly — including where the state
// limit fires — so its output is byte-identical to a single-threaded
// exploration, and its truncated output is byte-identical to a truncated
// single-threaded exploration. Ids below expanded are the ones with
// recorded successors. More than maxEdges recorded edges is
// ErrEdgeOverflow.
func (e *explorer) replay(initIDs []int32, limit, expanded, maxEdges int) (*Result, error) {
	n := e.store.Len()
	canon := make([]int32, n)
	for i := range canon {
		canon[i] = -1
	}
	var rawTotal int
	labelMap := make([][]uint32, len(e.workers))
	chunks := make([][][]Edge, len(e.workers))
	for w, ws := range e.workers {
		rawTotal += ws.arena.edges()
		chunks[w] = ws.arena.chunks
		labelMap[w] = make([]uint32, len(ws.labels))
		for i := range labelMap[w] {
			labelMap[w][i] = noLabel
		}
	}
	if rawTotal > maxEdges {
		return nil, fmt.Errorf("%w: %d recorded edges, at most %d", ErrEdgeOverflow, rawTotal, maxEdges)
	}
	res := &Result{
		States:      make([]string, 0, n),
		Parents:     make([]int32, 0, n),
		ParentEdges: make([]int32, 0, n),
	}
	// labelMap caches each worker-local label's canonical id; labelIDs
	// dedups label strings across workers.
	labelIDs := make(map[string]uint32)
	globalLabel := func(label string) uint32 {
		l, ok := labelIDs[label]
		if !ok {
			l = uint32(len(res.Labels))
			labelIDs[label] = l
			res.Labels = append(res.Labels, label)
		}
		return l
	}
	intern := func(pid int32) (int32, bool) {
		if c := canon[pid]; c >= 0 {
			return c, false
		}
		c := int32(len(res.States))
		canon[pid] = c
		res.States = append(res.States, e.store.State(pid))
		res.Parents = append(res.Parents, -1)
		res.ParentEdges = append(res.ParentEdges, -1)
		return c, true
	}
	// finish hands the rows over to res, by canonical id, whether replay
	// ends or the limit cuts it off.
	finish := func() {
		e.spans.renumber(canon)
		res.rows = rowTable{chunks: chunks, spans: e.spans, wbits: e.wbits}
	}
	queue := make([]int32, 0, n)
	for _, pid := range initIDs {
		c, _ := intern(pid)
		res.Inits = append(res.Inits, int(c))
		queue = append(queue, pid)
	}
	for head := 0; head < len(queue); head++ {
		pid := queue[head]
		cid := canon[pid]
		if int(pid) >= expanded {
			// Unreachable: the level-granular cutoff guarantees the limit
			// fires (below) before any unexpanded state is dequeued.
			finish()
			return res, fmt.Errorf("engine: internal error: state %d dequeued without recorded successors", cid)
		}
		w, row := e.row(*e.spans.at(pid))
		ws, labels := e.workers[w], labelMap[w]
		for k, r := range row {
			tc, fresh := intern(r.To)
			if fresh {
				if len(res.States) > limit {
					// cid stays unexpanded; its row is rewritten up to
					// here, which the ParentEdges into it need.
					res.Truncated = true
					finish()
					return res, fmt.Errorf("%w: limit %d", ErrStateLimit, limit)
				}
				res.Parents[tc] = cid
				res.ParentEdges[tc] = int32(k)
				queue = append(queue, r.To)
			}
			l := labels[r.Label]
			if l == noLabel {
				l = globalLabel(ws.labels[r.Label])
				labels[r.Label] = l
			}
			row[k] = Edge{To: tc, Actor: r.Actor, Label: l}
		}
		res.expanded++
		res.numEdges += len(row)
	}
	finish()
	return res, nil
}

// noLabel marks a worker-local label replay has not mapped yet.
const noLabel = ^uint32(0)

// shardCount picks a power-of-two stripe count for the visited set: one
// stripe for a lone worker (no contention to spread), otherwise enough
// stripes that workers rarely collide.
func shardCount(workers int) int {
	if workers <= 1 {
		return 1
	}
	n := 1
	for n < workers*16 && n < 256 {
		n <<= 1
	}
	return n
}
