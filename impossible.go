// Package impossible is the public facade of the library: a unified,
// executable reproduction of the results surveyed in Nancy Lynch's
// "A Hundred Impossibility Proofs for Distributed Computing" (PODC 1989).
//
// The survey's thesis is that every impossibility proof in distributed
// computing rests on the limitation of local knowledge — "if a process
// sees the same thing in two executions, it behaves the same in both" —
// refined into a handful of techniques. This library mechanizes each
// technique as an engine operating over a shared formal model, and pairs
// each with the classic algorithm that matches its bound:
//
//   - pigeonhole / exhaustion (§2.1): CheckMutex verifies mutual exclusion
//     algorithms; SearchTASMutex and SearchRWMutex prove the small
//     impossibility results by enumerating every protocol table.
//   - scenario arguments (§2.2.1): SpliceCheck defeats any n = 3t
//     Byzantine agreement protocol; CutReplayCheck defeats any protocol on
//     a low-connectivity network.
//   - chain arguments (§2.2.2): ChainLowerBound proves the t+1 round
//     bound for crash consensus; TwoGeneralsChainCheck walks the [61]
//     chain; EIG and FloodSet are the matching algorithms.
//   - bivalence arguments (§2.2.4, §2.3): AnalyzeFLP dissects asynchronous
//     consensus protocols; SearchConsensus separates the consensus numbers
//     of registers and test-and-set objects; MeasureBenOr shows the
//     randomized escape hatch.
//   - stretching arguments (§2.2.6): the clocks functions measure the
//     ε(1−1/n) synchronization bound and verify shift
//     indistinguishability; the sessions functions exhibit the
//     synchronous/asynchronous time gap.
//   - symmetry arguments (§2.4): CheckAnonymousSymmetry executes Angluin's
//     argument; RunLCR / RunHS / RunVariableSpeeds map the ring election
//     message-complexity landscape; RunItaiRodeh is the randomized escape.
//
// Each identifier below is a thin alias into the corresponding internal
// package; see those packages for the full APIs.
package impossible

import (
	"math/rand"

	"repro/internal/async"
	"repro/internal/clocks"
	"repro/internal/consensus"
	"repro/internal/datalink"
	"repro/internal/engine"
	"repro/internal/flp"
	"repro/internal/knowledge"
	"repro/internal/obs"
	"repro/internal/registers"
	"repro/internal/ring"
	"repro/internal/rounds"
	"repro/internal/scenario"
	"repro/internal/sessions"
	"repro/internal/sharedmem"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/synth"
)

// Parallel state-space exploration (the substrate under every checker).
type (
	// EngineStats is the exploration telemetry sink accepted by the
	// checkers' options types (states/sec, frontier depth, dedup rate,
	// per-worker step counts). The explored graph is identical with or
	// without it, at any worker count.
	EngineStats = engine.Stats

	// ObsSink receives streaming exploration telemetry (run boundaries,
	// per-level barrier events, timer snapshots). Observation is passive:
	// attaching a sink cannot change the explored graph. Accepted by the
	// checkers' options types alongside EngineStats.
	ObsSink = obs.Sink
	// ObsEvent is one telemetry event delivered to an ObsSink.
	ObsEvent = obs.Event
	// ObsSnapshot is a point-in-time progress snapshot (states/sec,
	// frontier depth, per-worker utilization, ETA against the state cap).
	ObsSnapshot = obs.ProgressSnapshot
	// ObsMultiSink fans one event stream out to several sinks.
	ObsMultiSink = obs.MultiSink
	// TraceWriter streams events as a versioned JSONL run trace. It only
	// writes; ValidateTrace recomputes a trace's digest from the file.
	TraceWriter = obs.TraceWriter
	// TraceManifest is the trace's first line (schema version, tool,
	// seed, options, VCS revision).
	TraceManifest = obs.Manifest
	// TraceSummary is ValidateTrace's per-trace report.
	TraceSummary = obs.TraceSummary
)

// Streaming telemetry constructors (see internal/obs).
var (
	// NewTraceWriter opens a JSONL run-trace stream over w.
	NewTraceWriter = obs.NewTraceWriter
	// NewTraceManifest builds a manifest stamped with the tool name,
	// schema version and VCS revision.
	NewTraceManifest = obs.NewManifest
	// NewProgressLogger returns a sink that renders events as human
	// log lines with windowed rates.
	NewProgressLogger = obs.NewLogger
	// ValidateTrace schema-checks a JSONL run trace and recomputes its
	// deterministic digest (the `hundred trace-lint` engine).
	ValidateTrace = obs.ValidateTrace
)

// Shared-memory resource allocation (§2.1).
type (
	// MutexAlgorithm is a shared-memory protocol checkable by CheckMutex.
	MutexAlgorithm = sharedmem.Algorithm
	// MutexReport is the verdict of CheckMutex.
	MutexReport = sharedmem.MutexReport
	// MutexOptions configures CheckMutex.
	MutexOptions = sharedmem.CheckMutexOptions
	// SynthResult summarizes an exhaustive protocol search.
	SynthResult = synth.Result
)

// Mutual exclusion algorithms of §2.1.
var (
	NewTASLock           = sharedmem.NewTASLock
	NewPeterson2         = sharedmem.NewPeterson2
	NewDijkstra          = sharedmem.NewDijkstra
	NewTicketLock        = sharedmem.NewTicketLock
	NewCountingSemaphore = sharedmem.NewCountingSemaphore
	NewHandoffLock       = sharedmem.NewHandoffLock
)

// CheckMutex model-checks the §2.1 correctness conditions.
func CheckMutex(alg MutexAlgorithm, opts MutexOptions) (MutexReport, error) {
	return sharedmem.CheckMutex(alg, opts)
}

// CheckBoundedBypass verifies the bounded-waiting condition.
func CheckBoundedBypass(alg MutexAlgorithm, bound, maxStates int) (bool, error) {
	ok, _, err := sharedmem.CheckBoundedBypass(alg, bound, maxStates)
	return ok, err
}

// SearchTASMutex exhaustively searches single-test-and-set-variable mutex
// protocols (the mechanized Cremers–Hibbard result).
func SearchTASMutex(cfg synth.TASSearchConfig) (SynthResult, error) {
	return synth.SearchTASMutex(cfg)
}

// SearchRWMutex exhaustively searches single-RW-register mutex protocols
// (the mechanized Burns–Lynch result).
func SearchRWMutex(cfg synth.RWSearchConfig) (SynthResult, error) {
	return synth.SearchRWMutex(cfg)
}

// Synchronous consensus (§2.2).
type (
	// RoundProtocol is a synchronous-round protocol.
	RoundProtocol = rounds.Protocol
	// ChainResult reports a round-lower-bound chain search.
	ChainResult = consensus.ChainResult
	// SpliceVerdict reports a Fischer–Lynch–Merritt splice check.
	SpliceVerdict = scenario.Verdict
)

// ChainLowerBound mechanizes the t+1 round lower bound for crash
// consensus on n processes at k rounds.
func ChainLowerBound(n, t, k int) (ChainResult, error) {
	return consensus.ChainLowerBound(n, t, k)
}

// VerifyFloodSet exhaustively verifies FloodSet at t+1 rounds.
func VerifyFloodSet(n, t int) (int, error) {
	return consensus.VerifyFloodSetExhaustively(n, t)
}

// NewEIG returns the exponential information gathering protocol.
func NewEIG(n, t int) *consensus.EIG { return &consensus.EIG{Procs: n, MaxFaults: t} }

// NewFloodSet returns the crash-tolerant flooding protocol.
func NewFloodSet(n, t int) *consensus.FloodSet {
	return &consensus.FloodSet{Procs: n, MaxFaults: t}
}

// SpliceCheck runs the n = 3t scenario argument against a concrete
// protocol.
func SpliceCheck(base RoundProtocol, t, numRounds int) (SpliceVerdict, error) {
	return scenario.SpliceCheck(base, t, numRounds)
}

// CutReplayCheck runs the low-connectivity split-brain argument.
func CutReplayCheck(base RoundProtocol, net *rounds.Graph, cut []int, numRounds int) (scenario.CutVerdict, error) {
	return scenario.CutReplayCheck(base, net, cut, numRounds)
}

// Asynchronous consensus and FLP (§2.2.4).
type (
	// FLPProtocol is an asynchronous protocol for bivalence analysis.
	FLPProtocol = flp.Protocol
	// FLPReport is the bivalence analyzer's verdict.
	FLPReport = flp.Report
	// FLPAnalyzeOptions parameterizes AnalyzeFLP (parallelism, telemetry,
	// symmetry quotient via Canon/CanonBytes/VerifyCanon, partial-order
	// reduction via Independent/Visible/VerifyPOR, all typed over string).
	FLPAnalyzeOptions = flp.AnalyzeOptions
)

// FLPPermutationCanon builds the process-permutation canonicalizer for a
// ProcessSymmetric protocol, for use as FLPAnalyzeOptions.Canon: each
// configuration maps to its least encoding over all n! relabelings of the
// processes, found by individualization and refinement rather than by
// trying every relabeling.
var FLPPermutationCanon = flp.PermutationCanon

// Visited-set store backends (FLPAnalyzeOptions.Store / MutexOptions.Store):
// the knob that decides how large an instance the exhaustive checkers can
// certify. StoreMem is the RAM default; StoreSpill bounds resident payload
// bytes by spilling to compressed segment files (graphs stay byte-identical
// to mem); StoreBitstate is a fingerprint-only lossy sweep that taints
// verdicts (Report.Lossy) — absence of a violation is then not evidence.
type (
	// StoreConfig selects and budgets a visited-set backend.
	StoreConfig = store.Config
	// StoreKind names a backend: StoreMem, StoreSpill or StoreBitstate.
	StoreKind = store.Kind
)

const (
	StoreMem      = store.Mem
	StoreSpill    = store.Spill
	StoreBitstate = store.Bitstate
)

// FLPDeliveryIndependence and FLPDecisionVisibility build the ample-set
// independence relation and decision-visibility predicate for a protocol's
// crash-free state space, for use as FLPAnalyzeOptions.Independent/Visible.
// Resilience >= 1 spaces are POR-irreducible (the relation is sound but
// saves nothing); see internal/flp/por.go for the contract.
var (
	FLPDeliveryIndependence = flp.DeliveryIndependence
	FLPDecisionVisibility   = flp.DecisionVisibility
)

// AnalyzeFLP runs the bivalence analysis on an asynchronous protocol.
func AnalyzeFLP(p FLPProtocol, opts flp.AnalyzeOptions) (FLPReport, error) {
	return flp.Analyze(p, opts)
}

// FLP demonstration protocols.
var (
	NewWaitAll    = flp.NewWaitAll
	NewWaitQuorum = flp.NewWaitQuorum
	NewAdoptSwap  = flp.NewAdoptSwap
)

// MeasureBenOr runs seeded executions of Ben-Or randomized consensus.
func MeasureBenOr(n, t, runs int, inputs []int, crashAfter map[int]int, seed int64) (async.BenOrReport, error) {
	return async.MeasureBenOr(n, t, runs, inputs, crashAfter, seed)
}

// Ring computations (§2.4).
type (
	// ElectionResult reports a ring election.
	ElectionResult = ring.ElectionResult
)

// Ring election algorithms and id arrangements.
var (
	RunLCR            = ring.RunLCR
	RunHS             = ring.RunHS
	RunVariableSpeeds = ring.RunVariableSpeeds
	DescendingIDs     = ring.DescendingIDs
	AscendingIDs      = ring.AscendingIDs
	BitReversalIDs    = ring.BitReversalIDs
)

// CheckAnonymousSymmetry executes Angluin's symmetry argument against an
// anonymous protocol.
func CheckAnonymousSymmetry(p ring.AnonymousProtocol, n, input, maxRounds int) (ring.SymmetryReport, error) {
	return ring.CheckAnonymousSymmetry(p, n, input, maxRounds)
}

// RunItaiRodeh runs randomized anonymous leader election.
func RunItaiRodeh(n, space int, rng *rand.Rand, maxPhases int) (ring.ItaiRodehResult, error) {
	return ring.RunItaiRodeh(n, space, rng, maxPhases)
}

// Clock synchronization (§2.2.6).
type (
	// ClockNetwork is the delay model for clock synchronization.
	ClockNetwork = clocks.Network
	// ClockExecution is one offsets-and-delays assignment.
	ClockExecution = clocks.Execution
)

// Clock synchronization entry points.
var (
	ClockAdjusted        = clocks.AdjustedClocks
	ClockMaxSkew         = clocks.MaxSkew
	ClockBound           = clocks.TheoreticalBound
	ClockWorstCase       = clocks.WorstCaseExecution
	ClockUniform         = clocks.UniformExecution
	ClockShift           = clocks.ShiftExecution
	ClockIndistinguished = clocks.CheckIndistinguishable
)

// Sessions (§2.2.6).
var (
	RunSessionsSynchronous = sessions.RunSynchronous
	RunSessionsToken       = sessions.RunTokenBarrier
	SessionsLowerBound     = sessions.LowerBound
	CountSessions          = sessions.CountSessions
)

// Data link (§2.5).
var (
	RunABP                  = datalink.RunABP
	TwoGeneralsChainCheck   = datalink.ChainCheck
	NewTwoGeneralsHandshake = func(depth int) datalink.GeneralProtocol { return &datalink.Handshake{Depth: depth} }
)

// Registers and wait-free synchronization (§2.3).
var (
	IsAtomicHistory  = registers.IsAtomic
	IsRegularHistory = registers.IsRegular
	IsSafeHistory    = registers.IsSafe
	SearchConsensus  = registers.SearchConsensus
)

// Problem statements (§3.3).
var (
	CheckConsensusConditions = spec.CheckConsensus
	CheckCrashConsensus      = spec.CheckCrashConsensus
	CheckCommitRule          = spec.CheckCommitRule
	BinaryConsensusTask      = spec.BinaryConsensusTask
)

// Extended algorithms and engines added alongside the core experiment set.
var (
	// NewTournament4 is the 4-process tournament mutex (§2.1 composition).
	NewTournament4 = sharedmem.NewTournament4
	// NewPhaseKing returns the constant-message-size Byzantine agreement
	// protocol (n > 4t).
	NewPhaseKing = func(n, t int) *consensus.PhaseKing {
		return &consensus.PhaseKing{Procs: n, MaxFaults: t}
	}
	// NewThreePhaseCommit returns the non-blocking commit protocol.
	NewThreePhaseCommit = func(n int) *consensus.ThreePhaseCommit {
		return &consensus.ThreePhaseCommit{Procs: n}
	}
	// CompareMessageSizes contrasts EIG and phase-king communication.
	CompareMessageSizes = consensus.CompareMessageSizes
	// RunPetersonRing is Peterson's O(n log n) unidirectional election.
	RunPetersonRing = ring.RunPetersonUnidirectional
	// RunSeqNo is the unbounded-header data link protocol.
	RunSeqNo = datalink.RunSeqNo
	// StretchClocks scales delays by sigma and rates by 1/sigma — the
	// §2.2.6 indistinguishable stretching.
	StretchClocks = clocks.StretchExecution
	// CheckStretchIndistinguishable verifies stretched executions match.
	CheckStretchIndistinguishable = clocks.CheckRatedIndistinguishable
)

// Clock synchronization algorithm types.
type (
	// ClockAlgorithm computes clock corrections from observations.
	ClockAlgorithm = clocks.Algorithm
	// Observation is a hardware receive-time observation.
	Observation = clocks.Observation
)

// LundeliusLynchAlgo is the averaging synchronization algorithm of [77].
type LundeliusLynchAlgo = clocks.LundeliusLynch

// Knowledge formalization (§2.6, Halpern–Moses / Dwork–Moses).
type (
	// KnowledgeUniverse is the set of all k-round crash executions with
	// the indistinguishability structure precomputed.
	KnowledgeUniverse = knowledge.Universe
	// KnowledgeFact is a property of executions.
	KnowledgeFact = knowledge.Fact
)

// NewCrashUniverse enumerates the k-round crash universe for knowledge
// analyses.
var NewCrashUniverse = knowledge.NewCrashUniverse
