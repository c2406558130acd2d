// Package runtime is the live half of the paper's unified-model story
// (§3.6): a goroutine-per-process execution harness that runs the same
// protocols the model checker explores exhaustively — ring election,
// alternating-bit transfer, Ben-Or consensus, shared-memory mutual
// exclusion — as real concurrent systems under a seeded adversarial
// scheduler. Message delay, loss, duplication and process crash/restart
// are the fault axes the impossibility arguments quantify over ("Time is
// not a Healer"); here they are injectable knobs, all replayable from a
// single seed.
//
// Every run is captured through internal/obs as a versioned trace, and
// the refinement oracle (Refine) replays the observed execution into the
// explored state space: each live run must embed as a path in the model's
// Graph, and the safety verdicts — election uniqueness, exactly-once
// delivery, agreement, mutual exclusion — must agree between the live run
// and the engine's verdict. The telemetry layer thereby becomes a
// conformance oracle: a protocol implementation that diverges from its
// model (a missing retransmission, a self-electing forwarder) is caught
// because its trace falls off the explored graph.
package runtime

import (
	"repro/internal/core"
)

// Faults is the bitmask of adversary knobs a workload supports. Run
// rejects options that enable a fault the workload's model cannot
// express: an unmodeled fault would make live traces unembeddable by
// construction, which is a configuration error, not a conformance bug.
type Faults uint8

const (
	// FaultDelay: per-action scheduling delay. Sound for every
	// asynchronous model (delay is indistinguishable from adversarial
	// scheduling), so all workloads support it.
	FaultDelay Faults = 1 << iota
	// FaultDrop: per-message loss. Requires the model to have drop edges
	// (the workload must implement Dropper).
	FaultDrop
	// FaultDup: per-message duplication. Requires the model to tolerate
	// re-delivery of an already-delivered message.
	FaultDup
	// FaultCrash: fail-stop crash injection, optionally followed by
	// restart. A crashed process is starved, never scheduled — which an
	// asynchronous model cannot distinguish from slowness, so traces stay
	// embeddable; only the quiescence obligation is waived (see Refine).
	FaultCrash
)

// ActionKind discriminates scheduled actions.
type ActionKind int

const (
	// ActDeliver hands a message from one process to another. Deliveries
	// are what the adversary can drop, duplicate, and delay.
	ActDeliver ActionKind = iota
	// ActLocal fires a local protocol step a process has armed (a
	// retransmission timer, a spin-loop step). Local actions are one-shot:
	// firing consumes the armed action, and the outcome re-arms it if the
	// protocol wants it persistent. At most one local action per (process,
	// Key) is armed at a time — re-arming an already-armed key is a no-op.
	ActLocal
)

// Action is one schedulable unit: a message in flight or an armed local
// step. Actions are created by Proc outcomes (and Start) and scheduled by
// the adversary.
type Action struct {
	Kind ActionKind
	// From is the sending process for deliveries (or core.EnvironmentActor
	// for environment-originated ones); ignored for local actions.
	From int
	// To is the process the action is scheduled on.
	To int
	// Key dedups armed local actions per process; ignored for deliveries.
	Key string
	// Payload is the workload-private message or timer content. The
	// scheduler never inspects it.
	Payload any
}

// Outcome is a process's response to one scheduled action.
type Outcome struct {
	// Label is the model edge this step corresponds to — it must match a
	// Graph edge label byte for byte, or be empty for an internal stutter
	// that is not a model step (stutters are recorded in the rt trace but
	// skipped by refinement). Handle builds it through its process's
	// Labels, so that a warmed step allocates no label.
	Label string
	// Actor is the model edge's actor (usually the process itself;
	// core.EnvironmentActor for environment-attributed steps).
	Actor int
	// Effects are the actions this step causes: messages to send, local
	// actions to (re-)arm. They are enqueued in order under the adversary's
	// delay knob. Run copies them into its queue before it next calls
	// Handle on the same process, so a process may return the same backing
	// array from every step and overwrite it on the next.
	Effects []Action
	// Halt reports that this process reached a terminal protocol state: its
	// armed local actions (including any just re-armed by Effects) are
	// cleared. Deliveries to a halted process continue — in an asynchronous
	// model, in-flight messages still arrive — so Handle must keep
	// returning correct labels after Halt.
	Halt bool
	// Stop reports that the run's goal is reached (a leader elected, a
	// transfer acknowledged): the run ends after this batch. Within the
	// batch the stopping event is recorded last — any serialization of a
	// batch's concurrently executed steps is a valid linearization, and
	// ordering the terminal step last keeps its batch-mates embeddable.
	Stop bool
}

// Proc is one live process: a state machine driven entirely by scheduled
// actions. A Proc's state is owned by its goroutine; Start is called
// before the goroutine exists, and nothing else may touch the state until
// Run has returned.
type Proc interface {
	// Start returns the process's initial actions (initial message sends,
	// armed timers). Start steps are part of the initial configuration,
	// not model edges, so they carry no labels.
	Start() []Action
	// Handle executes one scheduled action and returns its outcome. It is
	// called from the process's own goroutine; concurrent calls never
	// target the same process.
	Handle(a Action) Outcome
}

// Labels is a process's label interner: Handle builds a step's label with
// strconv appends into the buffer Buf returns and passes the result to
// Intern, which returns it as a string. The first step to produce a given
// label pays one string allocation; every later one is an allocation-free
// map hit, as with engine.Ctx.Label. Labels are model edge labels, a small
// alphabet, so the map stays small; past maxLabels entries it starts over,
// which bounds it for a workload whose labels never repeat. A process owns
// its Labels and uses it from its own goroutine only. The zero value is
// ready to use.
type Labels struct {
	buf []byte
	m   map[string]string
}

// maxLabels bounds a Labels map: no model here has this many distinct
// labels per process.
const maxLabels = 1 << 12

// Buf returns the reused label buffer, emptied.
func (l *Labels) Buf() []byte { return l.buf[:0] }

// Intern returns b as a string and keeps b's backing array for the next
// Buf. The string is immutable and shared by every step that produced the
// same bytes.
func (l *Labels) Intern(b []byte) string {
	l.buf = b
	if s, ok := l.m[string(b)]; ok {
		return s
	}
	if l.m == nil || len(l.m) >= maxLabels {
		l.m = make(map[string]string)
	}
	s := string(b)
	l.m[s] = s
	return s
}

// Workload binds a live implementation to its reference model. One
// Workload instance backs one Run: Spawn's procs accumulate the live
// verdict state that Check inspects afterwards.
type Workload interface {
	// Name identifies the workload in traces and reports.
	Name() string
	// NumProcs returns the number of live processes.
	NumProcs() int
	// Supports returns the fault knobs this workload's model can express.
	Supports() Faults
	// Spawn creates the live processes (exactly NumProcs of them), seeded
	// deterministically: any randomness a process uses must derive from
	// seed and its index alone.
	Spawn(seed int64) []Proc
	// Model explores the reference state space for refinement. A nil graph
	// with nil error means the workload has no model at this scale
	// (live-only sweeps); Refine then returns ErrNoModel.
	Model() (*core.Graph[string], error)
	// Check compares the live run's verdict against the model states the
	// trace can end in (the Ends of a successful embedding): election
	// uniqueness, delivery counts, agreement, mutual exclusion. Called
	// only after Run has returned and the trace has embedded.
	Check(res *Result, g *core.Graph[string], ends []int) error
}

// Guarded is implemented by workloads whose armed local actions have
// enabling conditions the scheduler must respect — e.g. the alternating
// bit sender may only (re)transmit into an empty channel, which live
// means "no data packet currently in flight". Guard reports whether local
// action a is currently enabled given the full pending action set; a
// blocked action stays armed and is re-polled every scheduling round.
// Guard is called from the scheduler goroutine and must not mutate
// process state.
type Guarded interface {
	Guard(a Action, pending []Action) bool
}

// Dropper is implemented by workloads whose model has explicit message
// loss edges; it is required to enable the drop knob. DropLabel returns
// the model edge (label, actor) for the adversary dropping delivery a.
type Dropper interface {
	DropLabel(a Action) (label string, actor int)
}

// BatchLimiter is implemented by workloads that bound the concurrent
// dispatch width — shared-memory algorithms return 1, serializing atomic
// accesses so the scheduler's channel handoffs are the happens-before
// edges ordering every access to the genuinely shared variables.
type BatchLimiter interface {
	MaxBatch() int
}
