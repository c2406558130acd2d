package obs

// Runtime event payloads (schema v2). The live adversarial runtime
// (internal/runtime) publishes one rt_start per run carrying a
// RuntimeConfig, one rt_event per scheduled action, and one rt_end
// carrying a RuntimeSummary. Everything in these payloads is part of the
// runtime's determinism contract: under a fixed seed and config the whole
// stream is byte-identical at any GOMAXPROCS, so it all folds into Digest
// (unlike exploration snapshots, there are no timing-dependent fields).

// Runtime event kinds, carried in RuntimeEvent.Kind. Deliver and local
// events are protocol steps; drop, dup, crash and restart are adversary
// moves.
const (
	RTDeliver = "deliver" // a message handed to its destination process
	RTLocal   = "local"   // a process-armed local action fired
	RTDrop    = "drop"    // the adversary discarded an in-flight message
	RTDup     = "dup"     // the adversary re-enqueued a delivered message
	RTCrash   = "crash"   // a process was crash-stopped
	RTRestart = "restart" // a crashed process resumed
)

// RuntimeConfig describes one live runtime run, published with rt_start.
// It is the replay recipe: the same workload, seed and knobs reproduce the
// same rt_event stream bit for bit.
type RuntimeConfig struct {
	// Workload names the live system (e.g. "async-lcr", "async-abp").
	Workload string `json:"workload"`
	// Procs is the number of live process goroutines.
	Procs int `json:"procs"`
	// Seed drives the adversarial scheduler and every per-process RNG.
	Seed int64 `json:"seed"`
	// MaxEvents is the run's scheduling budget.
	MaxEvents int `json:"max_events"`
	// Batch is the concurrent dispatch width (a config constant, never
	// derived from GOMAXPROCS — batch composition shapes the trace).
	Batch int `json:"batch"`
	// Drop and Dup are the per-delivery loss and duplication probabilities.
	Drop float64 `json:"drop,omitempty"`
	Dup  float64 `json:"dup,omitempty"`
	// Delay is the maximum scheduling skew (in events) a newly enqueued
	// action can be deferred by.
	Delay int `json:"delay,omitempty"`
	// Crash is the per-process crash probability; RestartAfter is the
	// number of events after which a crashed process resumes (0 = never).
	Crash        float64 `json:"crash,omitempty"`
	RestartAfter int     `json:"restart_after,omitempty"`
}

// RuntimeEvent is one scheduled runtime action, published as rt_event.
type RuntimeEvent struct {
	// Kind is one of the RT* constants.
	Kind string `json:"kind"`
	// Event is the 1-based index of the event within its run; strictly
	// increasing, and equal to the rt_end summary's Events total at close.
	Event int `json:"event"`
	// Actor is the model-facing actor of the step (a process index, or -1
	// for environment moves like drops).
	Actor int `json:"actor"`
	// To is the process the action targeted (crash/restart: the process).
	To int `json:"to"`
	// From is the sending process of a delivery, -1 otherwise.
	From int `json:"from"`
	// Label is the model edge label of the step, when the step corresponds
	// to a transition of the reference state space; empty for internal
	// stutters (timeout no-ops, crashes) that refinement skips.
	Label string `json:"label,omitempty"`
}

// RuntimeSummary closes a runtime run, published with rt_end.
type RuntimeSummary struct {
	// Events counts scheduled actions (every rt_event).
	Events int `json:"events"`
	// Deliveries and LocalSteps count the protocol steps among them.
	Deliveries int `json:"deliveries"`
	LocalSteps int `json:"local_steps,omitempty"`
	// Drops, Dups, Crashes and Restarts count the adversary's moves.
	Drops    int `json:"drops,omitempty"`
	Dups     int `json:"dups,omitempty"`
	Crashes  int `json:"crashes,omitempty"`
	Restarts int `json:"restarts,omitempty"`
	// Pending is the number of actions left unscheduled when the run ended.
	Pending int `json:"pending,omitempty"`
	// Halted counts processes that reached a terminal protocol state.
	Halted int `json:"halted,omitempty"`
	// Exactly how the run ended. Stopped: a process reported the run's goal
	// reached (election, transfer complete). Quiesced: nothing pending and
	// nothing schedulable. Stalled: only crash-starved actions remained.
	// Budget: MaxEvents ran out.
	Stopped  bool `json:"stopped,omitempty"`
	Quiesced bool `json:"quiesced,omitempty"`
	Stalled  bool `json:"stalled,omitempty"`
	Budget   bool `json:"budget,omitempty"`
	// BatchLat is the wall-clock latency histogram of concurrent batch
	// dispatches (schema v3): one observation per scheduler round that
	// dispatched two or more actions, absent when no round did. The one
	// timing field in the summary: it is excluded from Digest (see
	// DigestLine), because wall time varies while the scheduled stream
	// does not.
	BatchLat *HistSnap `json:"batch_lat,omitempty"`
}
