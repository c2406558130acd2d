package sharedmem

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/spec"
)

// LiveMutex runs a shared-memory mutual-exclusion algorithm as a real
// concurrent system under internal/runtime: one goroutine per process,
// genuinely shared variable cells, the adversary choosing which process
// takes its next atomic access (and optionally delaying or
// crash-starving processes — a crash inside the critical region is the
// classic fail-stop hazard of §2.1).
//
// Atomicity of the model's accesses is enforced by MaxBatch() = 1: the
// scheduler dispatches one access at a time, so each live step reads and
// writes the shared cells race-free, with the channel handoffs carrying
// the happens-before edges. Each process keeps one persistent "step"
// local action armed — the model's "every process always has exactly one
// enabled transition".
type LiveMutex struct {
	alg Algorithm

	vars      []int
	locals    []int
	critCount int
	maxCrit   int
}

// NewLiveMutex wraps an algorithm as a live runtime workload.
func NewLiveMutex(alg Algorithm) *LiveMutex { return &LiveMutex{alg: alg} }

// MaxCritical reports the largest number of simultaneously-critical
// processes observed by the last run.
func (l *LiveMutex) MaxCritical() int { return l.maxCrit }

// Name implements runtime.Workload.
func (l *LiveMutex) Name() string { return "mutex-" + l.alg.Name() }

// NumProcs implements runtime.Workload.
func (l *LiveMutex) NumProcs() int { return l.alg.NumProcs() }

// Supports implements runtime.Workload: delay and crash. No message
// faults — there are no messages, only shared-variable accesses.
func (l *LiveMutex) Supports() runtime.Faults {
	return runtime.FaultDelay | runtime.FaultCrash
}

// MaxBatch implements runtime.BatchLimiter: shared-variable accesses are
// atomic, so at most one process steps per scheduler batch.
func (l *LiveMutex) MaxBatch() int { return 1 }

// Spawn implements runtime.Workload: reset the shared cells to the
// algorithm's initial valuation.
func (l *LiveMutex) Spawn(int64) []runtime.Proc {
	n := l.alg.NumProcs()
	vs := l.alg.Vars()
	l.vars = make([]int, len(vs))
	for i, v := range vs {
		l.vars[i] = v.Init
	}
	l.locals = make([]int, n)
	for p := 0; p < n; p++ {
		l.locals[p] = l.alg.InitLocal(p)
	}
	l.critCount = 0
	for p := 0; p < n; p++ {
		if l.alg.Region(p, l.locals[p]) == spec.Critical {
			l.critCount++
		}
	}
	l.maxCrit = l.critCount
	out := make([]runtime.Proc, n)
	for p := 0; p < n; p++ {
		out[p] = &liveMutexProc{w: l, p: p}
	}
	return out
}

// Model implements runtime.Workload: the explored algorithm graph for
// small process counts, nil at live-only scale.
func (l *LiveMutex) Model() (*core.Graph[string], error) {
	if l.alg.NumProcs() > 6 {
		return nil, nil
	}
	return ExploreWith(l.alg, core.ExploreOptions{})
}

// Check implements runtime.Workload: the live run's exclusion verdict
// must agree with the model's invariant (a live violation of an
// invariant the model proves is a refinement bug), and the live final
// configuration must be exactly the model state the trace leads to (the
// encoding is label-deterministic, so there is exactly one).
func (l *LiveMutex) Check(_ *runtime.Result, g *core.Graph[string], ends []int) error {
	if l.maxCrit > 1 {
		_, _, modelSafe := g.CheckInvariant(func(s state) bool {
			return countRegion(regionsOf(l.alg, s), spec.Critical) <= 1
		})
		if modelSafe {
			return fmt.Errorf("sharedmem: live run saw %d simultaneously-critical processes but the model proves mutual exclusion", l.maxCrit)
		}
	}
	final := encode(l.locals, l.vars)
	for _, e := range ends {
		if g.State(e) != final {
			return fmt.Errorf("sharedmem: live final state %q but consistent model state %d is %q", final, e, g.State(e))
		}
	}
	return nil
}

// liveMutexProc is one live process: its entire behavior is the armed
// "step" action performing the algorithm's next atomic access.
type liveMutexProc struct {
	w      *LiveMutex
	p      int
	labels runtime.Labels
	// eff is the one re-arm effect every step returns (see
	// runtime.Outcome.Effects on reusing it).
	eff [1]runtime.Action
}

// Start implements runtime.Proc.
func (pr *liveMutexProc) Start() []runtime.Action {
	return []runtime.Action{{Kind: runtime.ActLocal, To: pr.p, Key: "step"}}
}

// Handle implements runtime.Proc: one atomic access, with the model's
// label and actor attribution (remainder steps are environment requests),
// then re-arm.
func (pr *liveMutexProc) Handle(runtime.Action) runtime.Outcome {
	w, p := pr.w, pr.p
	alg := w.alg
	l := w.locals[p]
	v := alg.Access(p, l)
	old := w.vars[v]
	nl, nv := alg.Step(p, l, old)

	actor := p
	request := alg.Region(p, l) == spec.Remainder
	if request {
		actor = core.EnvironmentActor
	}
	label := pr.labels.Intern(appendStepLabel(pr.labels.Buf(), p, v, old, nv, request))

	preCrit := alg.Region(p, l) == spec.Critical
	postCrit := alg.Region(p, nl) == spec.Critical
	w.locals[p] = nl
	w.vars[v] = nv
	if postCrit && !preCrit {
		w.critCount++
		if w.critCount > w.maxCrit {
			w.maxCrit = w.critCount
		}
	} else if preCrit && !postCrit {
		w.critCount--
	}

	pr.eff[0] = runtime.Action{Kind: runtime.ActLocal, To: p, Key: "step"}
	return runtime.Outcome{Label: label, Actor: actor, Effects: pr.eff[:]}
}
