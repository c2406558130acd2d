package impossible

// Determinism contract of the parallel exploration engine, checked over
// real seed systems from three different modeling families: a shared-memory
// mutex (Peterson), an asynchronous message-passing consensus protocol
// (FLP wait-quorum), and a synchronous lockstep rounds system with crash
// nondeterminism defined locally below. Whatever the worker count, the
// explored graph must be byte-identical to the sequential explorer's —
// state numbering, initials, edge lists, parent tree, everything — because
// every downstream impossibility engine (valence, chains, lassos) keys off
// those ids.

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/datalink"
	"repro/internal/engine"
	"repro/internal/flp"
	"repro/internal/ring"
	"repro/internal/rounds"
	"repro/internal/sharedmem"
)

// lockstepState is a synchronous-rounds configuration: the round counter,
// the crash pattern, and an accumulated observation that makes distinct
// histories reach distinct states until they genuinely reconverge.
type lockstepState struct {
	round   int
	crashed [3]bool
	sum     int
}

// lockstepSys is a 3-process lockstep system: in each round the adversary
// may crash any live process, then the round advances and every live
// process contributes to the shared sum. It exercises the engine's
// struct-state fingerprint fallback and heavy diamond reconvergence.
type lockstepSys struct{ rounds int }

func (l lockstepSys) Init() []lockstepState { return []lockstepState{{}} }

func (l lockstepSys) ExpandInto(s lockstepState, x *engine.Ctx[lockstepState]) {
	if s.round >= l.rounds {
		return
	}
	for p := 0; p < 3; p++ {
		if s.crashed[p] {
			continue
		}
		ns := s
		ns.crashed[p] = true
		x.Emit(ns, "crash", p)
	}
	adv := s
	adv.round++
	for p := 0; p < 3; p++ {
		if !s.crashed[p] {
			adv.sum += (p + 1) * (s.round + 1)
		}
	}
	x.Emit(adv, "tick", core.EnvironmentActor)
}

// requireIdenticalGraphs fails unless got is state-for-state, edge-for-edge
// identical to ref.
func requireIdenticalGraphs[S comparable](t *testing.T, label string, ref, got *core.Graph[S]) {
	t.Helper()
	if got.Len() != ref.Len() {
		t.Fatalf("%s: %d states, want %d", label, got.Len(), ref.Len())
	}
	ri, gi := ref.Initials(), got.Initials()
	if len(ri) != len(gi) {
		t.Fatalf("%s: %d initials, want %d", label, len(gi), len(ri))
	}
	for k := range ri {
		if ri[k] != gi[k] {
			t.Fatalf("%s: initial %d is state %d, want %d", label, k, gi[k], ri[k])
		}
	}
	for i := 0; i < ref.Len(); i++ {
		if got.State(i) != ref.State(i) {
			t.Fatalf("%s: state %d differs", label, i)
		}
		if got.Parent(i) != ref.Parent(i) {
			t.Fatalf("%s: parent of %d = %d, want %d", label, i, got.Parent(i), ref.Parent(i))
		}
		if got.ParentStep(i) != ref.ParentStep(i) {
			t.Fatalf("%s: parent step of %d differs", label, i)
		}
		rs, gs := ref.Successors(i), got.Successors(i)
		if len(rs) != len(gs) {
			t.Fatalf("%s: state %d has %d successors, want %d", label, i, len(gs), len(rs))
		}
		for k := range rs {
			if rs[k] != gs[k] {
				t.Fatalf("%s: successor %d of state %d differs: %+v vs %+v", label, k, i, gs[k], rs[k])
			}
		}
	}
}

// checkDeterminism explores sys sequentially, then at several worker
// counts (including the engine path at one worker, forced via a Stats
// sink), and requires identical graphs throughout.
func checkDeterminism[S comparable](t *testing.T, name string, sys core.System[S]) {
	t.Helper()
	ref, err := core.Explore[S](sys, core.ExploreOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("%s: sequential exploration: %v", name, err)
	}
	for _, par := range []int{1, 2, 8} {
		var st engine.Stats
		g, err := core.Explore[S](sys, core.ExploreOptions{Parallelism: par, Stats: &st})
		if err != nil {
			t.Fatalf("%s: parallelism %d: %v", name, par, err)
		}
		requireIdenticalGraphs(t, fmt.Sprintf("%s par=%d", name, par), ref, g)
		if st.States != ref.Len() {
			t.Fatalf("%s par=%d: stats report %d states, graph has %d", name, par, st.States, ref.Len())
		}
	}
}

func TestParallelExplorationIsDeterministic(t *testing.T) {
	t.Run("peterson2", func(t *testing.T) {
		checkDeterminism(t, "peterson2", sharedmem.NewSystem(sharedmem.NewPeterson2()))
	})
	t.Run("ticket-lock", func(t *testing.T) {
		checkDeterminism(t, "ticket-lock", sharedmem.NewSystem(sharedmem.NewTicketLock(3)))
	})
	t.Run("flp-wait-quorum", func(t *testing.T) {
		checkDeterminism(t, "flp-wait-quorum", flp.NewSystem(flp.NewWaitQuorum(3), nil, 1))
	})
	t.Run("lockstep-rounds", func(t *testing.T) {
		checkDeterminism(t, "lockstep-rounds", lockstepSys{rounds: 8})
	})
	t.Run("async-lcr", func(t *testing.T) {
		a, err := ring.NewAsyncLCR(ring.DescendingIDs(5))
		if err != nil {
			t.Fatal(err)
		}
		checkDeterminism(t, "async-lcr", a.System())
	})
	t.Run("crash-space", func(t *testing.T) {
		sys, err := rounds.CrashSpace{Procs: 5, MaxFaults: 2, Rounds: 4}.System()
		if err != nil {
			t.Fatal(err)
		}
		checkDeterminism(t, "crash-space", sys)
	})
	t.Run("ben-or", func(t *testing.T) {
		b, err := consensus.NewBenOrSpace(3, 1, 1, []int{0, 1, 1})
		if err != nil {
			t.Fatal(err)
		}
		checkDeterminism(t, "ben-or", b.System())
	})
	t.Run("async-abp", func(t *testing.T) {
		a, err := datalink.NewAsyncABP(3)
		if err != nil {
			t.Fatal(err)
		}
		checkDeterminism(t, "async-abp", a.System())
	})
}

// TestParallelTruncationIsDeterministic pins the truncation contract at the
// API surface: hitting MaxStates returns the canonical partial graph and
// the shared ErrStateLimit, identically at every worker count.
func TestParallelTruncationIsDeterministic(t *testing.T) {
	sys := flp.NewSystem(flp.NewWaitQuorum(3), nil, 1)
	ref, err := core.Explore[string](sys, core.ExploreOptions{Parallelism: 1, MaxStates: 700})
	if !errors.Is(err, core.ErrStateLimit) {
		t.Fatalf("sequential: err = %v, want ErrStateLimit", err)
	}
	if ref.Len() != 701 {
		t.Fatalf("sequential partial graph has %d states, want 701", ref.Len())
	}
	for _, par := range []int{2, 8} {
		g, err := core.Explore[string](sys, core.ExploreOptions{Parallelism: par, MaxStates: 700})
		if !errors.Is(err, core.ErrStateLimit) {
			t.Fatalf("par=%d: err = %v, want ErrStateLimit", par, err)
		}
		requireIdenticalGraphs(t, fmt.Sprintf("truncated par=%d", par), ref, g)
	}
}
