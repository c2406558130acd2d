package impossible

// Determinism contract of the parallel exploration engine, checked over
// real seed systems from three different modeling families: a shared-memory
// mutex (Peterson), an asynchronous message-passing consensus protocol
// (FLP wait-quorum), and a synchronous lockstep rounds system with crash
// nondeterminism defined locally below. Whatever the worker count, the
// explored graph must be byte-identical to the reference breadth-first
// search's — state numbering, initials, edge lists, parent tree,
// everything — because
// every downstream impossibility engine (valence, chains, lassos) keys off
// those ids.

import (
	"encoding/binary"
	"errors"
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

// appendLockstepState appends a synchronous-rounds configuration, 4 bytes:
// the round counter, the crash pattern as a bit mask, and an accumulated
// observation (little-endian) that makes distinct histories reach distinct
// states until they genuinely reconverge.
func appendLockstepState(b []byte, round int, crashed byte, sum int) []byte {
	return binary.LittleEndian.AppendUint16(append(b, byte(round), crashed), uint16(sum))
}

// lockstepSys is a 3-process lockstep system: in each round the adversary
// may crash any live process, then the round advances and every live
// process contributes to the shared sum. It exercises heavy diamond
// reconvergence.
type lockstepSys struct{ rounds int }

func (l lockstepSys) Init() []string { return []string{string(appendLockstepState(nil, 0, 0, 0))} }

func (l lockstepSys) ExpandInto(s string, x *engine.Ctx[string]) {
	round, crashed, sum := int(s[0]), s[1], int(binary.LittleEndian.Uint16([]byte(s[2:])))
	if round >= l.rounds {
		return
	}
	for p := 0; p < 3; p++ {
		if crashed&(1<<p) != 0 {
			continue
		}
		x.Scratch = appendLockstepState(x.Scratch[:0], round, crashed|1<<p, sum)
		x.EmitBytes(x.Scratch, "crash", p)
	}
	adv := sum
	for p := 0; p < 3; p++ {
		if crashed&(1<<p) == 0 {
			adv += (p + 1) * (round + 1)
		}
	}
	x.Scratch = appendLockstepState(x.Scratch[:0], round+1, crashed, adv)
	x.EmitBytes(x.Scratch, "tick", core.EnvironmentActor)
}

// checkDeterminism runs sys through engine.Differential: at 1, 2 and 8
// workers the explored graph must equal the reference breadth-first search
// state for state and edge for edge. core.Explore, which adopts the
// engine's result (internal/core's graphMatchesResult checks how), must
// report the same size.
func checkDeterminism[S ~string](t *testing.T, name string, sys core.System[S]) {
	t.Helper()
	rep, err := engine.Differential(engine.DiffSpec[S]{Name: name, Inits: sys.Init(), Expand: sys.ExpandInto})
	if err != nil {
		t.Fatal(err)
	}
	want := rep.Modes[0].Stats
	g, err := core.Explore[S](sys, core.ExploreOptions{Parallelism: 2})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if g.Len() != want.States || g.NumEdges() != want.Edges {
		t.Fatalf("%s: core.Explore graph has %d states, %d edges; Differential explored %d, %d",
			name, g.Len(), g.NumEdges(), want.States, want.Edges)
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
	if _, err := engine.Differential(engine.DiffSpec[string]{
		Name: "truncated", Inits: sys.Init(), Expand: sys.ExpandInto, MaxStates: 700,
	}); err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 8} {
		g, err := core.Explore[string](sys, core.ExploreOptions{Parallelism: par, MaxStates: 700})
		if !errors.Is(err, core.ErrStateLimit) {
			t.Fatalf("par=%d: err = %v, want ErrStateLimit", par, err)
		}
		if g.Len() != 701 {
			t.Fatalf("par=%d: partial graph has %d states, want 701", par, g.Len())
		}
	}
}
