package rounds

import (
	"fmt"
	"math/bits"
	"strconv"

	"repro/internal/core"
	"repro/internal/engine"
)

// CrashSpace is the lockstep adversary-choice state space underlying the
// §2.2.2 crash-fault round lower bound: a configuration is (round, crashed
// set). Between round ticks the adversary may crash any live process,
// MaxFaults in total; a tick then advances all live processes one
// synchronous round together, up to the Rounds horizon. Exploring it
// enumerates every crash pattern the t+1-round argument quantifies over —
// and since the protocol-independent pattern space only sees *which*
// processes crashed up to relabeling, quotienting by process permutation
// (Canon) collapses each round's C(n, k) crash sets to one per cardinality.
type CrashSpace struct {
	// Procs is the number of processes (1..8, one mask byte).
	Procs int
	// MaxFaults bounds the total number of crashes (the t of the bound).
	MaxFaults int
	// Rounds is the lockstep horizon.
	Rounds int
}

// crashSpaceState encodes (round, crashed mask) in two bytes.
func crashSpaceState(round int, mask byte) string {
	return string([]byte{byte(round), mask})
}

func (c CrashSpace) validate() error {
	if c.Procs < 1 || c.Procs > 8 {
		return fmt.Errorf("rounds: CrashSpace.Procs = %d, want 1..8", c.Procs)
	}
	if c.MaxFaults < 0 || c.MaxFaults > c.Procs {
		return fmt.Errorf("rounds: CrashSpace.MaxFaults = %d, want 0..%d", c.MaxFaults, c.Procs)
	}
	if c.Rounds < 0 {
		return fmt.Errorf("rounds: CrashSpace.Rounds = %d, want >= 0", c.Rounds)
	}
	return nil
}

type crashSpaceSystem struct{ c CrashSpace }

var _ core.System = crashSpaceSystem{}

func (s crashSpaceSystem) Init() []string { return []string{crashSpaceState(0, 0)} }

// csScratch is ExpandInto's per-worker label render buffer.
type csScratch struct {
	lbl []byte
}

// ExpandInto implements core.System: the adversary's crash choices (p0
// upward, while the fault budget lasts), then the round advance (below the
// horizon), each rendered into the worker's scratch buffer.
func (s crashSpaceSystem) ExpandInto(st string, x *engine.Ctx) {
	if len(st) != 2 {
		panic(fmt.Sprintf("rounds: CrashSpace state %q was not produced by this system", st))
	}
	sc, _ := x.Sys.(*csScratch)
	if sc == nil {
		sc = &csScratch{}
		x.Sys = sc
	}
	round, mask := int(st[0]), st[1]
	if bits.OnesCount8(mask) < s.c.MaxFaults {
		for p := 0; p < s.c.Procs; p++ {
			if mask&(1<<p) != 0 {
				continue
			}
			buf := append(x.Scratch[:0], byte(round), mask|1<<p)
			x.Scratch = buf
			lbl := append(sc.lbl[:0], "crash p"...)
			lbl = strconv.AppendInt(lbl, int64(p), 10)
			sc.lbl = lbl
			x.EmitBytes(buf, x.Label(lbl), core.EnvironmentActor)
		}
	}
	if round < s.c.Rounds {
		buf := append(x.Scratch[:0], byte(round+1), mask)
		x.Scratch = buf
		lbl := append(sc.lbl[:0], "round "...)
		lbl = strconv.AppendInt(lbl, int64(round+1), 10)
		sc.lbl = lbl
		x.EmitBytes(buf, x.Label(lbl), core.EnvironmentActor)
	}
}

// System returns the crash-pattern space as a core.System over encoded
// (round, crashed-set) states. Configurations at the horizon with no crash
// budget left are terminal.
func (c CrashSpace) System() (core.System, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	return crashSpaceSystem{c: c}, nil
}

// Canon returns the process-permutation canonicalizer for the crash space:
// crash sets of equal cardinality are related by relabeling, so the
// representative packs the crashed set into the low-order bits. It
// satisfies the engine.Canonicalizer contract exactly (crashing any of the
// n-k live processes of a k-crash set leads to the same representative, so
// successor multisets commute, multiplicities included).
func (c CrashSpace) Canon() func(string) string {
	return func(st string) string {
		mask := st[1]
		packed := byte(1)<<bits.OnesCount8(mask) - 1
		if packed == mask {
			return st
		}
		return string([]byte{st[0], packed})
	}
}
