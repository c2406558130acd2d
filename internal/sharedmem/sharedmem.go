// Package sharedmem implements the asynchronous shared-memory model of
// §2.1 of the paper: a group of asynchronous processes communicating via
// shared variables accessed by atomic read/write or general test-and-set
// (read-modify-write) operations, together with checkable statements of
// the mutual exclusion correctness conditions (mutual exclusion, progress,
// lockout-freedom, bounded bypass) whose "careful description" the paper
// identifies as the heart of the Cremers–Hibbard and Burns et al. results.
package sharedmem

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/store"
)

// VarKind distinguishes read/write registers from general test-and-set
// (read-modify-write) variables. The distinction carries the Burns–Lynch
// result (§2.1): with RW access, a writer obliterates the variable and
// single-variable mutual exclusion becomes impossible.
type VarKind int

const (
	// RW variables admit only atomic reads (value unchanged) and atomic
	// writes of a value computed without looking at the old value.
	RW VarKind = iota + 1
	// RMW variables admit one atomic access that reads, computes and
	// writes back — the "very general" test-and-set of Cremers–Hibbard.
	RMW
)

// String implements fmt.Stringer.
func (k VarKind) String() string {
	switch k {
	case RW:
		return "rw"
	case RMW:
		return "rmw"
	default:
		return fmt.Sprintf("VarKind(%d)", int(k))
	}
}

// VarSpec describes one shared variable.
type VarSpec struct {
	Kind VarKind
	// Init is the initial value.
	Init int
	// Values is the domain size; values range over [0, Values).
	Values int
}

// Algorithm is a deterministic shared-memory protocol: each process is an
// automaton whose every transition is a single atomic access to one shared
// variable. Local states and values are small nonnegative ints so that
// global states can be encoded canonically.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// NumProcs returns the number of processes.
	NumProcs() int
	// Vars describes the shared variables.
	Vars() []VarSpec
	// InitLocal returns process p's initial local state.
	InitLocal(p int) int
	// Region classifies local states into the four-region decomposition.
	Region(p, local int) spec.Region
	// Access returns the index of the variable process p touches when
	// stepping from the given local state.
	Access(p, local int) int
	// Step performs the atomic access: given the current value of the
	// accessed variable, it returns the next local state and the value to
	// store back (equal to val for a pure read).
	Step(p, local, val int) (newLocal, newVal int)
}

// state is the canonical encoding of a global configuration: one byte per
// process local state followed by one byte per shared variable.
type state = string

func encode(locals, vars []int) state {
	buf := make([]byte, 0, len(locals)+len(vars))
	for _, l := range locals {
		buf = append(buf, byte(l))
	}
	for _, v := range vars {
		buf = append(buf, byte(v))
	}
	return state(buf)
}

func decode(s state, n, nv int) (locals, vars []int) {
	locals = make([]int, n)
	vars = make([]int, nv)
	for i := 0; i < n; i++ {
		locals[i] = int(s[i])
	}
	for i := 0; i < nv; i++ {
		vars[i] = int(s[n+i])
	}
	return locals, vars
}

// system adapts an Algorithm to a core.System. Steps from remainder states
// are attributed to the environment ("the process might request the
// resource at any time", §2.1 — requesting is not under the algorithm's
// control and fairness never forces it); all other steps are process steps
// subject to weak fairness.
type system struct {
	alg Algorithm
	// nvars is len(alg.Vars()), held once: Vars builds a fresh slice.
	nvars int
}

func newSystem(alg Algorithm) system { return system{alg: alg, nvars: len(alg.Vars())} }

var _ core.System = system{}

func (sys system) Init() []state {
	n := sys.alg.NumProcs()
	vs := sys.alg.Vars()
	locals := make([]int, n)
	for p := 0; p < n; p++ {
		locals[p] = sys.alg.InitLocal(p)
	}
	vars := make([]int, len(vs))
	for i, v := range vs {
		vars[i] = v.Init
	}
	return []state{encode(locals, vars)}
}

// smScratch is the per-worker label render buffer of ExpandInto, carried
// in Ctx.Sys.
type smScratch struct {
	lbl []byte
}

// ExpandInto implements core.System: one atomic access per process, p0
// upward, each successor rendered into the worker's scratch buffer as two
// patched bytes over the current encoding.
func (sys system) ExpandInto(s state, x *engine.Ctx) {
	n := sys.alg.NumProcs()
	if len(s) != n+sys.nvars {
		panic(fmt.Sprintf("sharedmem: %s state %q was not produced by this system", sys.alg.Name(), s))
	}
	sc, _ := x.Sys.(*smScratch)
	if sc == nil {
		sc = &smScratch{}
		x.Sys = sc
	}
	for p := 0; p < n; p++ {
		l := int(s[p])
		v := sys.alg.Access(p, l)
		old := int(s[n+v])
		nl, nv := sys.alg.Step(p, l, old)
		buf := append(x.Scratch[:0], s...)
		buf[p] = byte(nl)
		buf[n+v] = byte(nv)
		x.Scratch = buf
		actor := p
		request := sys.alg.Region(p, l) == spec.Remainder
		if request {
			actor = core.EnvironmentActor
		}
		sc.lbl = appendStepLabel(sc.lbl[:0], p, v, old, nv, request)
		x.EmitBytes(buf, x.Label(sc.lbl), actor)
	}
}

// appendStepLabel appends the label of process p's step that accesses
// variable v, changing it from old to nv: "p<p> requests" for a request
// (a remainder-region step, the environment's), "p<p>: v<v> <old>-><nv>"
// otherwise. The explored system and LiveMutex both label through it.
func appendStepLabel(dst []byte, p, v, old, nv int, request bool) []byte {
	dst = append(dst, 'p')
	dst = strconv.AppendInt(dst, int64(p), 10)
	if request {
		return append(dst, " requests"...)
	}
	dst = append(dst, ": v"...)
	dst = strconv.AppendInt(dst, int64(v), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(old), 10)
	dst = append(dst, "->"...)
	return strconv.AppendInt(dst, int64(nv), 10)
}

// NewSystem exposes the algorithm's transition system (canonical encoded
// global states) for direct exploration — used by the determinism tests and
// the exploration benchmarks.
func NewSystem(alg Algorithm) core.System {
	return newSystem(alg)
}

// Explore builds the reachable state graph of the algorithm.
func Explore(alg Algorithm, maxStates int) (*core.Graph[state], error) {
	return ExploreWith(alg, core.ExploreOptions{MaxStates: maxStates})
}

// ExploreWith builds the reachable state graph with full exploration
// options (worker count, telemetry).
func ExploreWith(alg Algorithm, opts core.ExploreOptions) (*core.Graph[state], error) {
	g, err := core.Explore[state](newSystem(alg), opts)
	if err != nil {
		return nil, fmt.Errorf("sharedmem: exploring %s: %w", alg.Name(), err)
	}
	return g, nil
}

// regionsOf returns the region of each process in encoded state s.
func regionsOf(alg Algorithm, s state) []spec.Region {
	n := alg.NumProcs()
	locals, _ := decode(s, n, len(alg.Vars()))
	out := make([]spec.Region, n)
	for p := 0; p < n; p++ {
		out[p] = alg.Region(p, locals[p])
	}
	return out
}

func countRegion(rs []spec.Region, want spec.Region) int {
	c := 0
	for _, r := range rs {
		if r == want {
			c++
		}
	}
	return c
}

// MutexReport is the verdict of CheckMutex on one algorithm.
type MutexReport struct {
	Algorithm string
	// States and Edges size the explored graph.
	States int
	Edges  int
	// Exclusion is the maximum number of simultaneously-critical
	// processes allowed (1 for mutual exclusion, k for k-exclusion).
	Exclusion int
	// MutualExclusion: never more than Exclusion processes critical.
	MutualExclusion bool
	// Progress: someone trying with no one critical leads to someone
	// critical, under weak fairness.
	Progress bool
	// LockoutFree: for every p, p trying leads to p critical, under weak
	// fairness.
	LockoutFree bool
	// LockoutVictim is a process that can starve, when LockoutFree is
	// false.
	LockoutVictim int
	// ValuesUsed[i] is the number of distinct values variable i actually
	// takes over all reachable states — the quantity bounded from below
	// by the §2.1 pigeonhole arguments.
	ValuesUsed []int
	// CombinedValues is the number of distinct shared-memory contents
	// (joint variable valuations) observed.
	CombinedValues int
	// MutexWitness is a trace violating exclusion, when applicable.
	MutexWitness core.Trace
	// LockoutCycle is the fair starvation cycle, when applicable.
	LockoutCycle core.Trace
}

// CheckMutexOptions configures CheckMutex.
type CheckMutexOptions struct {
	// Exclusion is the allowed number of simultaneous critical processes
	// (default 1).
	Exclusion int
	// MaxStates bounds exploration (default core.DefaultMaxStates).
	MaxStates int
	// Parallelism is the exploration worker count (0 = GOMAXPROCS). The
	// graph — and so the verdict — is identical at any worker count.
	Parallelism int
	// Stats, when non-nil, receives the exploration telemetry.
	Stats *engine.Stats
	// Sink, when non-nil, streams the exploration's telemetry events —
	// see obs.Sink.
	Sink obs.Sink
	// SnapshotEvery is the timer-driven snapshot period (only meaningful
	// with Sink; zero = engine.DefaultSnapshotEvery, negative = barrier
	// events only).
	SnapshotEvery time.Duration
	// Store selects the visited-set backend — see store.Config. A lossy
	// backend (bitstate) undercounts reachable states, so the report's
	// universally-quantified verdicts become "no violation found"; check
	// Stats.Lossy.
	Store store.Config
}

// CheckMutex model-checks the resource-allocation correctness conditions
// of §2.1 against alg and measures its shared-memory value usage.
func CheckMutex(alg Algorithm, opts CheckMutexOptions) (MutexReport, error) {
	excl := opts.Exclusion
	if excl <= 0 {
		excl = 1
	}
	rep := MutexReport{Algorithm: alg.Name(), Exclusion: excl, LockoutVictim: -1}
	g, err := ExploreWith(alg, core.ExploreOptions{
		MaxStates: opts.MaxStates, Parallelism: opts.Parallelism, Stats: opts.Stats,
		Sink: opts.Sink, SnapshotEvery: opts.SnapshotEvery, Store: opts.Store,
	})
	if err != nil {
		return rep, err
	}
	rep.States = g.Len()
	rep.Edges = g.NumEdges()

	// Mutual (k-)exclusion invariant.
	_, witness, ok := g.CheckInvariant(func(s state) bool {
		return countRegion(regionsOf(alg, s), spec.Critical) <= excl
	})
	rep.MutualExclusion = ok
	if !ok {
		rep.MutexWitness = witness
	}

	n := alg.NumProcs()
	// Progress.
	prog := g.CheckLeadsTo(
		func(s state) bool {
			rs := regionsOf(alg, s)
			return countRegion(rs, spec.Trying) > 0 && countRegion(rs, spec.Critical) == 0
		},
		func(s state) bool {
			return countRegion(regionsOf(alg, s), spec.Critical) > 0
		},
		core.WeakFairness, n)
	rep.Progress = prog.Holds

	// Lockout-freedom, per process.
	rep.LockoutFree = true
	for p := 0; p < n; p++ {
		res := g.CheckLeadsTo(
			func(s state) bool { return regionsOf(alg, s)[p] == spec.Trying },
			func(s state) bool { return regionsOf(alg, s)[p] == spec.Critical },
			core.WeakFairness, n)
		if !res.Holds {
			rep.LockoutFree = false
			rep.LockoutVictim = p
			rep.LockoutCycle = res.Cycle
			break
		}
	}

	// Value usage per variable and combined.
	vs := alg.Vars()
	seen := make([]map[int]bool, len(vs))
	for i := range seen {
		seen[i] = make(map[int]bool)
	}
	joint := make(map[string]bool)
	for i := 0; i < g.Len(); i++ {
		s := g.State(i)
		_, vars := decode(s, n, len(vs))
		for vi, val := range vars {
			seen[vi][val] = true
		}
		joint[s[n:]] = true
	}
	rep.ValuesUsed = make([]int, len(vs))
	for i := range seen {
		rep.ValuesUsed[i] = len(seen[i])
	}
	rep.CombinedValues = len(joint)
	return rep, nil
}

// ErrNotRW is returned by CheckRWDiscipline for algorithms whose accesses
// to RW variables are neither pure reads nor blind writes.
var ErrNotRW = errors.New("sharedmem: access violates read/write discipline")

// CheckRWDiscipline verifies that every access the algorithm can make to a
// variable declared RW is either a pure read (stored value always equals
// the old value) or a blind write (stored value and successor local state
// are independent of the old value). This is the formal content of the
// Burns–Lynch observation that "a writing process obliterates any
// information previously in the variable".
func CheckRWDiscipline(alg Algorithm, maxLocalStates int) error {
	vs := alg.Vars()
	for p := 0; p < alg.NumProcs(); p++ {
		for l := 0; l < maxLocalStates; l++ {
			v := alg.Access(p, l)
			if v < 0 || v >= len(vs) || vs[v].Kind != RW {
				continue
			}
			dom := vs[v].Values
			isRead := true
			isWrite := true
			l0, v0 := alg.Step(p, l, 0)
			for val := 0; val < dom; val++ {
				nl, nv := alg.Step(p, l, val)
				if nv != val {
					isRead = false
				}
				if nl != l0 || nv != v0 {
					isWrite = false
				}
			}
			if !isRead && !isWrite {
				return fmt.Errorf("%w: process %d local state %d on variable %d", ErrNotRW, p, l, v)
			}
		}
	}
	return nil
}

// bypassState augments a global state with per-process saturating bypass
// counters for bounded-bypass checking.
type bypassSystem struct {
	inner system
	bound int
}

var _ core.System = bypassSystem{}

func (b bypassSystem) Init() []state {
	base := b.inner.Init()
	n := b.inner.alg.NumProcs()
	out := make([]state, len(base))
	for i, s := range base {
		out[i] = s + string(make([]byte, n))
	}
	return out
}

// ExpandInto implements core.System: the inner system's transitions, each
// with the bypass counters updated. Bounded-bypass checking is a one-off
// exploration, so it materializes the inner steps with core.StepsOf.
func (b bypassSystem) ExpandInto(s state, x *engine.Ctx) {
	alg := b.inner.alg
	n := alg.NumProcs()
	nv := len(alg.Vars())
	baseLen := n + nv
	base := s[:baseLen]
	counters := []byte(s[baseLen:])
	for _, st := range core.StepsOf(b.inner, base) {
		preRegions := regionsOf(alg, base)
		postRegions := regionsOf(alg, st.To)
		next := make([]byte, n)
		copy(next, counters)
		// Identify a process that just entered the critical region.
		entered := -1
		for p := 0; p < n; p++ {
			if preRegions[p] != spec.Critical && postRegions[p] == spec.Critical {
				entered = p
				break
			}
		}
		for p := 0; p < n; p++ {
			switch {
			case postRegions[p] == spec.Critical || postRegions[p] == spec.Remainder:
				next[p] = 0
			case entered >= 0 && entered != p && preRegions[p] == spec.Trying && postRegions[p] == spec.Trying:
				if int(next[p]) <= b.bound {
					next[p]++
				}
			}
		}
		x.Emit(st.To+string(next), st.Label, st.Actor)
	}
}

// CheckBoundedBypass verifies that while a process is continuously trying,
// no other process enters the critical region more than bound times (the
// "bounded waiting" condition of Burns et al., §2.1). It returns a witness
// trace on violation.
func CheckBoundedBypass(alg Algorithm, bound, maxStates int) (ok bool, witness core.Trace, err error) {
	sys := bypassSystem{inner: newSystem(alg), bound: bound}
	g, err := core.Explore[state](sys, core.ExploreOptions{MaxStates: maxStates})
	if err != nil {
		return false, nil, fmt.Errorf("sharedmem: bounded-bypass exploration of %s: %w", alg.Name(), err)
	}
	n := alg.NumProcs()
	nv := len(alg.Vars())
	_, witness, ok = g.CheckInvariant(func(s state) bool {
		counters := s[n+nv:]
		for p := 0; p < n; p++ {
			if int(counters[p]) > bound {
				return false
			}
		}
		return true
	})
	return ok, witness, nil
}
