package sharedmem

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/spec"
)

// Steps is the hand-written reference transition relation of an
// algorithm's state space: decoded int slices, a fresh encoding per
// successor, fmt labels. TestExpandIntoMatchesSteps holds ExpandInto to it.
func (sys system) Steps(s state) []core.Step[state] {
	n := sys.alg.NumProcs()
	vs := sys.alg.Vars()
	locals, vars := decode(s, n, len(vs))
	steps := make([]core.Step[state], 0, n)
	for p := 0; p < n; p++ {
		l := locals[p]
		v := sys.alg.Access(p, l)
		nl, nv := sys.alg.Step(p, l, vars[v])
		newLocals := make([]int, n)
		copy(newLocals, locals)
		newLocals[p] = nl
		newVars := make([]int, len(vars))
		copy(newVars, vars)
		newVars[v] = nv
		actor := p
		label := fmt.Sprintf("p%d: v%d %d->%d", p, v, vars[v], nv)
		if sys.alg.Region(p, l) == spec.Remainder {
			actor = core.EnvironmentActor
			label = fmt.Sprintf("p%d requests", p)
		}
		steps = append(steps, core.Step[state]{To: encode(newLocals, newVars), Label: label, Actor: actor})
	}
	return steps
}

// TestExpandIntoMatchesSteps checks, state by state over the whole
// reachable space, that the zero-allocation expansion emits exactly Steps'
// transitions — same successors, labels, actors, same order — for each
// seed algorithm.
func TestExpandIntoMatchesSteps(t *testing.T) {
	for _, alg := range []Algorithm{NewPeterson2(), NewTicketLock(4), NewTournament4()} {
		t.Run(alg.Name(), func(t *testing.T) {
			sys := newSystem(alg)
			seen := map[state]bool{}
			frontier := sys.Init()
			checked := 0
			for len(frontier) > 0 {
				var next []state
				for _, s := range frontier {
					if seen[s] {
						continue
					}
					seen[s] = true
					want := sys.Steps(s)
					var got []core.Step[state]
					x := engine.CollectCtx(func(to state, label string, actor int) {
						got = append(got, core.Step[state]{To: to, Label: label, Actor: actor})
					})
					sys.ExpandInto(s, x)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("state %q:\nSteps      = %v\nExpandInto = %v", s, want, got)
					}
					checked++
					for _, st := range want {
						next = append(next, st.To)
					}
				}
				frontier = next
			}
			if checked == 0 {
				t.Fatal("walk checked nothing")
			}
		})
	}
}

// TestExpandIntoAliasingClean runs the exploration through
// engine.Differential with the aliasing falsifier checking every state: the
// scratch expansion must not retain emitted buffers, and the graph must
// match the reference breadth-first search at 1 and 2 workers.
func TestExpandIntoAliasingClean(t *testing.T) {
	sys := NewSystem(NewTicketLock(3))
	if _, err := engine.Differential(engine.DiffSpec[state]{
		Name: "ticket-lock", Inits: sys.Init(), Expand: sys.ExpandInto,
		VerifyAliasing: 1, Workers: []int{1, 2},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestMutexExpandIntoPanicsOnForeignState feeds a state of the wrong length:
// it was not produced by the system, so ExpandInto must panic naming it
// rather than mis-parse it.
func TestMutexExpandIntoPanicsOnForeignState(t *testing.T) {
	sys := newSystem(NewPeterson2())
	const bad = "\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07"
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), fmt.Sprintf("%q", bad)) {
			t.Fatalf("recovered %v, want a panic naming %q", r, bad)
		}
	}()
	sys.ExpandInto(bad, engine.CollectCtx(func(string, string, int) {
		t.Fatal("emitted a transition from a foreign state")
	}))
}
