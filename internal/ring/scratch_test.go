package ring

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// Steps is the hand-written reference transition relation of the async
// election space: every successor materialized as a fresh string, labels
// built with fmt. TestAsyncLCRExpandIntoMatchesSteps holds ExpandInto to it.
func (s asyncLCRSystem) Steps(st string) []core.Step[string] {
	n := len(s.a.ids)
	if st[n] != noLeader {
		return nil // election decided; the space is a DAG to the leaders
	}
	var out []core.Step[string]
	for link := 0; link < n; link++ {
		mask := st[link]
		for id := 0; id < 8; id++ {
			if mask&(1<<uint(id)) == 0 {
				continue
			}
			dst := (link + 1) % n
			next := []byte(st)
			next[link] &^= 1 << uint(id)
			switch {
			case id == s.a.ids[dst]:
				next[n] = byte(dst) // token came home: dst wins
			case id > s.a.ids[dst]:
				next[dst] |= 1 << uint(id) // forward
			}
			// Smaller ids are swallowed: the token just disappears.
			out = append(out, core.Step[string]{
				To:    string(next),
				Label: fmt.Sprintf("deliver id %d to p%d", id, dst),
				Actor: dst,
			})
		}
	}
	return out
}

// TestAsyncLCRExpandIntoMatchesSteps checks, state by state over the whole
// reachable election space, that the zero-allocation expansion emits
// exactly Steps' transitions.
func TestAsyncLCRExpandIntoMatchesSteps(t *testing.T) {
	a, err := NewAsyncLCR(DescendingIDs(5))
	if err != nil {
		t.Fatal(err)
	}
	sys := asyncLCRSystem{a}
	seen := map[string]bool{}
	frontier := sys.Init()
	checked := 0
	for len(frontier) > 0 {
		var next []string
		for _, s := range frontier {
			if seen[s] {
				continue
			}
			seen[s] = true
			want := sys.Steps(s)
			var got []core.Step[string]
			x := engine.CollectCtx(func(to string, label string, actor int) {
				got = append(got, core.Step[string]{To: to, Label: label, Actor: actor})
			})
			sys.ExpandInto(s, x)
			if len(want) == 0 && len(got) == 0 {
				continue
			}
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
}

// TestAsyncLCRAliasingClean runs the election exploration through
// engine.Differential with the aliasing falsifier checking every state; the
// graph must match the reference breadth-first search at 1 and 2 workers.
func TestAsyncLCRAliasingClean(t *testing.T) {
	a, err := NewAsyncLCR(DescendingIDs(5))
	if err != nil {
		t.Fatal(err)
	}
	sys := a.System()
	if _, err := engine.Differential(engine.DiffSpec[string]{
		Name: "async-lcr", Inits: sys.Init(), Expand: sys.ExpandInto,
		VerifyAliasing: 1, Workers: []int{1, 2},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncLCRExpandIntoPanicsOnForeignState feeds a state of the wrong length:
// it was not produced by the system, so ExpandInto must panic naming it
// rather than mis-parse it.
func TestAsyncLCRExpandIntoPanicsOnForeignState(t *testing.T) {
	a, err := NewAsyncLCR(DescendingIDs(5))
	if err != nil {
		t.Fatal(err)
	}
	sys := asyncLCRSystem{a}
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
