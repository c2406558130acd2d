package rounds

import (
	"fmt"
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// Steps is the hand-written reference transition relation of the crash
// space: every transition materialized, labels built with fmt.
// TestCrashSpaceExpandIntoMatchesSteps holds ExpandInto to it.
func (s crashSpaceSystem) Steps(st string) []core.Step[string] {
	round, mask := int(st[0]), st[1]
	var out []core.Step[string]
	if bits.OnesCount8(mask) < s.c.MaxFaults {
		for p := 0; p < s.c.Procs; p++ {
			if mask&(1<<p) != 0 {
				continue
			}
			out = append(out, core.Step[string]{
				To:    crashSpaceState(round, mask|1<<p),
				Label: fmt.Sprintf("crash p%d", p),
				Actor: core.EnvironmentActor,
			})
		}
	}
	if round < s.c.Rounds {
		out = append(out, core.Step[string]{
			To:    crashSpaceState(round+1, mask),
			Label: fmt.Sprintf("round %d", round+1),
			Actor: core.EnvironmentActor,
		})
	}
	return out
}

// TestCrashSpaceExpandIntoMatchesSteps checks, configuration by
// configuration over the whole crash-pattern space, that the
// zero-allocation expansion emits exactly Steps' transitions.
func TestCrashSpaceExpandIntoMatchesSteps(t *testing.T) {
	c := CrashSpace{Procs: 6, MaxFaults: 3, Rounds: 8}
	sysI, err := c.System()
	if err != nil {
		t.Fatal(err)
	}
	sys := sysI.(crashSpaceSystem)
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

// TestCrashSpaceExpandIntoPanicsOnForeignState feeds a state of the wrong length:
// it was not produced by the system, so ExpandInto must panic naming it
// rather than mis-parse it.
func TestCrashSpaceExpandIntoPanicsOnForeignState(t *testing.T) {
	sys := crashSpaceSystem{CrashSpace{Procs: 3, MaxFaults: 1, Rounds: 2}}
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
