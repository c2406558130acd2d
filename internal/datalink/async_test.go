package datalink

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

func TestNewAsyncABPValidates(t *testing.T) {
	for _, bad := range []int{0, -1, 17} {
		if _, err := NewAsyncABP(bad); err == nil {
			t.Fatalf("NewAsyncABP(%d) accepted", bad)
		}
	}
	if _, err := NewAsyncABP(16); err != nil {
		t.Fatalf("NewAsyncABP(16): %v", err)
	}
}

// TestAsyncABPExhaustiveDelivery is the exhaustive counterpart of the
// scripted RunABP tests: over every loss/retransmission/delivery schedule
// the receiver never duplicates or reorders, and the transfer completes.
func TestAsyncABPExhaustiveDelivery(t *testing.T) {
	a, err := NewAsyncABP(3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := a.CheckDelivery(core.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for i := 0; i < g.Len(); i++ {
		if a.Done(g.State(i)) {
			done++
			if a.Delivered(g.State(i)) != 3 {
				t.Fatalf("terminal state delivered %d of 3", a.Delivered(g.State(i)))
			}
		}
	}
	if done == 0 {
		t.Fatal("no terminal state reached")
	}
}

// TestAsyncABPHasRetransmissionCycles pins the structural property that
// makes this space the engine's cycle-proviso workload: some reachable
// state can return to itself (send data followed by drop data).
func TestAsyncABPHasRetransmissionCycles(t *testing.T) {
	a, err := NewAsyncABP(2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Explore[string](a.System(), core.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sys := a.System()
	for i := 0; i < g.Len(); i++ {
		s := g.State(i)
		for _, step := range core.StepsOf(sys, s) {
			if !strings.HasPrefix(step.Label, "send data") {
				continue
			}
			for _, back := range core.StepsOf(sys, step.To) {
				if strings.HasPrefix(back.Label, "drop data") && back.To == s {
					return // found a send/drop self-loop
				}
			}
		}
	}
	t.Fatal("no send data -> drop data cycle found")
}

// TestAsyncABPIndependenceContract spot-checks the relation's fixed rules:
// cross-direction pairs commute, slot races and shared-field pairs do not,
// and transfer-completing acks are dependent on everything.
func TestAsyncABPIndependenceContract(t *testing.T) {
	a, err := NewAsyncABP(2)
	if err != nil {
		t.Fatal(err)
	}
	indep := a.Independence()
	act := func(label string, done bool) engine.Action {
		st := make([]byte, stateLen)
		st[offDataSlot], st[offOwed], st[offAckSlot] = slotEmpty, slotEmpty, slotEmpty
		if done {
			st[offNext] = 2
		}
		return engine.Action{To: string(st), Label: label}
	}
	cases := []struct {
		x, y string
		want bool
	}{
		{"send data b0 m0", "send ack b1", true},
		{"send data b0 m0", "drop ack", true},
		{"deliver data b0 m0", "deliver ack b0", true},
		{"deliver data b0 m0", "drop data", false},
		{"deliver ack b0", "drop ack", false},
		{"deliver data b0 m0", "send ack b0", false},
		{"send data b0 m0", "deliver ack b0", false},
	}
	for _, c := range cases {
		if got := indep("", act(c.x, false), act(c.y, false)); got != c.want {
			t.Errorf("indep(%q, %q) = %v, want %v", c.x, c.y, got, c.want)
		}
		if got := indep("", act(c.y, false), act(c.x, false)); got != c.want {
			t.Errorf("indep(%q, %q) = %v, want %v (symmetry)", c.y, c.x, got, c.want)
		}
	}
	if indep("", act("deliver ack b0", true), act("deliver data b0 m1", false)) {
		t.Error("transfer-completing ack declared independent")
	}
}

// TestAsyncABPAliasingClean runs the exploration through
// engine.Differential with the aliasing falsifier checking every state:
// ExpandInto builds each successor in the worker's scratch buffer, so a
// retained emitted slice would show as a graph mismatch at 1 or 2 workers.
func TestAsyncABPAliasingClean(t *testing.T) {
	a, err := NewAsyncABP(4)
	if err != nil {
		t.Fatal(err)
	}
	sys := a.System()
	if _, err := engine.Differential(engine.DiffSpec{
		Name: "async-abp", Inits: sys.Init(), Expand: sys.ExpandInto,
		VerifyAliasing: 1, Workers: []int{1, 2},
	}); err != nil {
		t.Fatal(err)
	}
}
