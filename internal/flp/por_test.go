package flp

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// stepActions materializes a configuration's outgoing steps as engine
// actions, so the independence relation can be probed directly.
func stepActions(sys core.System[config], c config) []engine.Action {
	var out []engine.Action
	for _, st := range core.StepsOf(sys, c) {
		out = append(out, engine.Action{To: st.To, Label: st.Label, Actor: st.Actor})
	}
	return out
}

func findAction(t *testing.T, acts []engine.Action, pred func(engine.Action) bool, what string) engine.Action {
	t.Helper()
	for _, a := range acts {
		if pred(a) {
			return a
		}
	}
	t.Fatalf("no action matching %s among %d actions", what, len(acts))
	return engine.Action{}
}

// TestDeliveryIndependenceRules walks the relation's decision table on real
// configurations of wait-all(3) at resilience 1.
func TestDeliveryIndependenceRules(t *testing.T) {
	p := NewWaitAll(3)
	indep := DeliveryIndependence(p)
	sys := NewSystem(p, [][]int{{0, 1, 1}}, 1)
	init := sys.Init()[0]
	acts := stepActions(sys, init)

	crash0 := findAction(t, acts, func(a engine.Action) bool {
		return a.Label == "crash p0"
	}, "crash p0")
	crash1 := findAction(t, acts, func(a engine.Action) bool {
		return a.Label == "crash p1"
	}, "crash p1")
	wake0 := findAction(t, acts, func(a engine.Action) bool {
		return a.Actor == 0 && a.Label != "crash p0"
	}, "p0's wake-up delivery")
	wake1 := findAction(t, acts, func(a engine.Action) bool {
		return a.Actor == 1 && a.Label != "crash p1"
	}, "p1's wake-up delivery")

	if indep(init, crash0, crash1) {
		t.Error("two crashes must conflict (shared resilience budget)")
	}
	if indep(init, crash0, wake0) || indep(init, wake0, crash0) {
		t.Error("a crash must conflict with a delivery to its victim")
	}
	if !indep(init, crash0, wake1) || !indep(init, wake1, crash0) {
		t.Error("a crash must commute with deliveries to other processes")
	}
	if !indep(init, wake0, wake1) {
		t.Error("deliveries to distinct receivers must be independent")
	}
	// Same receiver, send-producing: the wake-up mints the broadcast, so it
	// must conflict with any other delivery to the same process. Drive to a
	// configuration where p0's wake and a value delivery to p0 coexist.
	after1 := wake1.To
	acts1 := stepActions(sys, after1)
	wake0b := findAction(t, acts1, func(a engine.Action) bool {
		return a.Actor == 0 && sender(a.Label) == "0"
	}, "p0 wake after p1 woke")
	val10 := findAction(t, acts1, func(a engine.Action) bool {
		return a.Actor == 0 && sender(a.Label) == "1"
	}, "delivery 1>0 after p1 woke")
	if indep(after1, wake0b, val10) {
		t.Error("a send-producing wake-up must conflict with a same-receiver delivery")
	}

	// Same receiver, quiet, decision-preserving, distinct senders: after all
	// three wake, p2 has two pending quiet value deliveries (wait-all needs
	// all 3, so neither delivery alone decides).
	after := wake0.To
	for _, actor := range []int{1, 2} {
		actor := actor
		a := findAction(t, stepActions(sys, after), func(a engine.Action) bool {
			// The wake-up is the unique self-addressed delivery.
			return a.Actor == actor && sender(a.Label) == string(rune('0'+actor))
		}, "wake")
		after = a.To
	}
	acts2 := stepActions(sys, after)
	d0 := findAction(t, acts2, func(a engine.Action) bool {
		return a.Actor == 2 && sender(a.Label) == "0"
	}, "delivery 0>2")
	d1 := findAction(t, acts2, func(a engine.Action) bool {
		return a.Actor == 2 && sender(a.Label) == "1"
	}, "delivery 1>2")
	if !indep(after, d0, d1) {
		t.Error("quiet decision-preserving same-receiver deliveries from distinct senders must be independent")
	}
	if !sendFree(after, d0) || !sendFree(after, d1) {
		t.Error("value deliveries to a woken wait-all process are send-free")
	}
	if !preservesDecision(p, mustLayout(p), after, d0) {
		t.Error("one of two missing values cannot decide wait-all(3)")
	}
	// Deliver d0; the remaining delivery crosses the threshold and decides,
	// so preservesDecision must reject it.
	acts3 := stepActions(sys, d0.To)
	d1b := findAction(t, acts3, func(a engine.Action) bool {
		return a.Actor == 2 && sender(a.Label) == "1"
	}, "threshold delivery 1>2")
	if preservesDecision(p, mustLayout(p), d0.To, d1b) {
		t.Error("the threshold-crossing delivery changes p2's decision")
	}
}

func TestPORLabelHelpers(t *testing.T) {
	if got := sender("deliver 1>2:0"); got != "1" {
		t.Errorf("sender(deliver 1>2:0) = %q", got)
	}
	if got := sender("crash p1"); got != "crash p1" {
		t.Errorf("sender without deliver prefix = %q", got)
	}
	if got := sender("deliver oops"); got != "oops" {
		t.Errorf("sender without '>' = %q", got)
	}
	if got := crashTarget("crash p2"); got != 2 {
		t.Errorf("crashTarget(crash p2) = %d", got)
	}
	if got := crashTarget("deliver 1>2:0"); got != -1 {
		t.Errorf("crashTarget on a delivery = %d", got)
	}
	if got := crashTarget("crash pX"); got != -1 {
		t.Errorf("crashTarget on junk = %d", got)
	}
}

func TestConfigFieldHelpers(t *testing.T) {
	l := mustLayout(NewWaitAll(3))
	c, ok := pack(l, encodeConfig(0, []string{"0--:-", "-1-:-", "--1:-"},
		[]envelope{{from: 0, to: 1, payload: "0"}, {from: 2, to: 0, payload: "1"}}))
	if !ok {
		t.Fatal("configuration does not pack")
	}
	for i, want := range []string{"0--:-", "-1-:-", "--1:-"} {
		if got := l.state(c, i); got != want {
			t.Errorf("state(%d) = %q, want %q", i, got, want)
		}
	}
	quiet := engine.Action{To: c[:len(c)-2], Actor: 1}
	if !sendFree(c, quiet) {
		t.Error("a successor one record shorter is send-free")
	}
	if sendFree(c, engine.Action{To: c, Actor: 1}) {
		t.Error("a successor as long as its source is not send-free")
	}
}

// TestAnalyzePORVerdictsMatch is the root soundness contract of the shipped
// relation: every boolean verdict is identical between the full and the
// POR-reduced analysis, for every protocol, resilience and worker count.
func TestAnalyzePORVerdictsMatch(t *testing.T) {
	protos := []Protocol{NewWaitAll(3), NewWaitQuorum(3), NewAdoptSwap(3)}
	for _, p := range protos {
		for _, resilience := range []int{0, 1} {
			base, err := Analyze(p, AnalyzeOptions{Resilience: intPtr(resilience)})
			if err != nil {
				t.Fatalf("%s r=%d: %v", p.Name(), resilience, err)
			}
			for _, workers := range []int{1, 2, 8} {
				rep, err := Analyze(p, AnalyzeOptions{
					Resilience:  intPtr(resilience),
					Parallelism: workers,
					Independent: DeliveryIndependence(p),
					Visible:     DecisionVisibility(p),
					VerifyPOR:   1,
				})
				if err != nil {
					t.Fatalf("%s r=%d workers=%d: %v", p.Name(), resilience, workers, err)
				}
				if rep.States > base.States || rep.Edges > base.Edges {
					t.Errorf("%s r=%d workers=%d: reduced graph larger than full (%d/%d vs %d/%d)",
						p.Name(), resilience, workers, rep.States, rep.Edges, base.States, base.Edges)
				}
				if rep.AgreementViolated != base.AgreementViolated ||
					rep.ValidityViolated != base.ValidityViolated ||
					rep.HasDeadlock != base.HasDeadlock ||
					(rep.NondecidingLasso != nil) != (base.NondecidingLasso != nil) ||
					rep.HasBivalentInitial != base.HasBivalentInitial ||
					rep.Lively != base.Lively {
					t.Errorf("%s r=%d workers=%d: verdicts diverged under POR:\nfull    %+v\nreduced %+v",
						p.Name(), resilience, workers, base, rep)
				}
			}
		}
	}
}

// TestPoisonedIndependenceCaught drops the send-conflict guard from the
// shipped relation — declaring a send-producing wake-up independent of other
// deliveries to the same process — and requires the engine's POR falsifier
// to reject the analysis deterministically at every worker count.
func TestPoisonedIndependenceCaught(t *testing.T) {
	p := NewAdoptSwap(2)
	poisoned := func(c string, a, b engine.Action) bool {
		if a.Actor == core.EnvironmentActor || b.Actor == core.EnvironmentActor {
			return false
		}
		if a.Actor != b.Actor {
			return true
		}
		// Missing guards: no sendFree, no preservesDecision. A wake-up mints
		// the ring send carrying the CURRENT value, so its order against a
		// value-adopting delivery is observable in the emitted messages.
		return sender(a.Label) != sender(b.Label)
	}
	for _, workers := range []int{1, 2, 8} {
		_, err := Analyze(p, AnalyzeOptions{
			Resilience:  intPtr(0),
			Parallelism: workers,
			Independent: poisoned,
			Visible:     DecisionVisibility(p),
			VerifyPOR:   1,
		})
		if err == nil {
			t.Fatalf("workers=%d: poisoned independence escaped the falsifier", workers)
		}
		if !errors.Is(err, engine.ErrPORUnsound) {
			t.Fatalf("workers=%d: got %v, want ErrPORUnsound", workers, err)
		}
	}
}

// TestBrokenIdempotenceCanonCaught feeds Analyze a canon that rotates the
// process-state vector one slot per application — sound-looking output,
// but not idempotent — and requires ErrCanonUnsound at every worker count.
func TestBrokenIdempotenceCanonCaught(t *testing.T) {
	l := mustLayout(NewWaitAll(2))
	rotate := func(c string) string {
		return c[:l.cw] + c[l.cw+l.w:l.hdr] + l.state(c, 0) + c[l.hdr:]
	}
	for _, workers := range []int{1, 2, 8} {
		_, err := Analyze(NewWaitAll(2), AnalyzeOptions{
			Resilience:  intPtr(0),
			Parallelism: workers,
			Canon:       rotate,
			VerifyCanon: 1,
		})
		if err == nil {
			t.Fatalf("workers=%d: non-idempotent canon escaped the falsifier", workers)
		}
		if !errors.Is(err, engine.ErrCanonUnsound) {
			t.Fatalf("workers=%d: got %v, want ErrCanonUnsound", workers, err)
		}
	}
}
