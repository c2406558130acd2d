package flp

import (
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
)

// DeliveryIndependence builds the independence relation for p's
// configuration graph, enabling ample-set partial-order reduction of the
// delivery interleavings (engine.Independence; see
// AnalyzeOptions.Independent, and ALWAYS pair it with DecisionVisibility —
// the relation leans on the visibility hook for its C2 obligation). The
// rules:
//
//   - crashes: two crashes conflict (the resilience budget makes each
//     disable the other), and a crash conflicts with every delivery to the
//     crashed process (the crash disables the delivery). Crash–delivery
//     pairs with distinct targets commute.
//   - distinct receivers: independent. Each delivery rewrites only its own
//     receiver's local state, so the forward diamond closes state-wise even
//     when one of them emits messages.
//   - same receiver: independent only for send-free deliveries from
//     distinct senders that both preserve the receiver's decision. The wait
//     protocols accumulate the SET of received values, not the order, so
//     two such deliveries are commuting writes into the receiver's value
//     table — while a threshold-crossing delivery decides on whichever
//     value set happens to be present, so its queue position is the whole
//     point, and a send-producing delivery (a wake-up) floods every queue.
//     Send-freedom is detected positionally: the in-flight multiset must
//     shrink by exactly one.
//
// Decision visibility (the C2 obligation) is deliberately NOT folded into
// the relation: a decision-changing delivery still commutes state-wise with
// other processes' events, it just must not be deferred INTO an ample set —
// that is DecisionVisibility's job, and keeping it out of the dependence
// components is what lets the decision-free remainder of a receiver's queue
// still reduce.
//
// Soundness fine print: the forward-diamond half of the contract holds for
// every declared pair (VerifyPOR can confirm it exhaustively), but the C1
// persistence half is NOT theorem-grade here. A deferred send-producing
// delivery mints fresh messages for a receiver whose quiet deliveries were
// serialized as an ample set, and deep in that deferred future a minted
// message can become the receiver's threshold-crossing delivery — an action
// dependent on the long-taken ample set. Closing that leak syntactically
// (declaring send-producers dependent on everything) provably restores C1
// but collapses the reduction to ≈1.3× because every wake-up chains the
// components together. The shipped relation instead carries an empirical
// contract: the six analyzer verdicts (bivalence, agreement, validity,
// lasso, deadlock, liveness) are byte-identical between full and reduced
// runs for every shipped protocol at every tested size and resilience, and
// the root-level verdict-equality tests pin exactly that. See DESIGN.md's
// "Independence contract" for the full obligation ledger.
//
// The FLP configuration spaces are leveled DAGs (each event consumes
// exactly one unit of the in-flight + crash-budget measure), so the
// engine's cycle proviso never vetoes a component.
//
// Resilience note: at resilience ≥ 1 the crash-free configurations admit no
// proper ample set at all — crashes are pairwise dependent and each crash
// is dependent on the deliveries to its victim, chaining every component
// together — and since every post-crash configuration is crash(c) of a
// reachable crash-free c (crashes postpone freely), the reduced space
// equals the full space: the adversary's crash choice is irreducibly
// dependent on everything, which is the valency argument's freedom in
// miniature. The reduction therefore pays off on the crash-free
// (resilience 0) interleaving spaces and composes with the symmetry
// quotient everywhere.
func DeliveryIndependence(p Protocol) engine.Independence {
	l := mustLayout(p)
	return func(c string, a, b engine.Action) bool {
		aCrash := a.Actor == core.EnvironmentActor
		bCrash := b.Actor == core.EnvironmentActor
		if aCrash && bCrash {
			return false
		}
		if aCrash || bCrash {
			crash, del := a, b
			if bCrash {
				crash, del = b, a
			}
			return crashTarget(crash.Label) != del.Actor
		}
		if a.Actor != b.Actor {
			return true
		}
		// Same receiver: independent only for quiet deliveries from
		// distinct senders that both preserve the receiver's decision —
		// those are commuting writes into its value table (the protocol
		// state accumulates what was received, not in which order), while a
		// threshold-crossing delivery decides on whichever value set
		// happens to be present, so its position in the queue is the whole
		// point.
		return sendFree(c, a) && sendFree(c, b) &&
			preservesDecision(p, l, c, a) && preservesDecision(p, l, c, b) &&
			sender(a.Label) != sender(b.Label)
	}
}

// preservesDecision reports that delivery d leaves its receiver's decision
// status and value unchanged.
func preservesDecision(p Protocol, l *layout, c string, d engine.Action) bool {
	before, bok := p.Decide(d.Actor, l.state(c, d.Actor))
	after, aok := p.Decide(d.Actor, l.state(d.To, d.Actor))
	return bok == aok && before == after
}

// sender extracts the sending process from a "deliver f>t:payload" label.
func sender(label string) string {
	rest, ok := strings.CutPrefix(label, "deliver ")
	if !ok {
		return label
	}
	if i := strings.IndexByte(rest, '>'); i >= 0 {
		return rest[:i]
	}
	return rest
}

// DecisionVisibility builds the visibility predicate paired with
// DeliveryIndependence (engine.Visibility; see AnalyzeOptions.Visible): a
// delivery is visible iff it changes its receiver's decision status or
// value, which is the only thing any analyzer predicate (valence,
// agreement, validity, non-deciding lasso) reads from a configuration.
// Crashes change no predicate and are invisible.
func DecisionVisibility(p Protocol) engine.Visibility {
	l := mustLayout(p)
	return func(c string, a engine.Action) bool {
		if a.Actor == core.EnvironmentActor {
			return false
		}
		before, bok := p.Decide(a.Actor, l.state(c, a.Actor))
		after, aok := p.Decide(a.Actor, l.state(a.To, a.Actor))
		return bok != aok || before != after
	}
}

// sendFree reports that delivery d consumed its message without emitting
// new ones: its successor is one two-byte message record shorter.
func sendFree(c string, d engine.Action) bool {
	return len(d.To) == len(c)-2
}

// crashTarget parses the crashed process out of a "crash pN" label, or -1.
func crashTarget(label string) int {
	rest, ok := strings.CutPrefix(label, "crash p")
	if !ok {
		return -1
	}
	n, err := strconv.Atoi(rest)
	if err != nil {
		return -1
	}
	return n
}
