package spacegen

import "repro/internal/engine"

// This file is the only engine-facing surface of the package: it adapts a
// generated Space onto engine.Differential. The generator core stays
// engine-free so the construction (and its planted truth) can be reasoned
// about — and reused — without reference to the system under test.

// ExpandFunc returns sp.Expand in the engine's expansion-context form.
func (sp *Space) ExpandFunc() engine.ExpandFunc {
	return func(s string, x *engine.Ctx) {
		sp.Expand(s, func(to, label string, actor int) { x.Emit(to, label, actor) })
	}
}

// Spec wires the space, its sound reduction hooks and its planted truth
// into a differential-oracle spec. Callers may override Workers or
// MaxStates on the returned value.
func (sp *Space) Spec() engine.DiffSpec {
	truth := engine.DiffTruth{
		States:            sp.Truth.States,
		Terminals:         sp.Truth.Terminals,
		Decided:           sp.Truth.Decided,
		QuotientStates:    sp.Truth.QuotientStates,
		QuotientTerminals: sp.Truth.QuotientTerminals,
		QuotientDecided:   sp.Truth.QuotientDecided,
	}
	return engine.DiffSpec{
		Name:        sp.Describe(),
		Inits:       []string{sp.Init()},
		Expand:      sp.ExpandFunc(),
		Canon:       sp.Canon(),
		Independent: AdaptIndependence(sp.Independence()),
		Decided:     sp.DecidedState,
		Truth:       &truth,
		// Every oracle arm runs the buffer-aliasing falsifier: generated
		// spaces materialize their emissions, so a trip here would point at
		// the engine's own scratch handling.
		VerifyAliasing: 1,
	}
}

// AdaptIndependence lifts an actor-level independence relation into the
// engine's action-level form (the generator's relations depend only on the
// acting components).
func AdaptIndependence(f func(s string, aActor, bActor int) bool) engine.Independence {
	return func(s string, a, b engine.Action) bool {
		return f(s, a.Actor, b.Actor)
	}
}
