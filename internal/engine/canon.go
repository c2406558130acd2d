package engine

import (
	"errors"
	"fmt"
)

// Canonicalizer maps a state to the canonical representative of its symmetry
// orbit. When one is supplied via Options.Canon, the engine explores the
// quotient graph: every generated state is canonicalized before it is
// fingerprinted and interned, so an entire orbit of symmetric states
// collapses to one representative — the classic model-checking rendering of
// the paper's §2.4 symmetry arguments ("identical processes behave
// identically").
//
// A canonicalizer is sound for quotient exploration iff it is
//
//   - idempotent:      Canon(Canon(s)) == Canon(s), and
//   - step-commuting:  the multiset {Canon(u) : u ∈ succ(s)} equals
//     {Canon(u) : u ∈ succ(Canon(s))} for every reachable s,
//
// which together say Canon picks one representative per orbit of a symmetry
// of the transition relation. Under those two conditions (at every state of
// the FULL space) the quotient graph reaches a representative of every
// reachable orbit, preserves every orbit-invariant (symmetric) predicate,
// and is still explored deterministically at any worker count. Predicates
// that name a specific process (e.g. "process 0 is never locked out") are
// NOT orbit-invariant and must not be checked on a quotient graph.
//
// Options.VerifyCanon spot-checks both conditions during exploration. The
// check necessarily runs only on states the quotient exploration generates,
// so it refutes a broken canonicalizer whenever a violation is visible
// there — in practice almost any mis-specified permutation — but it is a
// falsifier, not a proof: a canonicalizer whose violations live entirely on
// orbit members the quotient never materializes can pass it while silently
// dropping reachable orbits (internal/flp's ValueSwapCanon on the wait
// protocols is the worked example, with the orbit loss demonstrated in its
// tests). Establishing soundness outright remains a per-system argument
// that the group generating Canon is an automorphism group.
type Canonicalizer func(string) string

// ErrCanonUnsound is wrapped by the error Explore returns when the
// VerifyCanon safety check catches a canonicalizer violating idempotence or
// step-commutation on a reachable state.
var ErrCanonUnsound = errors.New("engine: canonicalizer failed soundness check")

// BytesCanonicalizer is the byte-level form of Canonicalizer: it writes
// the canonical representative's encoding into dst[:0] and returns the
// grown slice, so the engine can canonicalize without materializing a
// string per generated state.
//
// Contract, in addition to the Canonicalizer soundness conditions:
//
//   - Agreement: string(f(nil, []byte(s))) == Canon(s) for every
//     reachable s — the string canonicalizer defines the quotient, the
//     byte form merely avoids the allocations. VerifyCanon cross-checks
//     the two on sampled states.
//   - The result must be backed by dst (never by src): callers compare it
//     against src and then reuse src's buffer.
//   - src must not be modified.
//
// Options.CanonBytes takes a func() BytesCanonicalizer factory, which the
// engine calls once per worker, so a stateful implementation (a scratch
// parser) stays single-threaded; a stateless one returns itself.
type BytesCanonicalizer func(dst, src []byte) []byte

// canonSuccessors returns the canonicalized successor multiset of s, sorted
// into a deterministic order via each state's fingerprint so two multisets
// can be compared positionally. Used only by the safety check; the hot
// exploration path never materializes successor slices.
func (e *explorer) canonSuccessors(s string) map[string]int {
	out := make(map[string]int)
	e.expand(s, CollectCtx(func(to, _ string, _ int) {
		out[e.canon(to)]++
	}))
	return out
}

// checkCanonBytes is the sampled check of the byte canon step: it
// materializes the raw state and its byte-level representative, verifies
// the byte and string canonicalizers agree, and then runs the regular
// soundness check on the raw state. Errors land in verifyErr like every
// sampled check.
func (e *explorer) checkCanonBytes(src, rep []byte) {
	raw := string(src)
	bytesRep := string(rep)
	if stringRep := e.canon(raw); stringRep != bytesRep {
		e.noteVerifyErr(fmt.Errorf("%w: CanonBytes disagrees with Canon at %v: bytes form gives %v, string form gives %v",
			ErrCanonUnsound, raw, bytesRep, stringRep))
		return
	}
	if err := e.checkCanon(raw); err != nil {
		e.noteVerifyErr(err)
	}
}

// checkCanon verifies the two soundness conditions at one sampled raw state:
// idempotence of canon at raw, and step-commutation between raw and its
// representative. raw states already equal to their representative are
// trivially sound (both conditions degenerate to identities), so callers
// skip them.
func (e *explorer) checkCanon(raw string) error {
	rep := e.canon(raw)
	if again := e.canon(rep); again != rep {
		return fmt.Errorf("%w: not idempotent at %v: Canon(s)=%v but Canon(Canon(s))=%v",
			ErrCanonUnsound, raw, rep, again)
	}
	succRaw := e.canonSuccessors(raw)
	succRep := e.canonSuccessors(rep)
	if len(succRaw) != len(succRep) {
		return fmt.Errorf("%w: not step-commuting at %v (rep %v): %d distinct canonical successors vs %d",
			ErrCanonUnsound, raw, rep, len(succRaw), len(succRep))
	}
	for s, n := range succRaw {
		if succRep[s] != n {
			return fmt.Errorf("%w: not step-commuting at %v (rep %v): canonical successor %v occurs %d times vs %d",
				ErrCanonUnsound, raw, rep, s, n, succRep[s])
		}
	}
	return nil
}

// noteVerifyErr records the first safety-check failure (canonicalizer or
// independence relation). The level barrier turns it into Explore's return
// error, so the *occurrence* of a failure by a given BFS depth is
// deterministic even though which offending state is reported first may
// vary with scheduling.
func (e *explorer) noteVerifyErr(err error) {
	e.verifyMu.Lock()
	if e.verifyErr == nil {
		e.verifyErr = err
	}
	e.verifyMu.Unlock()
}

// takeVerifyErr reads the sticky verify error under its lock.
func (e *explorer) takeVerifyErr() error {
	e.verifyMu.Lock()
	defer e.verifyMu.Unlock()
	return e.verifyErr
}
