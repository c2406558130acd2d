package flp

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/engine"
)

// This file provides symmetry canonicalizers over encoded configurations,
// for use with core.ExploreOptions.Canon / AnalyzeOptions.Canon. A
// canonicalizer maps each configuration to the minimum of its orbit under a
// relabeling group; engine.Canonicalizer documents the soundness contract
// (idempotent, step-commuting), and Options.VerifyCanon checks it on the
// fly. Relabeling a configuration is always well-defined — whether the
// relabeling is a *symmetry of the protocol* is a separate question, which
// is exactly what the engine's safety check answers (see ValueSwapCanon for
// a deliberate non-example).

// ProcessSymmetric is implemented by protocols whose processes run
// identical, identity-blind code, so that relabeling the processes by any
// permutation is a symmetry of the transition relation.
// AppendPermutedState appends state with every embedded process index j
// rewritten to perm[j], at the same width; AppendPermutedPayload does the
// same for a one-byte message payload (appending it unchanged when payloads
// carry no process ids). Both read their input without retaining it.
type ProcessSymmetric interface {
	AppendPermutedState(dst, state []byte, perm []int) []byte
	AppendPermutedPayload(dst, payload []byte, perm []int) []byte
}

// ValueSymmetric is implemented by protocols over binary inputs whose state
// and payload encodings support relabeling the values 0 <-> 1. As with
// ProcessSymmetric, implementing the relabeling does not assert it is a
// protocol symmetry: a protocol that breaks the tie between values (e.g. by
// deciding the minimum) relabels perfectly well but does not commute, and
// the engine's VerifyCanon rejects its value quotient.
type ValueSymmetric interface {
	SwapValuesState(state string) string
	SwapValuesPayload(payload string) string
}

// PermutationCanon returns the process-permutation canonicalizer for p: the
// representative of a configuration is the least encoding over all n!
// relabelings of the processes (states, crash mask, and message endpoints
// all permuted consistently). It is the string form of
// PermutationCanonBytes, safe for concurrent use, and errors when p does
// not declare ProcessSymmetric.
func PermutationCanon(p Protocol) (func(config) config, error) {
	factory, err := PermutationCanonBytes(p)
	if err != nil {
		return nil, err
	}
	pool := sync.Pool{New: func() any { return factory() }}
	return func(c config) config {
		f := pool.Get().(engine.BytesCanonicalizer)
		defer pool.Put(f)
		return string(f(nil, []byte(c)))
	}, nil
}

// PermutationCanonBytes returns a per-worker factory of byte-level
// process-permutation canonicalizers, the one implementation behind
// PermutationCanon (pass both to AnalyzeOptions / core.ExploreOptions:
// Canon defines the quotient, CanonBytes keeps the hot path free of string
// materialization). Each canonicalizer permutes the packed bytes directly
// and owns its scratch buffers, so a factory instance must not be shared
// across goroutines — the engine calls the factory once per worker. It
// panics on a configuration the layout cannot hold, and errors when p does
// not declare ProcessSymmetric or breaks the Protocol contract.
func PermutationCanonBytes(p Protocol) (func() engine.BytesCanonicalizer, error) {
	ps, ok := p.(ProcessSymmetric)
	if !ok {
		return nil, fmt.Errorf("flp: protocol %s does not implement ProcessSymmetric", p.Name())
	}
	l, err := newLayout(p)
	if err != nil {
		return nil, err
	}
	n := l.n
	perms := permutations(n)
	// invs[k][r] is the process whose state lands in slot r under perms[k].
	invs := make([][]int, len(perms))
	for k, pi := range perms {
		inv := make([]int, n)
		for q, r := range pi {
			inv[r] = q
		}
		invs[k] = inv
	}
	return func() engine.BytesCanonicalizer {
		var cand, pay []byte
		var recs []uint16
		return func(dst, src []byte) []byte {
			// c views src for the checks below and is not kept.
			c := unsafe.String(unsafe.SliceData(src), len(src))
			if !l.valid(c) {
				notProduced(string(src))
			}
			best := append(dst[:0], src...)
			crashed := l.crashMask(c)
			for k, pi := range perms[1:] { // perms[0] is the identity
				inv := invs[k+1]
				newCrashed := 0
				for q := 0; q < n; q++ {
					if crashed&(1<<q) != 0 {
						newCrashed |= 1 << pi[q]
					}
				}
				// Prefix gate: the crash field and every state sit at the
				// same offsets in every candidate, so a candidate whose
				// prefix sorts after best's has lost, and the rest of it is
				// never rendered. Most of the n!-1 candidates die within
				// the crash field or the first slots.
				cand = l.appendCrash(cand[:0], newCrashed)
				cmp := bytes.Compare(cand, best[:l.cw])
				for r := 0; r < n && cmp <= 0; r++ {
					o, start := l.cw+inv[r]*l.w, len(cand)
					cand = ps.AppendPermutedState(cand, src[o:o+l.w], pi)
					if len(cand) != start+l.w {
						panic(fmt.Sprintf("flp: protocol %s: a permuted state of %q changed width", p.Name(), c))
					}
					if cmp == 0 {
						cmp = bytes.Compare(cand[start:], best[start:start+l.w])
					}
				}
				if cmp > 0 {
					continue
				}
				recs = recs[:0]
				for i := l.hdr; i < len(src); i += 2 {
					ft, py := src[i], src[i+1]
					if py != 0 {
						pay = ps.AppendPermutedPayload(pay[:0], src[i+1:i+2], pi)
						if len(pay) != 1 || pay[0] == 0 {
							panic(fmt.Sprintf("flp: protocol %s: permuted payload %q is not one non-zero byte", p.Name(), pay))
						}
						py = pay[0]
					}
					r := uint16(pi[ft>>4]<<4|pi[ft&15])<<8 | uint16(py)
					j := len(recs)
					recs = append(recs, r)
					for ; j > 0 && recs[j-1] > r; j-- {
						recs[j] = recs[j-1]
					}
					recs[j] = r
				}
				for j := 0; cmp == 0 && j < len(recs); j++ {
					b := uint16(best[l.hdr+2*j])<<8 | uint16(best[l.hdr+2*j+1])
					switch {
					case recs[j] < b:
						cmp = -1
					case recs[j] > b:
						cmp = 1
					}
				}
				if cmp < 0 {
					best = append(best[:0], cand...)
					for _, r := range recs {
						best = append(best, byte(r>>8), byte(r))
					}
				}
			}
			return best
		}
	}, nil
}

// AppendPermutedState implements ProcessSymmetric: the collected-values
// prefix is indexed by process, so slot j moves to slot perm[j]; the
// decision suffix is index-free.
func (w *waitProto) AppendPermutedState(dst, state []byte, perm []int) []byte {
	off := len(dst)
	dst = append(dst, state...)
	for j := 0; j < w.n; j++ {
		dst[off+perm[j]] = state[j]
	}
	return dst
}

// AppendPermutedPayload implements ProcessSymmetric; payloads are bare
// value characters.
func (w *waitProto) AppendPermutedPayload(dst, payload []byte, _ []int) []byte {
	return append(dst, payload...)
}

// ValueSwapCanon returns the value-relabeling (0 <-> 1) canonicalizer for
// p: the representative is the lesser of a configuration and its fully
// value-swapped image. It errors when p does not declare ValueSymmetric.
//
// Value swapping is a genuine symmetry only of value-blind protocols
// (AdoptSwap decides on a match, which is equivariant); the wait protocols
// decide the *minimum* value seen, which relabeling does not commute with —
// their value quotient is unsound and silently drops reachable orbits.
// Instructively, VerifyCanon does NOT catch this one: the commutation
// violations sit at configurations like "p0 decided 0 from values 10" whose
// swapped images ("decided 1 from values 01") the protocol can never
// produce, so the quotient never generates the offending orbit members for
// the sampled check to examine. The package tests pin the unsoundness down
// the direct way instead, by exhibiting a reachable orbit the quotient
// misses. Keep this canonicalizer for protocols that are actually
// value-blind — and treat a passing VerifyCanon as evidence, not proof.
func ValueSwapCanon(p Protocol) (func(config) config, error) {
	vs, ok := p.(ValueSymmetric)
	if !ok {
		return nil, fmt.Errorf("flp: protocol %s does not implement ValueSymmetric", p.Name())
	}
	l, err := newLayout(p)
	if err != nil {
		return nil, err
	}
	return func(c config) config {
		if !l.valid(c) {
			notProduced(c)
		}
		buf := []byte(c[:l.cw])
		for q := 0; q < l.n; q++ {
			buf = append(buf, vs.SwapValuesState(l.state(c, q))...)
		}
		recs := make([]uint16, 0, (len(c)-l.hdr)/2)
		for i := l.hdr; i < len(c); i += 2 {
			py := c[i+1]
			if py != 0 {
				py = vs.SwapValuesPayload(c[i+1 : i+2])[0]
			}
			recs = append(recs, uint16(c[i])<<8|uint16(py))
		}
		slices.Sort(recs)
		for _, r := range recs {
			buf = append(buf, byte(r>>8), byte(r))
		}
		if enc := string(buf); enc < c {
			return enc
		}
		return c
	}, nil
}

// permutations returns all permutations of [0, n) in a deterministic
// order, identity first.
func permutations(n int) [][]int {
	cur := make([]int, n)
	for i := range cur {
		cur[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := k; i < n; i++ {
			cur[k], cur[i] = cur[i], cur[k]
			rec(k + 1)
			cur[k], cur[i] = cur[i], cur[k]
		}
	}
	rec(0)
	return out
}

// SwapValuesState implements ValueSymmetric (see ValueSwapCanon for why the
// resulting quotient is nonetheless unsound for the wait protocols).
func (w *waitProto) SwapValuesState(state string) string {
	return swapBinaryChars(state)
}

// SwapValuesPayload implements ValueSymmetric.
func (w *waitProto) SwapValuesPayload(payload string) string {
	return swapBinaryChars(payload)
}

// SwapValuesState implements ValueSymmetric: value char + decision char,
// both relabeled.
func (a *adoptSwap) SwapValuesState(state string) string {
	return swapBinaryChars(state)
}

// SwapValuesPayload implements ValueSymmetric.
func (a *adoptSwap) SwapValuesPayload(payload string) string {
	return swapBinaryChars(payload)
}

func swapBinaryChars(s string) string {
	out := []byte(s)
	for i, b := range out {
		switch b {
		case '0':
			out[i] = '1'
		case '1':
			out[i] = '0'
		}
	}
	return string(out)
}
