package flp

import (
	"bytes"
	"fmt"
	"math/bits"
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
// permutation is a symmetry of the transition relation, and whose encodings
// keep process ids in one declared place: the first NumProcs bytes of every
// local state are indexed by process (under a relabeling perm, byte j moves
// to byte perm[j]), while the state's remaining bytes and every payload
// carry no process id and stay as they are. PermutationCanonBytes relies on
// exactly this layout to relabel a configuration one state at a time; the
// method only declares it.
type ProcessSymmetric interface {
	ProcessIndexedPrefix()
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
// materialization). Each canonicalizer finds the least relabeling by
// individualization and refinement (see labeler) instead of rendering all
// n! of them, and owns its scratch buffers, so a factory instance must not
// be shared across goroutines — the engine calls the factory once per
// worker. It panics on a configuration the layout cannot hold, and errors
// when p does not declare ProcessSymmetric or breaks the Protocol contract.
func PermutationCanonBytes(p Protocol) (func() engine.BytesCanonicalizer, error) {
	if _, ok := p.(ProcessSymmetric); !ok {
		return nil, fmt.Errorf("flp: protocol %s does not implement ProcessSymmetric", p.Name())
	}
	l, err := newLayout(p)
	if err != nil {
		return nil, err
	}
	if l.w < l.n {
		return nil, fmt.Errorf("flp: protocol %s: %d-byte states cannot start with %d process-indexed bytes", p.Name(), l.w, l.n)
	}
	orders := slotOrders(l)
	return func() engine.BytesCanonicalizer {
		s := &labeler{l: l, orders: orders, cand: make([]byte, l.w)}
		return s.canon
	}, nil
}

// The least relabeling of a configuration is found slot by slot, the way
// scalarset and graph canonizers do it (individualize, then refine):
//
//   - Crash field. It is compared first, and for each crash count one mask
//     has the least rank, so a least relabeling moves the crashed
//     processes onto exactly that mask's slots. The search starts from two
//     cells, crashed and alive, each bound to its own set of slots.
//   - Rows. Slot r holds the relabeled state of some process x from r's
//     cell, and that row's process-indexed bytes are x's bytes about every
//     process, read in slot order. Within a cell the processes may still go
//     to the cell's slots in any order, so the least row for x sorts each
//     cell by x's byte about its processes, lowest value to lowest slot.
//     Splitting every cell that way (refinement) leaves rows 0..r fixed by
//     every completion. Of the candidates x, only those with the least row
//     are searched further, and they are pruned only when that row sorts
//     strictly after the best row at r.
//   - Ties. Candidates whose rows tie all reach a leaf, a full relabeling,
//     and there the relabeled message records, emitted in sorted order,
//     break the tie.
//
// A relabeling outside the search breaks some split, so one of its rows
// sorts strictly after the row the split gives; the search therefore
// returns the same least encoding as trying every permutation, which
// reference_test.go's n! search checks.

// slotOrder is a fixed arrangement of the slots for one crash count: the
// search's cells are runs of virtual indices, and virtual index v stands
// for slot pos[v]. The least-rank crash mask's slots come first, then the
// rest, each ascending, so every later split of a cell into runs gives its
// lower run the lower slots.
type slotOrder struct {
	pos   [maxProcs]uint8 // virtual index -> slot
	at    [maxProcs]uint8 // slot -> virtual index
	mask  int             // the least-rank crash mask of this count
	cells uint32          // the two starting cells (see partition.cells)
}

// slotOrders returns l's slot order for every crash count 0..n.
func slotOrders(l *layout) []slotOrder {
	orders := make([]slotOrder, l.n+1)
	found := make([]bool, l.n+1)
	for _, m := range l.mask { // rank order: the first of each count is least
		k := countBits(int(m))
		if found[k] {
			continue
		}
		found[k] = true
		o := &orders[k]
		o.mask, o.cells = int(m), 1|1<<l.n|1<<k
		v := 0
		for _, crashed := range []bool{true, false} {
			for r := 0; r < l.n; r++ {
				if (int(m)>>r&1 == 1) == crashed {
					o.pos[v], o.at[r] = uint8(r), uint8(v)
					v++
				}
			}
		}
	}
	return orders
}

// partition is an ordered partition of the processes over virtual indices:
// lab[v] is the process at virtual index v, and bit v of cells is set when
// a cell starts at v (bit n always is, ending the last cell).
type partition struct {
	lab   [maxProcs]uint8
	cells uint32
}

// cellEnd returns the end of the cell that starts at v.
func (p *partition) cellEnd(v int) int {
	return v + 1 + bits.TrailingZeros32(p.cells>>(v+1))
}

// refine splits every cell of p by key, a byte per process: each cell is
// sorted by key and cut where the key changes.
func (p *partition) refine(key []byte, n int) {
	// Bit i of inner is set when virtual index i continues a cell; each
	// run of set bits starting at i is the cell [i-1, end of the run).
	inner := ^p.cells & (1<<n - 1)
	for inner != 0 {
		a := bits.TrailingZeros32(inner) - 1
		b := a + 1 + bits.TrailingZeros32(^(inner >> (a + 1)))
		inner &^= 1<<b - 1
		for i := a + 1; i < b; i++ {
			q := p.lab[i]
			j := i
			for ; j > a && key[p.lab[j-1]] > key[q]; j-- {
				p.lab[j] = p.lab[j-1]
			}
			p.lab[j] = q
		}
		for i := a + 1; i < b; i++ {
			if key[p.lab[i]] != key[p.lab[i-1]] {
				p.cells |= 1 << i
			}
		}
	}
}

// labeler is one worker's canonicalizer: the search state of one call,
// kept between calls so that a call allocates nothing once warm.
type labeler struct {
	l      *layout
	orders []slotOrder
	ord    *slotOrder
	src    []byte // the configuration being canonicalized
	cur    []byte // crash field and rows of the current search path
	best   []byte // the least relabeling found so far (the result)
	cand   []byte // one candidate row
	// first[q*n+t] is the index of src's first message record from q to t
	// or after; records are sorted by (from, to, payload), so the records
	// from q to t are first[q*n+t] up to first[q*n+t+1].
	first [maxProcs*maxProcs + 1]int32
	// parts[r] is the partition before slot r is filled; tied[r] holds the
	// partitions after it, one for each process that gives slot r its
	// least row.
	parts [maxProcs + 1]partition
	tied  [maxProcs][maxProcs]partition
}

// canon is the engine.BytesCanonicalizer.
func (s *labeler) canon(dst, src []byte) []byte {
	l := s.l
	// c views src for the checks below and is not kept.
	c := unsafe.String(unsafe.SliceData(src), len(src))
	if !l.valid(c) {
		notProduced(string(src))
	}
	crashed := l.crashMask(c)
	s.ord, s.src = &s.orders[countBits(crashed)], src
	p := &s.parts[0]
	p.cells = s.ord.cells
	v := 0
	for _, bit := range [2]int{1, 0} {
		for q := 0; q < l.n; q++ {
			if crashed>>q&1 == bit {
				p.lab[v] = uint8(q)
				v++
			}
		}
	}
	k := 0
	for i := l.hdr; i < len(src); i += 2 {
		for key := int(src[i]>>4)*l.n + int(src[i]&15); k <= key; k++ {
			s.first[k] = int32(i-l.hdr) / 2
		}
	}
	for ; k <= l.n*l.n; k++ {
		s.first[k] = int32(len(src)-l.hdr) / 2
	}
	s.cur = l.appendCrash(s.cur[:0], s.ord.mask)
	s.cur = append(s.cur, src[l.cw:l.hdr]...) // sized: search writes every row
	// best takes src's length here and its bytes at the first leaf: no
	// row is compared with it before then (cmp starts below zero).
	s.best = append(dst[:0], src...)
	s.search(0, -1)
	best := s.best
	s.src, s.best = nil, nil // keep no caller buffer past the call
	return best
}

// individualize sets parts[r+1] to parts[r] with the process at virtual
// index i placed at slot r and every cell split by that process's state,
// and writes the row slot r then holds into row.
func (s *labeler) individualize(r, i int, row []byte) {
	l, ord := s.l, s.ord
	next := &s.parts[r+1]
	*next = s.parts[r]
	v := int(ord.at[r])
	next.lab[v], next.lab[i] = next.lab[i], next.lab[v]
	next.cells |= 1 << (v + 1)
	x := int(next.lab[v])
	sx := s.src[l.cw+x*l.w : l.cw+(x+1)*l.w]
	next.refine(sx, l.n)
	for k := 0; k < l.n; k++ {
		row[k] = sx[next.lab[ord.at[k]]]
	}
	copy(row[l.n:], sx[l.n:])
}

// search fills slot r and below. cmp compares the current path's rows
// before r with best's: 0 equal, below zero less (best is then stale or
// not yet set). It reports whether a leaf under it replaced best.
func (s *labeler) search(r, cmp int) bool {
	l := s.l
	if r == l.n {
		return s.leaf(cmp)
	}
	o := l.cw + r*l.w
	row, bestRow := s.cur[o:o+l.w], s.best[o:o+l.w]
	v := int(s.ord.at[r]) // slots before r are singletons, so v starts its cell
	// Every candidate's row first: only the candidates with the least row
	// can lead to the least relabeling. tied keeps their partitions.
	tied, nt := &s.tied[r], 0
	for i, end := v, s.parts[r].cellEnd(v); i < end; i++ {
		if nt == 0 {
			s.individualize(r, i, row)
		} else {
			s.individualize(r, i, s.cand)
			switch bytes.Compare(s.cand, row) {
			case -1:
				copy(row, s.cand)
				nt = 0
			case 1:
				continue
			}
		}
		tied[nt] = s.parts[r+1]
		nt++
	}
	if cmp == 0 {
		if cmp = bytes.Compare(row, bestRow); cmp > 0 {
			return false
		}
	}
	replaced := false
	for j := 0; j < nt; j++ {
		s.parts[r+1] = tied[j]
		if s.search(r+1, cmp) {
			// best now shares this path's rows up to r: later siblings
			// compare against it from "equal", not from "already less".
			replaced, cmp = true, 0
		}
	}
	return replaced
}

// leaf emits the message records relabeled by the full relabeling the
// search reached, in sorted order, and replaces best when they and the
// rows sort before it.
func (s *labeler) leaf(cmp int) bool {
	l, ord := s.l, s.ord
	lab := &s.parts[l.n].lab
	j := l.hdr
	for f := 0; f < l.n; f++ {
		qf := int(lab[ord.at[f]]) * l.n
		for t := 0; t < l.n; t++ {
			key := qf + int(lab[ord.at[t]])
			ft := byte(f<<4 | t)
			for i := s.first[key]; i < s.first[key+1]; i++ {
				py := s.src[l.hdr+2*int(i)+1]
				if cmp == 0 {
					switch b0, b1 := s.best[j], s.best[j+1]; {
					case ft > b0 || ft == b0 && py > b1:
						return false
					case ft < b0 || py < b1:
						cmp = -1 // records from j on overwrite best's
					}
				}
				s.best[j], s.best[j+1] = ft, py
				j += 2
			}
		}
	}
	if cmp == 0 {
		return false
	}
	copy(s.best, s.cur)
	return true
}

// ProcessIndexedPrefix implements ProcessSymmetric: the collected-values
// prefix is indexed by process; the decision suffix and the value payloads
// are index-free.
func (w *waitProto) ProcessIndexedPrefix() {}

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
