package store

import (
	"sync"
	"sync/atomic"
)

// The bitstate backend is the lossy sweep: the visited set keys on the
// (optionally truncated) fingerprint alone and never confirms a hit
// against the real payload, so two distinct states sharing a fingerprint
// silently merge — the second one is dropped along with its entire
// subtree. This is SPIN's bitstate-hashing trade: a fixed, tiny index in
// exchange for giving up exactness. Every Stats it reports carries
// Lossy=true, which downstream layers must translate into "no violation
// found", never "violation impossible"; engine.Differential refuses the
// backend unless the caller opts into AllowLossy.
//
// Payloads of the states that *are* kept still go into the paged table —
// the engine must expand and replay them — so bitstate bounds the index,
// not the payload bytes. Under a collision-free fingerprint the backend is
// exact and deterministic; with collisions (e.g. a small FingerprintBits
// mask) the surviving payload of a colliding pair is first-intern-wins,
// which under parallel exploration can depend on scheduling. That
// nondeterminism is part of the documented unsoundness, not a bug to fix.

// bitEntryOverhead approximates the per-state index cost of a bitstate
// entry (map bucket share plus id).
const bitEntryOverhead = 24

type bitShard struct {
	mu sync.Mutex
	m  map[uint64]int32
}

type bitStore[S comparable] struct {
	shards   []*bitShard
	mask     uint64
	fpMask   uint64
	fpBits   int
	fp       func(S) uint64
	isString bool
	counter  atomic.Int64
	pages    pagetab[S]
	bytes    atomic.Int64
}

func newBitStore[S comparable](cfg Config, shards int, fp func(S) uint64) *bitStore[S] {
	var zero S
	_, isString := any(zero).(string)
	st := &bitStore[S]{
		shards:   make([]*bitShard, shards),
		mask:     uint64(shards - 1),
		fpMask:   ^uint64(0),
		fp:       fp,
		isString: isString,
	}
	st.pages.init(firstPageBits, defaultPageBits)
	if cfg.FingerprintBits > 0 && cfg.FingerprintBits < 64 {
		st.fpBits = cfg.FingerprintBits
		st.fpMask = 1<<uint(cfg.FingerprintBits) - 1
	}
	for i := range st.shards {
		st.shards[i] = &bitShard{m: make(map[uint64]int32)}
	}
	return st
}

func (st *bitStore[S]) Intern(s S) (int32, bool) {
	h := st.fp(s) & st.fpMask
	sh := st.shards[h&st.mask]
	sh.mu.Lock()
	if id, ok := sh.m[h]; ok {
		sh.mu.Unlock()
		return id, false
	}
	id := int32(st.counter.Add(1) - 1)
	sh.m[h] = id
	st.pages.set(id, s)
	st.bytes.Add(sizeOf(s) + bitEntryOverhead)
	sh.mu.Unlock()
	return id, true
}

// BytesSupported reports whether InternBytes is usable (string states).
func (st *bitStore[S]) BytesSupported() bool { return st.isString }

// InternBytes is the zero-copy intern path (see store.BytesInterner). The
// bitstate index trusts the (masked) fingerprint alone, so a hit costs one
// map lookup and allocates nothing; only the first state of each
// fingerprint class materializes its payload.
func (st *bitStore[S]) InternBytes(h uint64, b []byte) (int32, bool) {
	h &= st.fpMask
	sh := st.shards[h&st.mask]
	sh.mu.Lock()
	if id, ok := sh.m[h]; ok {
		sh.mu.Unlock()
		return id, false
	}
	id := int32(st.counter.Add(1) - 1)
	sh.m[h] = id
	s := any(string(b)).(S)
	st.pages.set(id, s)
	st.bytes.Add(sizeOf(s) + bitEntryOverhead)
	sh.mu.Unlock()
	return id, true
}

func (st *bitStore[S]) State(id int32) S { return st.pages.get(id) }

func (st *bitStore[S]) Probe(s S) (int32, bool) {
	h := st.fp(s) & st.fpMask
	sh := st.shards[h&st.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	id, ok := sh.m[h]
	if !ok {
		return -1, false
	}
	return id, true
}

func (st *bitStore[S]) Len() int { return int(st.counter.Load()) }

func (st *bitStore[S]) Stats() Stats {
	return Stats{
		Kind:            Bitstate,
		States:          st.Len(),
		BytesInRAM:      st.bytes.Load(),
		Lossy:           true,
		FingerprintBits: st.fpBits,
	}
}

func (st *bitStore[S]) Maintain(int32) error { return nil }
func (st *bitStore[S]) Err() error           { return nil }
func (st *bitStore[S]) Close() error         { return nil }
