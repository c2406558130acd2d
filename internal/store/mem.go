package store

import (
	"sync"
	"sync/atomic"
)

// indexInitSlots is the initial open-addressing table size per shard:
// small, because most explorations are tiny and a table doubles cheaply.
const indexInitSlots = 16

// indexSlotBytes is one index slot's footprint: an 8-byte fingerprint and
// a 4-byte id.
const indexSlotBytes = 12

// index is the fingerprint -> id table every backend keys its shards on:
// open addressing with linear probing and no deletion, over two flat,
// pointer-free arrays the garbage collector never scans. fps[i] is the
// fingerprint of the occupant of slot i and ids[i] its id+1, so 0 marks an
// empty slot. Equal fingerprints of distinct states (a real 64-bit
// collision, a masked bitstate fingerprint, or the test-only degraded
// one) occupy separate slots; first and next hand them out one at a time,
// so the backend confirms each against its payload (or, lossy, trusts the
// first) inside one probe loop. Not safe for concurrent use: each shard
// serializes access through its mutex.
type index struct {
	fps  []uint64
	ids  []int32
	used int
	// bytes is the arrays' footprint, indexSlotBytes per slot. It is
	// atomic so Stats can read it during a level without the shard lock.
	bytes atomic.Int64
}

// start returns the slot where h's probe sequence begins, unmasked.
// The low byte of h selects the shard, so the start uses the bits above it
// to keep the within-shard spread independent of the sharding.
func (x *index) start(h uint64) int { return int(h >> 8) }

// first returns the slot and id of the first occupant of h's probe
// sequence whose fingerprint is h, or the empty slot that ends the
// sequence and -1. The backend confirms the candidate against its payload
// and, refusing it, asks for the next.
func (x *index) first(h uint64) (int, int32) { return x.find(h, x.start(h)) }

// next is first resumed after the refused candidate in slot i.
func (x *index) next(h uint64, i int) (int, int32) { return x.find(h, i+1) }

// find walks h's probe sequence from slot i (masked) to the first occupant
// whose fingerprint is h or to the empty slot that ends the sequence.
func (x *index) find(h uint64, i int) (int, int32) {
	mask := len(x.ids) - 1
	for i &= mask; ; i = (i + 1) & mask {
		idp := x.ids[i]
		if idp == 0 {
			return i, -1
		}
		if x.fps[i] == h {
			return i, idp - 1
		}
	}
}

// insert records (h, id) in the empty slot i that first or next returned,
// doubling the table once it is 13/16 full.
func (x *index) insert(i int, h uint64, id int32) {
	x.fps[i] = h
	x.ids[i] = id + 1
	x.used++
	if x.used*16 >= len(x.ids)*13 {
		x.grow()
	}
}

// grow doubles the table (or allocates its first indexInitSlots slots)
// and reinserts every occupant.
func (x *index) grow() {
	oldFps, oldIds := x.fps, x.ids
	n := max(2*len(oldIds), indexInitSlots)
	x.fps = make([]uint64, n)
	x.ids = make([]int32, n)
	x.bytes.Store(int64(n) * indexSlotBytes)
	for j, idp := range oldIds {
		if idp == 0 {
			continue
		}
		h := oldFps[j]
		i := x.start(h) & (n - 1)
		for x.ids[i] != 0 {
			i = (i + 1) & (n - 1)
		}
		x.fps[i] = h
		x.ids[i] = idp
	}
}

// memShard is one stripe of the mem and bitstate visited set: its index
// and, for string states, a slab arena holding the payload bytes.
type memShard struct {
	mu    sync.Mutex
	idx   index
	arena slab
}

// memStore is the RAM-resident backend, exact (mem) or lossy (bitstate):
// index shards over the shared paged id -> payload table. String payloads
// are copied into per-shard slab arenas and stored as zero-copy views, so
// the hot intern path allocates only on chunk turnover and table growth.
//
// The bitstate sweep is this store with payload confirmation off: a
// fingerprint match, optionally truncated to FingerprintBits, is trusted,
// so two distinct states sharing it silently merge and the second is
// dropped with its entire subtree. That is SPIN's bitstate-hashing trade.
// The states it keeps still store their payloads (the engine must expand
// and replay them), so bitstate bounds the index, not the payload bytes.
// Every Stats it reports carries Lossy, which downstream layers must
// translate into "no violation found", never "violation impossible";
// engine.Differential refuses it unless the caller opts into AllowLossy.
// Under a collision-free fingerprint it is exact and deterministic; with
// collisions the surviving payload of a colliding pair is first-intern-wins,
// which under parallel exploration can depend on scheduling — part of the
// documented unsoundness, not a bug to fix.
type memStore[S comparable] struct {
	shards   []memShard
	mask     uint64
	fp       func(S) uint64
	isString bool
	counter  atomic.Int64
	pages    pagetab[S]
	// lossy turns payload confirmation off (bitstate); fpMask truncates
	// its fingerprints to fpBits bits (all ones, fpBits 0, for mem).
	lossy  bool
	fpMask uint64
	fpBits int
}

func newMemStore[S comparable](cfg Config, shards int, fp func(S) uint64) *memStore[S] {
	var zero S
	_, isString := any(zero).(string)
	st := &memStore[S]{
		shards:   make([]memShard, shards),
		mask:     uint64(shards - 1),
		fp:       fp,
		isString: isString,
		lossy:    cfg.Lossy(),
		fpMask:   ^uint64(0),
	}
	if st.lossy && cfg.FingerprintBits > 0 && cfg.FingerprintBits < 64 {
		st.fpBits = cfg.FingerprintBits
		st.fpMask = 1<<uint(cfg.FingerprintBits) - 1
	}
	st.pages.init(firstPageBits, defaultPageBits)
	for i := range st.shards {
		st.shards[i].idx.grow()
	}
	return st
}

func (st *memStore[S]) Intern(s S) (int32, bool) {
	h := st.fp(s) & st.fpMask
	sh := &st.shards[h&st.mask]
	sh.mu.Lock()
	i, id := st.lookup(sh, h, s)
	fresh := id < 0
	if fresh {
		if st.isString {
			// Copy the payload into the shard's slab so the store owns dense,
			// stable bytes regardless of where the caller's string came from.
			s = any(sh.arena.addString(any(s).(string))).(S)
		}
		id = st.add(sh, i, h, s)
	}
	sh.mu.Unlock()
	return id, fresh
}

// InternBytes interns the string state whose payload is b without
// materializing it. On a hit nothing is allocated; on a fresh intern the
// bytes are slab-copied and published as a zero-copy string view.
func (st *memStore[S]) InternBytes(h uint64, b []byte) (int32, bool) {
	h &= st.fpMask
	sh := &st.shards[h&st.mask]
	sh.mu.Lock()
	i, id := sh.idx.first(h)
	for id >= 0 && !st.lossy && st.str(id) != string(b) {
		i, id = sh.idx.next(h, i)
	}
	fresh := id < 0
	if fresh {
		id = st.add(sh, i, h, any(sh.arena.addBytes(b)).(S))
	}
	sh.mu.Unlock()
	return id, fresh
}

// lookup returns s's slot and id in sh, or the empty slot where it belongs
// and -1. Caller holds sh.mu.
func (st *memStore[S]) lookup(sh *memShard, h uint64, s S) (int, int32) {
	i, id := sh.idx.first(h)
	for id >= 0 && !st.lossy && st.pages.get(id) != s {
		i, id = sh.idx.next(h, i)
	}
	return i, id
}

// add assigns the next id to payload s and records it in sh's empty slot
// i. Caller holds sh.mu.
func (st *memStore[S]) add(sh *memShard, i int, h uint64, s S) int32 {
	id := int32(st.counter.Add(1) - 1)
	st.pages.set(id, s)
	sh.idx.insert(i, h, id)
	return id
}

// str is the payload of id viewed as a string (string states only).
func (st *memStore[S]) str(id int32) string {
	v := st.pages.get(id)
	return *any(&v).(*string)
}

func (st *memStore[S]) State(id int32) S { return st.pages.get(id) }

func (st *memStore[S]) Probe(s S) (int32, bool) {
	h := st.fp(s) & st.fpMask
	sh := &st.shards[h&st.mask]
	sh.mu.Lock()
	_, id := st.lookup(sh, h, s)
	sh.mu.Unlock()
	return id, id >= 0
}

func (st *memStore[S]) Len() int { return int(st.counter.Load()) }

func (st *memStore[S]) Stats() Stats {
	out := Stats{
		Kind:            Mem,
		States:          st.Len(),
		ShardBytes:      make([]int64, len(st.shards)),
		Lossy:           st.lossy,
		FingerprintBits: st.fpBits,
	}
	if st.lossy {
		out.Kind = Bitstate
	}
	out.BytesInRAM = st.pages.bytes.Load()
	for i := range st.shards {
		sh := &st.shards[i]
		idx := sh.idx.bytes.Load()
		out.ShardBytes[i] = sh.arena.bytes.Load() + idx
		out.IndexBytes += idx
		out.BytesInRAM += out.ShardBytes[i]
	}
	return out
}

func (st *memStore[S]) Maintain(int32) error { return nil }
func (st *memStore[S]) Err() error           { return nil }
func (st *memStore[S]) Close() error         { return nil }
