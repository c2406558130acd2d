package store

import (
	"sync"
	"sync/atomic"
)

// memEntryOverhead approximates the per-state index cost of a mem-backend
// entry: the open-addressing slot share (fingerprint + id at ~75% load)
// plus the paged-table slot. Accounting only — never correctness.
const memEntryOverhead = 48

// memShardInitSlots is the initial open-addressing table size per shard:
// small, because most explorations are tiny and a table doubles cheaply.
const memShardInitSlots = 16

// memShard is one stripe of the visited set: an open-addressing
// fingerprint → id table (linear probing, no deletion) with resident-byte
// accounting and, for string states, a slab arena holding the payload
// bytes. Compared to the map-of-buckets it replaced, a hit costs one probe
// sequence over two flat arrays instead of a map lookup plus bucket-slice
// walk, and a fresh intern allocates nothing in steady state.
type memShard struct {
	mu sync.Mutex
	// fps[i] is the full 64-bit fingerprint of the occupant of slot i;
	// ids[i] is its id+1, so 0 marks an empty slot. Probing starts at
	// fingerprint bits disjoint from the shard-selection bits and walks
	// linearly; equal fingerprints of distinct states (a real 64-bit
	// collision, or the test-only degraded fingerprint) simply occupy
	// separate slots and are disambiguated by payload confirmation.
	fps  []uint64
	ids  []int32
	used int
	// bytes is atomic (not mutex-guarded like the rest), so Stats can read
	// it from the telemetry monitor without contending with interning.
	bytes atomic.Int64
	arena slab
}

// probeAt returns the slot index where h's probe sequence starts. The low
// byte of h selects the shard, so the start position uses the bits above
// it to keep the within-shard spread independent of the sharding.
func probeAt(h uint64, n int) int { return int((h >> 8) & uint64(n-1)) }

// grow doubles the table and reinserts every occupant. Caller holds mu.
func (sh *memShard) grow() {
	oldFps, oldIds := sh.fps, sh.ids
	n := len(oldFps) * 2
	sh.fps = make([]uint64, n)
	sh.ids = make([]int32, n)
	for j, idp := range oldIds {
		if idp == 0 {
			continue
		}
		h := oldFps[j]
		i := probeAt(h, n)
		for sh.ids[i] != 0 {
			i = (i + 1) & (n - 1)
		}
		sh.fps[i] = h
		sh.ids[i] = idp
	}
}

// memStore is the RAM-resident backend: open-addressing fingerprint
// shards over the shared paged id -> payload table. String payloads are
// copied into per-shard slab arenas and stored as zero-copy views, so the
// hot intern path allocates only on chunk turnover and table growth.
type memStore[S comparable] struct {
	shards   []memShard
	mask     uint64
	fp       func(S) uint64
	isString bool
	counter  atomic.Int64
	pages    pagetab[S]
}

func newMemStore[S comparable](shards int, fp func(S) uint64) *memStore[S] {
	var zero S
	_, isString := any(zero).(string)
	st := &memStore[S]{
		shards:   make([]memShard, shards),
		mask:     uint64(shards - 1),
		fp:       fp,
		isString: isString,
	}
	st.pages.init(firstPageBits, defaultPageBits)
	for i := range st.shards {
		st.shards[i].fps = make([]uint64, memShardInitSlots)
		st.shards[i].ids = make([]int32, memShardInitSlots)
	}
	return st
}

func (st *memStore[S]) Intern(s S) (int32, bool) {
	h := st.fp(s)
	sh := &st.shards[h&st.mask]
	sh.mu.Lock()
	id, fresh := st.intern(sh, h, s)
	sh.mu.Unlock()
	return id, fresh
}

// intern is the core of Intern. Caller holds sh.mu.
func (st *memStore[S]) intern(sh *memShard, h uint64, s S) (int32, bool) {
	mask := len(sh.ids) - 1
	i := probeAt(h, len(sh.ids))
	for {
		idp := sh.ids[i]
		if idp == 0 {
			break
		}
		if sh.fps[i] == h && st.pages.get(idp-1) == s {
			return idp - 1, false
		}
		i = (i + 1) & mask
	}
	id := int32(st.counter.Add(1) - 1)
	sh.fps[i] = h
	sh.ids[i] = id + 1
	if st.isString {
		// Copy the payload into the shard's slab so the store owns dense,
		// stable bytes regardless of where the caller's string came from.
		view := sh.arena.addString(any(s).(string))
		st.pages.set(id, any(view).(S))
	} else {
		st.pages.set(id, s)
	}
	sh.bytes.Add(sizeOf(s) + memEntryOverhead)
	sh.used++
	if sh.used*16 >= len(sh.ids)*13 {
		sh.grow()
	}
	return id, true
}

// BytesSupported reports whether InternBytes is usable: the payload type
// must be string (the bytes ARE the state).
func (st *memStore[S]) BytesSupported() bool { return st.isString }

// InternBytes interns the string state whose payload is b without
// materializing it: h must be the fingerprint the store's fp would assign
// to string(b) (see BytesInterner). On a hit nothing is allocated; on a
// fresh intern the bytes are slab-copied and published as a zero-copy
// string view.
func (st *memStore[S]) InternBytes(h uint64, b []byte) (int32, bool) {
	sh := &st.shards[h&st.mask]
	sh.mu.Lock()
	id, fresh := st.internBytes(sh, h, b)
	sh.mu.Unlock()
	return id, fresh
}

// internBytes is the core of InternBytes. Caller holds sh.mu.
func (st *memStore[S]) internBytes(sh *memShard, h uint64, b []byte) (int32, bool) {
	mask := len(sh.ids) - 1
	i := probeAt(h, len(sh.ids))
	for {
		idp := sh.ids[i]
		if idp == 0 {
			break
		}
		if sh.fps[i] == h {
			v := st.pages.get(idp - 1)
			if *any(&v).(*string) == string(b) {
				return idp - 1, false
			}
		}
		i = (i + 1) & mask
	}
	id := int32(st.counter.Add(1) - 1)
	sh.fps[i] = h
	sh.ids[i] = id + 1
	st.pages.set(id, any(sh.arena.addBytes(b)).(S))
	sh.bytes.Add(int64(len(b)) + stringHeaderBytes + memEntryOverhead)
	sh.used++
	if sh.used*16 >= len(sh.ids)*13 {
		sh.grow()
	}
	return id, true
}

func (st *memStore[S]) State(id int32) S { return st.pages.get(id) }

func (st *memStore[S]) Probe(s S) (int32, bool) {
	h := st.fp(s)
	sh := &st.shards[h&st.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	mask := len(sh.ids) - 1
	for i := probeAt(h, len(sh.ids)); ; i = (i + 1) & mask {
		idp := sh.ids[i]
		if idp == 0 {
			return -1, false
		}
		if sh.fps[i] == h && st.pages.get(idp-1) == s {
			return idp - 1, true
		}
	}
}

func (st *memStore[S]) Len() int { return int(st.counter.Load()) }

func (st *memStore[S]) Stats() Stats {
	out := Stats{
		Kind:       Mem,
		States:     st.Len(),
		ShardBytes: make([]int64, len(st.shards)),
	}
	for i := range st.shards {
		out.ShardBytes[i] = st.shards[i].bytes.Load()
		out.BytesInRAM += out.ShardBytes[i]
	}
	return out
}

func (st *memStore[S]) Maintain(int32) error { return nil }
func (st *memStore[S]) Err() error           { return nil }
func (st *memStore[S]) Close() error         { return nil }
