package store

import "sync/atomic"

// indexInitSlots is the initial open-addressing table size per shard:
// small, because most explorations are tiny and a table doubles cheaply.
const indexInitSlots = 16

// indexSlotBytes is one index slot's footprint: an 8-byte fingerprint and
// a 4-byte id.
const indexSlotBytes = 12

// index is the fingerprint -> id table each of the store's shards keys on:
// open addressing with linear probing and no deletion, over two flat,
// pointer-free arrays the garbage collector never scans. fps[i] is the
// fingerprint of the occupant of slot i and ids[i] its id+1, so 0 marks an
// empty slot. Equal fingerprints of distinct states (a real 64-bit
// collision, a masked bitstate fingerprint, or the test-only degraded
// one) occupy separate slots; first and next hand them out one at a time,
// so the store confirms each against its payload (or, lossy, trusts the
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
// sequence and -1. The store confirms the candidate against its payload
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
