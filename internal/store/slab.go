package store

import (
	"sync/atomic"
	"unsafe"
)

// slabChunkSize is the slab arena's largest allocation unit: big enough
// that chunk turnover is rare, small enough that a mostly-dead chunk pinned
// by one surviving view is cheap. Chunks start at slabFirstChunk and double
// up to it, so a shard of a tiny exploration allocates a few hundred bytes,
// not 64 KiB.
const (
	slabChunkSize  = 64 << 10
	slabFirstChunk = 256
)

// slab is an append-only byte arena handing out immutable string views of
// the bytes copied into it. It exists so the store can intern a
// state payload with zero per-state allocations in steady state: the copy
// lands in the current chunk and the returned string is an unsafe.String
// view of those bytes — no per-string header allocation, no fragmentation.
//
// Soundness of the unsafe.String views: a chunk's backing array never
// moves once bytes are handed out, because the arena only appends within
// the chunk's fixed capacity and starts a new chunk (leaving the old one
// to the views that reference it) when the remainder doesn't fit. This is
// the same lifetime argument strings.Builder makes. A slab is not safe for
// concurrent use; each shard owns one and serializes access through its
// mutex.
type slab struct {
	cur []byte
	// bytes is the capacity of every chunk allocated. It is atomic so
	// Stats can read it during a level without the shard lock.
	bytes atomic.Int64
}

// addBytes copies b into the arena and returns a stable string view of the
// copy.
func (a *slab) addBytes(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if cap(a.cur)-len(a.cur) < len(b) {
		a.grow(len(b))
	}
	off := len(a.cur)
	a.cur = append(a.cur, b...)
	return unsafe.String(&a.cur[off], len(b))
}

// grow starts a fresh chunk with room for at least n bytes. The old chunk
// is abandoned to whatever views still reference it.
func (a *slab) grow(n int) {
	size := min(max(2*cap(a.cur), slabFirstChunk), slabChunkSize)
	a.cur = make([]byte, 0, max(size, n))
	a.bytes.Add(int64(cap(a.cur)))
}
