package engine

import (
	"fmt"
	"math"
	"math/bits"
	"unsafe"
)

// rawEdgeBytes is one recorded edge's footprint.
const rawEdgeBytes = int64(unsafe.Sizeof(rawEdge{}))

// A worker's first edge chunk holds firstChunkEdges edges and each later
// chunk twice its predecessor, up to maxChunkEdges (768 KiB), the way slab
// chunks ramp in internal/store: a tiny exploration allocates under a KiB
// per worker, a large one allocates once per 64 Ki edges.
const (
	firstChunkEdges = 64
	maxChunkEdges   = 64 << 10
)

// edgeArena is one worker's raw-edge storage: a list of chunks, each filled
// in place up to its fixed capacity and never grown, so no recorded edge is
// ever copied by growth. A row never straddles two chunks: when a chunk
// fills in the middle of a row, only that row's prefix moves into the next
// chunk, which is sized to at least twice the row. A span addresses a row
// by chunk index and offset (see span).
type edgeArena struct {
	// chunks is every chunk in allocation order; the last is cur's backing
	// array. Rows are read by slicing a chunk up to its capacity, so the
	// lengths stored here are not kept current.
	chunks [][]rawEdge
	// cur is the chunk being filled and row the offset in it where the row
	// being recorded starts.
	cur []rawEdge
	row int
	// sealed counts the recorded edges in the chunks before cur; a moved
	// row prefix counts only in the chunk it moved to.
	sealed int
	// lastChunk is the highest chunk index a span's packed location can
	// address. Past it, err records ErrEdgeOverflow and the row being
	// recorded is dropped: the run fails at the next level barrier, before
	// anything reads the arena.
	lastChunk int
	err       error
}

// beginRow marks where the next state's row starts.
func (a *edgeArena) beginRow() { a.row = len(a.cur) }

// add records one edge of the current row.
func (a *edgeArena) add(r rawEdge) {
	if len(a.cur) == cap(a.cur) {
		a.newChunk()
	}
	a.cur = append(a.cur, r)
}

// newChunk starts the next chunk, moving the current row's prefix into it.
func (a *edgeArena) newChunk() {
	prefix := a.cur[a.row:]
	size := max(min(2*cap(a.cur), maxChunkEdges), firstChunkEdges, 2*(len(prefix)+1))
	if len(a.chunks) > a.lastChunk || size > math.MaxInt32 {
		if a.err == nil {
			a.err = fmt.Errorf("%w: a worker's edge arena needs chunk %d of %d edges, spans address chunks 0 to %d of at most %d",
				ErrEdgeOverflow, len(a.chunks), size, a.lastChunk, math.MaxInt32)
		}
		a.cur = a.cur[:a.row]
		return
	}
	next := make([]rawEdge, len(prefix), size)
	copy(next, prefix)
	a.sealed += a.row
	a.chunks = append(a.chunks, next)
	a.cur, a.row = next, 0
}

// endRow returns the span of the row begun by beginRow, the zero span for
// an empty row. w is the recording worker and wbits the width of its field
// in span.loc.
func (a *edgeArena) endRow(w int32, wbits uint) span {
	n := len(a.cur) - a.row
	if n == 0 {
		return span{}
	}
	return span{loc: int32(len(a.chunks)-1)<<wbits | w, off: int32(a.row), n: int32(n)}
}

// edges is the number of edges recorded.
func (a *edgeArena) edges() int { return a.sealed + len(a.cur) }

// bytes is the capacity of every chunk allocated.
func (a *edgeArena) bytes() int64 {
	var b int64
	for _, c := range a.chunks {
		b += int64(cap(c)) * rawEdgeBytes
	}
	return b
}

// workerBits is the width of the worker field of span.loc for nw workers;
// the chunk index takes the other 31-workerBits bits, so it runs to
// math.MaxInt32 >> workerBits.
func workerBits(nw int) uint { return uint(bits.Len(uint(nw - 1))) }

// row returns the recording worker of the row sp locates, and the row. An
// empty row reads as worker 0's, with no edges.
func (e *explorer) row(sp span) (w int32, edges []rawEdge) {
	if sp.n == 0 {
		return 0, nil
	}
	w = sp.loc & (1<<e.wbits - 1)
	c := e.workers[w].arena.chunks[sp.loc>>e.wbits]
	return w, c[sp.off : sp.off+sp.n]
}

// The span table ramps like the mem store's page table: page 0 holds
// 2^firstSpanBits spans and each later page twice its predecessor, up to
// pages of 2^spanPageBits (192 KiB), so a tiny exploration allocates a page
// its size and a large one a page per 16 Ki states.
const (
	firstSpanBits = 6
	spanPageBits  = 14
)

// spanTable maps provisional ids to spans: a spine of pages that grows only
// at level barriers, by appending pages, so a page never moves and workers
// write the distinct ids they own during a level without locking.
type spanTable struct {
	pages [][]span
	n     int // spans the pages hold
}

// grow appends pages until the table holds ids [0, n).
func (t *spanTable) grow(n int) {
	for t.n < n {
		size := 1 << spanPageBits
		if k := len(t.pages); k < spanPageBits-firstSpanBits {
			size = 1 << (firstSpanBits + k)
		}
		t.pages = append(t.pages, make([]span, size))
		t.n += size
	}
}

// at returns the span slot of provisional id.
func (t *spanTable) at(id int32) *span {
	// Shifted up by 2^firstSpanBits, the ids of ramp page k are those of
	// bit length firstSpanBits+k+1, up to the first full page; full pages
	// after it follow at a fixed stride.
	x := int(id) + 1<<firstSpanBits
	if x < 2<<spanPageBits {
		k := bits.Len(uint(x)) - 1
		return &t.pages[k-firstSpanBits][x-1<<k]
	}
	x -= 2 << spanPageBits
	return &t.pages[spanPageBits-firstSpanBits+1+x>>spanPageBits][x&(1<<spanPageBits-1)]
}
