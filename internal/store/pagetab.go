package store

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// pagetab is the id -> payload table shared by every backend: a spine of
// pages that grows without ever moving a published page's slots, so
// readers need no lock. Pages hold 2^maxBits states, except that a table
// built with minBits < maxBits starts with a ramp of smaller pages —
// 2^minBits states, doubling up to 2^maxBits — so a tiny exploration
// allocates a page its size rather than a full one, while a large one
// still allocates once per 2^maxBits states.
//
// Synchronization contract (matching Store's): the spine is an
// append-only slice published through an atomic pointer. Growing it under
// mu writes the new pages past every published length — in place when the
// backing array has room — before publishing the longer slice, so no
// reader ever sees a spine slot change. A *slot* write is only visible to
// a reader ordered after it by some external happens-before edge — the
// owning shard's mutex within a level, or a level barrier across levels.
// Distinct slots may be written concurrently. page and drop require
// quiescence (Maintain-time only).
const (
	// defaultPageBits is the page granularity of a full page, and the
	// spill backend's default: 2^10 states, the unit it compresses,
	// writes and caches.
	defaultPageBits = 10
	// firstPageBits starts the mem and bitstate backends' ramp, which
	// never move a page: their first page holds 2^4 states.
	firstPageBits = 4
)

// page holds the payloads of one aligned block of consecutive ids.
type page struct{ slots []string }

type pagetab struct {
	// bits, size and mask describe the full pages; the ramp before them
	// starts at 2^minBits states.
	bits    uint
	size    int
	mask    int
	minBits uint
	mu      sync.Mutex // serializes spine growth
	spine   atomic.Pointer[[]page]
	// bytes is the slot bytes of every page grow allocated, read lock-free
	// by Stats. It counts dropped pages too; only mem and bitstate, which
	// never drop a page, report it.
	bytes atomic.Int64
}

// init sets full pages to 2^maxBits states, ramping up from 2^minBits.
// Must be called before any other method.
func (t *pagetab) init(minBits, maxBits int) {
	t.bits = uint(maxBits)
	t.size = 1 << maxBits
	t.mask = t.size - 1
	t.minBits = uint(minBits)
}

// locate returns the page holding id and id's slot in it.
func (t *pagetab) locate(id int32) (pno, slot int) {
	// Shifted up by 2^minBits, the ids of page k (2^(minBits+k) states)
	// are those of bit length minBits+k+1, up to the first full page;
	// full pages after it follow at a fixed stride.
	x := int(id) + 1<<t.minBits
	if x >= 2*t.size {
		x -= 2 * t.size
		return int(t.bits-t.minBits) + 1 + x>>t.bits, x & t.mask
	}
	k := bits.Len(uint(x)) - 1
	return k - int(t.minBits), x - 1<<k
}

// pages returns the published spine.
func (t *pagetab) pages() []page {
	if p := t.spine.Load(); p != nil {
		return *p
	}
	return nil
}

// set records the payload of id. Safe concurrently with other set/get
// calls on distinct ids (see the synchronization contract above).
func (t *pagetab) set(id int32, s string) {
	pno, slot := t.locate(id)
	pages := t.pages()
	if pno >= len(pages) {
		pages = t.grow(pno)
	}
	pages[pno].slots[slot] = s
}

// get returns the payload of id. The page must be resident (not dropped).
func (t *pagetab) get(id int32) string {
	pno, slot := t.locate(id)
	return t.pages()[pno].slots[slot]
}

// page returns the full page pno for bulk encoding (quiescent use).
func (t *pagetab) page(pno int) *page { return &t.pages()[pno] }

// drop releases page pno after its payloads were spilled (quiescent use).
func (t *pagetab) drop(pno int) { t.pages()[pno] = page{} }

// grow extends the spine to cover page pno and returns it.
func (t *pagetab) grow(pno int) []page {
	t.mu.Lock()
	defer t.mu.Unlock()
	pages := t.pages()
	for len(pages) <= pno {
		size := t.size
		if k := uint(len(pages)); k < t.bits-t.minBits {
			size = 1 << (t.minBits + k)
		}
		pages = append(pages, page{slots: make([]string, size)})
		t.bytes.Add(int64(size) * stringHeaderBytes)
	}
	t.spine.Store(&pages)
	return pages
}
