package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// The spill part keeps the store's fingerprint index in RAM, while state
// payloads live in the paged table until the resident budget is exceeded,
// at which point Maintain moves whole pages of the *oldest* payloads into
// flate-compressed, append-only segment files. Ids are assigned in
// interning order, so "oldest" means the earliest BFS levels: exactly the
// states the frontier's dedup hits target least, which keeps the
// confirm-read rate low. A fingerprint hit on a spilled id is confirmed by
// decompressing its page back (served through a small LRU page cache), so
// the store stays exact: no 64-bit collision is ever trusted.
//
// Resident payloads live in the shard's slab, as under mem. Pages
// spill oldest-id first and each shard's slab fills in id order, so a slab
// chunk is garbage once every page it backs has been dropped; at most one
// chunk per shard straddles the watermark.
//
// Layout of one spilled page (before compression):
//
//	u32 count                      number of states in the page
//	u32 off[count+1]               payload-section offsets, off[0] = 0
//	payload bytes                  count payloads' bytes, back to back
//
// Each page is an independent flate stream at a recorded (segment, offset,
// length), so a single confirm decompresses one page, never a segment.
// The RAM-resident page metadata also records a CRC-32C of the raw image,
// checked on every read-back: a segment that decompresses to bytes other
// than the ones written fails with ErrCorruptPage instead of feeding wrong
// payloads to the collision confirm. Crash safety is an explicit non-goal:
// segments are deleted on Close; a store never outlives its run.

// pageCacheSize is the capacity, in pages, of the decompressed-page LRU
// cache serving confirm and replay reads.
const pageCacheSize = 64

// spillLowWater is the fraction of MaxBytes that Maintain spills down to
// once the budget trips, so each spill round writes a batch of pages
// instead of shaving single pages every barrier.
const spillLowWater = 0.75

// pageMeta locates one spilled page inside the segment files; crc is the
// CRC-32C of its raw (uncompressed) image.
type pageMeta struct {
	seg     int32
	off     int64
	compLen int32
	rawLen  int32
	crc     uint32
}

type cacheEnt struct {
	slots   []string
	lastUse uint64
}

// spill is the store's optional spill part: the byte budget, the segment
// files and page metadata, the decompressed-page cache, the read-back and
// encode buffers, and the I/O telemetry.
type spill struct {
	// pages is the store's page table, whose full pages Maintain encodes
	// and drops.
	pages    *pagetab
	maxBytes int64

	// resident is the payload bytes currently in RAM; spilledTo (a page
	// count) is the watermark: ids below spilledTo<<pages.bits live on disk.
	resident  atomic.Int64
	spilledTo atomic.Int32

	dir    string
	ownDir bool

	// segMu guards everything below: segment files, page metadata, the
	// decompressed-page cache, the read-back buffers and the sticky I/O
	// error. Readers holding a shard lock may take segMu (never the
	// reverse), so lock order is shard -> seg.
	segMu     sync.Mutex
	segs      []*os.File
	meta      []pageMeta
	cache     map[int32]cacheEnt
	cacheTick uint64
	ioErr     error

	// compBuf, rawBuf, compRd and flateR are the read-back buffers: one
	// page's compressed bytes, its raw image, and the flate reader over
	// them, reset for every cache miss. No decoded slot points into them
	// (see decodePage).
	compBuf []byte
	rawBuf  []byte
	compRd  bytes.Reader
	flateR  io.ReadCloser

	spilledStates int
	bytesSpilled  int64
	compBytes     int64
	segReads      atomic.Uint64
	confirms      atomic.Uint64
	cacheHits     atomic.Uint64

	// readLat and writeLat time the per-page segment I/O: a decompress-read
	// on a cache miss, a compress-write during Maintain. Both paths are
	// disk-bound, so always-on observation costs two clock reads per page —
	// noise next to the I/O itself.
	readLat  obs.Hist
	writeLat obs.Hist

	// encScratch and compScratch are the Maintain-only encode buffers: the
	// raw page image and its compressed form, reused across pages and
	// rounds so the spill write path allocates nothing per state.
	encScratch  []byte
	compScratch bytes.Buffer
	flateW      *flate.Writer

	// crcTab is the CRC-32C table of the page checksums. It is made with
	// the store, not at package init: building it took 0.17 ms on a 2-vCPU
	// Xeon, which every process importing the store would otherwise pay at
	// start-up, spilling or not.
	crcTab *crc32.Table
}

func newSpill(cfg Config, pages *pagetab) (*spill, error) {
	sp := &spill{
		pages:    pages,
		maxBytes: cfg.MaxBytes,
		cache:    make(map[int32]cacheEnt, pageCacheSize),
		crcTab:   crc32.MakeTable(crc32.Castagnoli),
	}
	if sp.maxBytes <= 0 {
		sp.maxBytes = DefaultMaxBytes
	}
	sp.dir = cfg.Dir
	if sp.dir == "" {
		dir, err := os.MkdirTemp("", "store-spill-*")
		if err != nil {
			return nil, fmt.Errorf("store: spill dir: %w", err)
		}
		sp.dir, sp.ownDir = dir, true
	}
	var err error
	if sp.flateW, err = flate.NewWriter(io.Discard, flate.BestSpeed); err != nil {
		return nil, err
	}
	return sp, nil
}

// holds reports whether id's payload lives on disk.
func (sp *spill) holds(id int32) bool {
	return int(id) < int(sp.spilledTo.Load())<<sp.pages.bits
}

// read fetches the payload of a spilled id through the page cache,
// counting a collision confirm when confirming. On I/O or decode failure
// it records the sticky error (surfaced at the next barrier's Maintain,
// which aborts the run) and reports !ok.
func (sp *spill) read(id int32, confirming bool) (string, bool) {
	if confirming {
		sp.confirms.Add(1)
	}
	pno := int32(int(id) >> sp.pages.bits)
	sp.segMu.Lock()
	defer sp.segMu.Unlock()
	sp.cacheTick++
	if ent, ok := sp.cache[pno]; ok {
		ent.lastUse = sp.cacheTick
		sp.cache[pno] = ent
		sp.cacheHits.Add(1)
		return ent.slots[int(id)&sp.pages.mask], true
	}
	if sp.ioErr != nil {
		return "", false
	}
	// Evict before reading: the victim's slot array is dead once it leaves
	// the cache (callers hold slot values, never the array), so the page
	// read back overwrites it instead of allocating a fresh one.
	var reuse []string
	if len(sp.cache) >= pageCacheSize {
		var victim int32
		oldest := uint64(1<<64 - 1)
		for p, ent := range sp.cache {
			if ent.lastUse < oldest {
				oldest, victim = ent.lastUse, p
			}
		}
		reuse = sp.cache[victim].slots
		delete(sp.cache, victim)
	}
	t := time.Now()
	slots, err := sp.readPage(pno, reuse)
	if err != nil {
		sp.ioErr = fmt.Errorf("store: spill read of page %d: %w", pno, err)
		return "", false
	}
	sp.readLat.Observe(int64(time.Since(t)))
	sp.segReads.Add(1)
	sp.cache[pno] = cacheEnt{slots: slots, lastUse: sp.cacheTick}
	return slots[int(id)&sp.pages.mask], true
}

// readPage decompresses and decodes one spilled page through the reused
// read-back buffers, into slots when it is non-nil. Caller holds segMu.
func (sp *spill) readPage(pno int32, slots []string) ([]string, error) {
	m := sp.meta[pno]
	sp.compBuf = slices.Grow(sp.compBuf[:0], int(m.compLen))[:m.compLen]
	if _, err := sp.segs[m.seg].ReadAt(sp.compBuf, m.off); err != nil {
		return nil, err
	}
	sp.compRd.Reset(sp.compBuf)
	if sp.flateR == nil {
		sp.flateR = flate.NewReader(&sp.compRd)
	} else if err := sp.flateR.(flate.Resetter).Reset(&sp.compRd, nil); err != nil {
		return nil, err
	}
	sp.rawBuf = slices.Grow(sp.rawBuf[:0], int(m.rawLen))[:m.rawLen]
	raw := sp.rawBuf
	if _, err := io.ReadFull(sp.flateR, raw); err != nil {
		return nil, fmt.Errorf("%w: page %d does not decompress: %v", ErrCorruptPage, pno, err)
	}
	if sum := crc32.Checksum(raw, sp.crcTab); sum != m.crc {
		return nil, fmt.Errorf("%w: page %d checksum %08x, written as %08x", ErrCorruptPage, pno, sum, m.crc)
	}
	return sp.decodePage(raw, slots)
}

// decodePage parses one raw page image (layout above) into a page's slots.
// The image is untrusted input: a count or offset the layout cannot hold
// fails with ErrCorruptPage, never a panic. The slots never point into
// raw, which the next read-back overwrites: the payload section is copied
// once, into one block, and the slots are substrings of that block. The
// slots go into slots, a page-sized array the caller no longer reads, when
// it is non-nil, and into a fresh array otherwise.
func (sp *spill) decodePage(raw []byte, slots []string) ([]string, error) {
	if len(raw) < 4 {
		return nil, fmt.Errorf("%w: %d-byte image", ErrCorruptPage, len(raw))
	}
	count := int(binary.LittleEndian.Uint32(raw))
	if count < 1 || count > sp.pages.size {
		return nil, fmt.Errorf("%w: count %d", ErrCorruptPage, count)
	}
	base := 4 + 4*(count+1)
	if len(raw) < base {
		return nil, fmt.Errorf("%w: %d-state offset table overruns a %d-byte image", ErrCorruptPage, count, len(raw))
	}
	offTab, payload := raw[4:base], raw[base:]
	block := string(payload)
	if slots == nil {
		slots = make([]string, sp.pages.size)
	} else {
		clear(slots[count:])
	}
	for i := 0; i < count; i++ {
		lo := binary.LittleEndian.Uint32(offTab[4*i:])
		hi := binary.LittleEndian.Uint32(offTab[4*i+4:])
		if lo > hi || int(hi) > len(payload) {
			return nil, fmt.Errorf("%w: state %d at offsets %d..%d", ErrCorruptPage, i, lo, hi)
		}
		slots[i] = block[lo:hi]
	}
	return slots, nil
}

// maintain enforces the budget at a level barrier: while resident payload
// bytes exceed MaxBytes it spills the oldest still-resident full pages
// whose every id is below keepFrom (the next frontier stays in RAM) of
// the n interned, all into one fresh segment file, then drops the pages.
// Quiescence required.
func (sp *spill) maintain(keepFrom, n int32) error {
	sp.segMu.Lock()
	defer sp.segMu.Unlock()
	if sp.ioErr != nil {
		return sp.ioErr
	}
	if sp.resident.Load() <= sp.maxBytes {
		return nil
	}
	spillable := int(min(keepFrom, n)) >> sp.pages.bits // pages wholly below the keep line
	from := int(sp.spilledTo.Load())
	if from >= spillable {
		return nil // budget exceeded but nothing eligible; overshoot is bounded by the frontier
	}
	target := int64(float64(sp.maxBytes) * spillLowWater)
	if err := sp.spillPages(from, spillable, int(n), target); err != nil {
		sp.ioErr = err
		return err
	}
	return nil
}

// spillPages writes pages [from, upTo) of the n interned ids — stopping
// early once resident drops to target — into one new segment file. Caller
// holds segMu.
func (sp *spill) spillPages(from, upTo, n int, target int64) error {
	segNo := len(sp.segs)
	f, err := os.Create(filepath.Join(sp.dir, fmt.Sprintf("seg-%05d.dat", segNo)))
	if err != nil {
		return fmt.Errorf("store: segment create: %w", err)
	}
	sp.segs = append(sp.segs, f)
	var fileOff int64
	p := from
	for ; p < upTo && sp.resident.Load() > target; p++ {
		pg := sp.pages.page(p)
		count := sp.pages.size
		if end := n - p<<sp.pages.bits; end < count {
			count = end // only the last eligible page can be partial, and only on the final Maintain
		}
		raw, pageBytes := sp.encodePage(pg, count)
		t := time.Now()
		sp.compScratch.Reset()
		sp.flateW.Reset(&sp.compScratch)
		if _, err := sp.flateW.Write(raw); err != nil {
			return fmt.Errorf("store: page compress: %w", err)
		}
		if err := sp.flateW.Close(); err != nil {
			return fmt.Errorf("store: page compress: %w", err)
		}
		comp := sp.compScratch.Bytes()
		if _, err := f.WriteAt(comp, fileOff); err != nil {
			return fmt.Errorf("store: segment write: %w", err)
		}
		sp.writeLat.Observe(int64(time.Since(t)))
		sp.meta = append(sp.meta, pageMeta{
			seg:     int32(segNo),
			off:     fileOff,
			compLen: int32(len(comp)),
			rawLen:  int32(len(raw)),
			crc:     crc32.Checksum(raw, sp.crcTab),
		})
		fileOff += int64(len(comp))
		sp.bytesSpilled += int64(len(raw))
		sp.compBytes += int64(len(comp))
		sp.spilledStates += count
		sp.resident.Add(-pageBytes)
		sp.pages.drop(p)
		sp.spilledTo.Store(int32(p + 1))
	}
	return nil
}

// encodePage builds the raw page image in the reused scratch buffer and
// returns it together with the resident payload bytes it replaces. The
// buffer is owned by Maintain (quiescent), so zero per-state allocations
// survive steady state — see BenchmarkPageEncode for the before/after.
func (sp *spill) encodePage(pg *page, count int) ([]byte, int64) {
	raw := sp.encScratch[:0]
	raw = binary.LittleEndian.AppendUint32(raw, uint32(count))
	offPos := len(raw)
	for i := 0; i <= count; i++ {
		raw = binary.LittleEndian.AppendUint32(raw, 0)
	}
	var pageBytes int64
	base := len(raw)
	for i := 0; i < count; i++ {
		raw = append(raw, pg.slots[i]...)
		binary.LittleEndian.PutUint32(raw[offPos+4*(i+1):], uint32(len(raw)-base))
		pageBytes += sizeOf(pg.slots[i])
	}
	sp.encScratch = raw
	return raw, pageBytes
}

// stats adds the spill part's figures to a Stats whose IndexBytes is
// filled in: the resident payload is the per-state estimate (see sizeOf).
func (sp *spill) stats(out *Stats) {
	out.Kind = Spill
	out.MaxBytes = sp.maxBytes
	out.BytesInRAM = sp.resident.Load() + out.IndexBytes
	out.SegmentReads = sp.segReads.Load()
	out.CollisionConfirms = sp.confirms.Load()
	out.PageCacheHits = sp.cacheHits.Load()
	out.ReadLat = sp.readLat.Snapshot()
	out.WriteLat = sp.writeLat.Snapshot()
	sp.segMu.Lock()
	out.SpilledStates = sp.spilledStates
	out.BytesSpilled = sp.bytesSpilled
	out.CompressedBytes = sp.compBytes
	out.Segments = len(sp.segs)
	sp.segMu.Unlock()
}

func (sp *spill) err() error {
	sp.segMu.Lock()
	defer sp.segMu.Unlock()
	return sp.ioErr
}

func (sp *spill) close() error {
	sp.segMu.Lock()
	defer sp.segMu.Unlock()
	var first error
	for _, f := range sp.segs {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	sp.segs = nil
	if sp.ownDir && sp.dir != "" {
		if err := os.RemoveAll(sp.dir); err != nil && first == nil {
			first = err
		}
		sp.dir = ""
	}
	return first
}
