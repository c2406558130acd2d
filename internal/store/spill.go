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

// The spill backend keeps the fingerprint index (the mem store's index:
// fingerprints and ids only) in RAM, while state payloads live in the
// paged table until the resident budget is exceeded, at which point
// Maintain moves whole pages of the *oldest* payloads into
// flate-compressed, append-only segment files. Ids are assigned in
// interning order, so "oldest" means the earliest BFS levels: exactly the
// states the frontier's dedup hits target least, which keeps the
// confirm-read rate low. A fingerprint hit on a spilled id is
// confirmed by decompressing its page back (served through a small LRU
// page cache), so the backend stays exact: no 64-bit collision is ever
// trusted.
//
// Resident string payloads live in the shard's slab, as in the mem store.
// Pages spill oldest-id first and each shard's slab fills in id order, so
// a slab chunk is garbage once every page it backs has been dropped; at
// most one chunk per shard straddles the watermark.
//
// Layout of one spilled page (before compression):
//
//	u32 count                      number of states in the page
//	u32 off[count+1]               payload-section offsets, off[0] = 0
//	payload bytes                  count encoded states, back to back
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

type cacheEnt[S comparable] struct {
	slots   []S
	lastUse uint64
}

type spillStore[S comparable] struct {
	shards   []memShard
	mask     uint64
	fp       func(S) uint64
	codec    *codec[S]
	isString bool
	maxBytes int64
	counter  atomic.Int64
	pages    pagetab[S]

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
	cache     map[int32]cacheEnt[S]
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

func newSpillStore[S comparable](cfg Config, shards int, fp func(S) uint64) (*spillStore[S], error) {
	cdc := codecFor[S]()
	if cdc == nil {
		return nil, fmt.Errorf("%w: %T", ErrNoCodec, *new(S))
	}
	_, isString := any(*new(S)).(string)
	st := &spillStore[S]{
		shards:   make([]memShard, shards),
		mask:     uint64(shards - 1),
		fp:       fp,
		codec:    cdc,
		isString: isString,
		maxBytes: cfg.MaxBytes,
		cache:    make(map[int32]cacheEnt[S], pageCacheSize),
		crcTab:   crc32.MakeTable(crc32.Castagnoli),
	}
	bits := cfg.PageBits
	if bits <= 0 {
		bits = defaultPageBits
	}
	st.pages.init(bits, bits)
	if st.maxBytes <= 0 {
		st.maxBytes = DefaultMaxBytes
	}
	for i := range st.shards {
		st.shards[i].idx.grow()
	}
	st.dir = cfg.Dir
	if st.dir == "" {
		dir, err := os.MkdirTemp("", "store-spill-*")
		if err != nil {
			return nil, fmt.Errorf("store: spill dir: %w", err)
		}
		st.dir, st.ownDir = dir, true
	}
	var err error
	if st.flateW, err = flate.NewWriter(io.Discard, flate.BestSpeed); err != nil {
		return nil, err
	}
	return st, nil
}

func (st *spillStore[S]) Intern(s S) (int32, bool) {
	h := st.fp(s)
	sh := &st.shards[h&st.mask]
	sh.mu.Lock()
	i, id := st.lookup(sh, h, s)
	fresh := id < 0
	if fresh {
		if st.isString {
			s = any(sh.arena.addString(any(s).(string))).(S)
		}
		id = st.add(sh, i, h, s)
	}
	sh.mu.Unlock()
	return id, fresh
}

// InternBytes is the zero-copy intern path (see StateStore). A dedup hit
// — the overwhelmingly common case on the hot path — allocates nothing
// (the comparison against the confirmed payload converts nothing); a
// fresh intern copies b into the shard's slab, as the mem store does.
func (st *spillStore[S]) InternBytes(h uint64, b []byte) (int32, bool) {
	sh := &st.shards[h&st.mask]
	sh.mu.Lock()
	i, id := sh.idx.first(h)
	for id >= 0 && !st.equalsBytes(id, b) {
		i, id = sh.idx.next(h, i)
	}
	fresh := id < 0
	if fresh {
		id = st.add(sh, i, h, any(sh.arena.addBytes(b)).(S))
	}
	sh.mu.Unlock()
	return id, fresh
}

// lookup returns s's slot and id in sh, confirming every fingerprint
// match against the resident or spilled payload, or the empty slot where
// s belongs and -1. Caller holds sh.mu.
func (st *spillStore[S]) lookup(sh *memShard, h uint64, s S) (int, int32) {
	i, id := sh.idx.first(h)
	for id >= 0 && !st.equals(id, s) {
		i, id = sh.idx.next(h, i)
	}
	return i, id
}

// add assigns the next id to payload s and records it in sh's empty slot
// i. Caller holds sh.mu.
func (st *spillStore[S]) add(sh *memShard, i int, h uint64, s S) int32 {
	id := int32(st.counter.Add(1) - 1)
	st.pages.set(id, s)
	st.resident.Add(sizeOf(s))
	sh.idx.insert(i, h, id)
	return id
}

// confirmed returns the payload a fingerprint hit on id is confirmed
// against, reading the segment back (and counting the confirm) when it was
// spilled; !ok means the read failed. Called with the owning shard locked,
// which orders it after the payload write of any id interned during the
// current level (same state, same fingerprint, same shard); payloads from
// earlier levels are ordered by the level barrier.
func (st *spillStore[S]) confirmed(id int32) (S, bool) {
	if st.spilled(id) {
		st.confirms.Add(1)
		return st.spilledState(id)
	}
	return st.pages.get(id), true
}

// equals confirms a fingerprint hit on id against s.
func (st *spillStore[S]) equals(id int32, s S) bool {
	v, ok := st.confirmed(id)
	return ok && v == s
}

// equalsBytes is equals against raw payload bytes; the conversion in the
// comparison does not allocate.
func (st *spillStore[S]) equalsBytes(id int32, b []byte) bool {
	v, ok := st.confirmed(id)
	return ok && *any(&v).(*string) == string(b)
}

// spilled reports whether id's payload lives on disk.
func (st *spillStore[S]) spilled(id int32) bool {
	return int(id) < int(st.spilledTo.Load())<<st.pages.bits
}

func (st *spillStore[S]) State(id int32) S {
	if st.spilled(id) {
		v, _ := st.spilledState(id)
		return v
	}
	return st.pages.get(id)
}

func (st *spillStore[S]) Probe(s S) (int32, bool) {
	h := st.fp(s)
	sh := &st.shards[h&st.mask]
	sh.mu.Lock()
	_, id := st.lookup(sh, h, s)
	sh.mu.Unlock()
	return id, id >= 0
}

func (st *spillStore[S]) Len() int { return int(st.counter.Load()) }

// spilledState fetches the payload of a spilled id through the page cache.
// On I/O or decode failure it records the sticky error (surfaced at the
// next barrier's Maintain, which aborts the run) and reports !ok, which
// the confirm path treats as a mismatch — wrong only in runs that are
// already doomed.
func (st *spillStore[S]) spilledState(id int32) (S, bool) {
	pno := int32(int(id) >> st.pages.bits)
	st.segMu.Lock()
	defer st.segMu.Unlock()
	st.cacheTick++
	if ent, ok := st.cache[pno]; ok {
		ent.lastUse = st.cacheTick
		st.cache[pno] = ent
		st.cacheHits.Add(1)
		return ent.slots[int(id)&st.pages.mask], true
	}
	var zero S
	if st.ioErr != nil {
		return zero, false
	}
	// Evict before reading: the victim's slot array is dead once it leaves
	// the cache (callers hold slot values, never the array), so the page
	// read back overwrites it instead of allocating a fresh one.
	var reuse []S
	if len(st.cache) >= pageCacheSize {
		var victim int32
		oldest := uint64(1<<64 - 1)
		for p, ent := range st.cache {
			if ent.lastUse < oldest {
				oldest, victim = ent.lastUse, p
			}
		}
		reuse = st.cache[victim].slots
		delete(st.cache, victim)
	}
	t := time.Now()
	slots, err := st.readPage(pno, reuse)
	if err != nil {
		st.ioErr = fmt.Errorf("store: spill read of page %d: %w", pno, err)
		return zero, false
	}
	st.readLat.Observe(int64(time.Since(t)))
	st.segReads.Add(1)
	st.cache[pno] = cacheEnt[S]{slots: slots, lastUse: st.cacheTick}
	return slots[int(id)&st.pages.mask], true
}

// readPage decompresses and decodes one spilled page through the reused
// read-back buffers, into slots when it is non-nil. Caller holds segMu.
func (st *spillStore[S]) readPage(pno int32, slots []S) ([]S, error) {
	m := st.meta[pno]
	st.compBuf = slices.Grow(st.compBuf[:0], int(m.compLen))[:m.compLen]
	if _, err := st.segs[m.seg].ReadAt(st.compBuf, m.off); err != nil {
		return nil, err
	}
	st.compRd.Reset(st.compBuf)
	if st.flateR == nil {
		st.flateR = flate.NewReader(&st.compRd)
	} else if err := st.flateR.(flate.Resetter).Reset(&st.compRd, nil); err != nil {
		return nil, err
	}
	st.rawBuf = slices.Grow(st.rawBuf[:0], int(m.rawLen))[:m.rawLen]
	raw := st.rawBuf
	if _, err := io.ReadFull(st.flateR, raw); err != nil {
		return nil, fmt.Errorf("%w: page %d does not decompress: %v", ErrCorruptPage, pno, err)
	}
	if sum := crc32.Checksum(raw, st.crcTab); sum != m.crc {
		return nil, fmt.Errorf("%w: page %d checksum %08x, written as %08x", ErrCorruptPage, pno, sum, m.crc)
	}
	return st.decodePage(raw, slots)
}

// decodePage parses one raw page image (layout above) into a page's slots.
// The image is untrusted input: a count, offset or fixed-width payload the
// layout cannot hold fails with ErrCorruptPage, never a panic. The slots
// never point into raw, which the next read-back overwrites: a string page
// copies its payload section once, into one block, and its slots are
// substrings of that block. The slots go into slots, a page-sized array
// the caller no longer reads, when it is non-nil, and into a fresh array
// otherwise.
func (st *spillStore[S]) decodePage(raw []byte, slots []S) ([]S, error) {
	if len(raw) < 4 {
		return nil, fmt.Errorf("%w: %d-byte image", ErrCorruptPage, len(raw))
	}
	count := int(binary.LittleEndian.Uint32(raw))
	if count < 1 || count > st.pages.size {
		return nil, fmt.Errorf("%w: count %d", ErrCorruptPage, count)
	}
	base := 4 + 4*(count+1)
	if len(raw) < base {
		return nil, fmt.Errorf("%w: %d-state offset table overruns a %d-byte image", ErrCorruptPage, count, len(raw))
	}
	offTab, payload := raw[4:base], raw[base:]
	var block string
	if st.isString {
		block = string(payload)
	}
	if slots == nil {
		slots = make([]S, st.pages.size)
	} else {
		clear(slots[count:])
	}
	for i := 0; i < count; i++ {
		lo := binary.LittleEndian.Uint32(offTab[4*i:])
		hi := binary.LittleEndian.Uint32(offTab[4*i+4:])
		if lo > hi || int(hi) > len(payload) || (st.codec.width > 0 && int(hi-lo) != st.codec.width) {
			return nil, fmt.Errorf("%w: state %d at offsets %d..%d", ErrCorruptPage, i, lo, hi)
		}
		if st.isString {
			*any(&slots[i]).(*string) = block[lo:hi]
		} else {
			slots[i] = st.codec.dec(payload[lo:hi])
		}
	}
	return slots, nil
}

// Maintain enforces the budget at a level barrier: while resident payload
// bytes exceed MaxBytes it spills the oldest still-resident full pages
// whose every id is below keepFrom (the next frontier stays in RAM), all
// into one fresh segment file, then drops the pages. Quiescence required.
func (st *spillStore[S]) Maintain(keepFrom int32) error {
	st.segMu.Lock()
	defer st.segMu.Unlock()
	if st.ioErr != nil {
		return st.ioErr
	}
	if st.resident.Load() <= st.maxBytes {
		return nil
	}
	limit := int32(st.counter.Load())
	if keepFrom < limit {
		limit = keepFrom
	}
	spillable := int(limit) >> st.pages.bits // pages wholly below the keep line
	from := int(st.spilledTo.Load())
	if from >= spillable {
		return nil // budget exceeded but nothing eligible; overshoot is bounded by the frontier
	}
	target := int64(float64(st.maxBytes) * spillLowWater)
	if err := st.spillPages(from, spillable, target); err != nil {
		st.ioErr = err
		return err
	}
	return nil
}

// spillPages writes pages [from, upTo) — stopping early once resident
// drops to target — into one new segment file. Caller holds segMu.
func (st *spillStore[S]) spillPages(from, upTo int, target int64) error {
	segNo := len(st.segs)
	f, err := os.Create(filepath.Join(st.dir, fmt.Sprintf("seg-%05d.dat", segNo)))
	if err != nil {
		return fmt.Errorf("store: segment create: %w", err)
	}
	st.segs = append(st.segs, f)
	var fileOff int64
	p := from
	for ; p < upTo && st.resident.Load() > target; p++ {
		pg := st.pages.page(p)
		count := st.pages.size
		if end := int(st.counter.Load()) - p<<st.pages.bits; end < count {
			count = end // only the last eligible page can be partial, and only on the final Maintain
		}
		raw, pageBytes := st.encodePage(pg, count)
		t := time.Now()
		st.compScratch.Reset()
		st.flateW.Reset(&st.compScratch)
		if _, err := st.flateW.Write(raw); err != nil {
			return fmt.Errorf("store: page compress: %w", err)
		}
		if err := st.flateW.Close(); err != nil {
			return fmt.Errorf("store: page compress: %w", err)
		}
		comp := st.compScratch.Bytes()
		if _, err := f.WriteAt(comp, fileOff); err != nil {
			return fmt.Errorf("store: segment write: %w", err)
		}
		st.writeLat.Observe(int64(time.Since(t)))
		st.meta = append(st.meta, pageMeta{
			seg:     int32(segNo),
			off:     fileOff,
			compLen: int32(len(comp)),
			rawLen:  int32(len(raw)),
			crc:     crc32.Checksum(raw, st.crcTab),
		})
		fileOff += int64(len(comp))
		st.bytesSpilled += int64(len(raw))
		st.compBytes += int64(len(comp))
		st.spilledStates += count
		st.resident.Add(-pageBytes)
		st.pages.drop(p)
		st.spilledTo.Store(int32(p + 1))
	}
	return nil
}

// encodePage builds the raw page image in the reused scratch buffer and
// returns it together with the resident payload bytes it replaces. The
// buffer is owned by Maintain (quiescent), so zero per-state allocations
// survive steady state — see BenchmarkPageEncode for the before/after.
func (st *spillStore[S]) encodePage(pg *page[S], count int) ([]byte, int64) {
	raw := st.encScratch[:0]
	raw = binary.LittleEndian.AppendUint32(raw, uint32(count))
	offPos := len(raw)
	for i := 0; i <= count; i++ {
		raw = binary.LittleEndian.AppendUint32(raw, 0)
	}
	var pageBytes int64
	base := len(raw)
	for i := 0; i < count; i++ {
		raw = st.codec.enc(raw, &pg.slots[i])
		binary.LittleEndian.PutUint32(raw[offPos+4*(i+1):], uint32(len(raw)-base))
		pageBytes += sizeOf(pg.slots[i])
	}
	st.encScratch = raw
	return raw, pageBytes
}

func (st *spillStore[S]) Stats() Stats {
	out := Stats{
		Kind:              Spill,
		States:            st.Len(),
		MaxBytes:          st.maxBytes,
		SegmentReads:      st.segReads.Load(),
		CollisionConfirms: st.confirms.Load(),
		PageCacheHits:     st.cacheHits.Load(),
		ReadLat:           st.readLat.Snapshot(),
		WriteLat:          st.writeLat.Snapshot(),
	}
	for i := range st.shards {
		out.IndexBytes += st.shards[i].idx.bytes.Load()
	}
	out.BytesInRAM = st.resident.Load() + out.IndexBytes
	st.segMu.Lock()
	out.SpilledStates = st.spilledStates
	out.BytesSpilled = st.bytesSpilled
	out.CompressedBytes = st.compBytes
	out.Segments = len(st.segs)
	st.segMu.Unlock()
	return out
}

func (st *spillStore[S]) Err() error {
	st.segMu.Lock()
	defer st.segMu.Unlock()
	return st.ioErr
}

func (st *spillStore[S]) Close() error {
	st.segMu.Lock()
	defer st.segMu.Unlock()
	var first error
	for _, f := range st.segs {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	st.segs = nil
	if st.ownDir && st.dir != "" {
		if err := os.RemoveAll(st.dir); err != nil && first == nil {
			first = err
		}
		st.dir = ""
	}
	return first
}
