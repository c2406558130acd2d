// Package store is the visited-set subsystem underneath the exploration
// engine: the fingerprint-sharded state store that bounds how large an
// instance of each impossibility proof's finite model the library can
// certify. There is one store, Store, and one intern path through it: a
// state's fingerprint picks a shard, the shard's index (a pointer-free
// open-addressing fingerprint -> id table, 12 bytes per slot) hands out
// the ids stored under that fingerprint, each is confirmed against its
// payload, and a state no candidate confirms is slab-copied and given the
// next dense id in a paged id -> payload table. The three kinds are
// policies of that one store, and differ in two decisions only:
//
//   - whether a fingerprint hit is confirmed. mem and spill confirm every
//     hit, so no 64-bit collision is ever trusted. bitstate, a lossy
//     sweep (SPIN's bitstate-hashing analogue), trusts the fingerprint,
//     optionally masked to fewer bits: colliding states are silently
//     merged, so the explored graph may undercount the reachable set.
//     Stats.Lossy flags every result so downstream verdicts are
//     downgraded to "no violation found". Never an impossibility-proof
//     witness.
//   - where a confirmed payload is read from. mem and bitstate keep every
//     payload in RAM. spill adds a spill part: once a byte budget is
//     exceeded, whole pages of the oldest payloads move to compressed
//     append-only segment files, and a payload below the spilled
//     watermark is read back from disk.
//
// The package is near-leaf: its only internal dependency is obs (itself a
// leaf), for the shared latency-histogram type in Stats — so the engine,
// core and the CLIs can all select a kind without cycles.
package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/obs"
)

// Kind names a store policy (see the package comment).
type Kind string

const (
	// Mem is the exact RAM-resident store (the default; "" resolves to it).
	Mem Kind = "mem"
	// Spill keeps the fingerprint index in RAM and spills state payloads
	// to compressed segment files under a byte budget.
	Spill Kind = "spill"
	// Bitstate is the lossy sweep that trusts fingerprint matches. Unsound
	// by design.
	Bitstate Kind = "bitstate"
)

// DefaultMaxBytes is the spill backend's payload budget when
// Config.MaxBytes is zero: 256 MiB.
const DefaultMaxBytes = 256 << 20

// ErrUnknownKind is returned by New and ParseFlags for an unrecognized
// backend name.
var ErrUnknownKind = errors.New("store: unknown backend kind")

// ErrCorruptPage is wrapped by the spill backend's read error when a page
// read back from a segment file is not the page written: a flate stream
// that does not decompress, a raw image whose CRC-32C differs from the one
// recorded at spill time, or an image that does not parse (a state count,
// offset table or payload the page layout cannot hold).
var ErrCorruptPage = errors.New("store: corrupt spill page")

// Config selects and parameterizes a store policy.
type Config struct {
	// Kind picks the backend; "" means Mem.
	Kind Kind
	// MaxBytes is the spill backend's resident-payload budget in bytes
	// (zero means DefaultMaxBytes). The fingerprint index and the engine's
	// edge arenas are outside the budget by design: the index must stay in
	// RAM for dedup to stay O(1), and the budget's job is to bound the
	// dominant cost, the payload bytes.
	MaxBytes int64
	// Dir, when non-empty, is the directory for spill segment files. Empty
	// selects a fresh temp directory, removed on Close.
	Dir string
	// FingerprintBits, for the bitstate backend, masks the 64-bit state
	// fingerprint down to its low N bits (0 means all 64). Small values
	// force collisions — the knob the lossiness tests turn.
	FingerprintBits int
	// PageBits sets the spill backend's page granularity to 2^PageBits
	// states per page (0 means the default, 2^10). Pages are the spill
	// unit: only whole pages move to disk, so small workloads need small
	// pages to spill at all — the knob the spill tests turn. Production
	// runs should leave it at the default.
	PageBits int
}

// Lossy reports whether the configured backend can merge distinct states
// (and so can only ever support "no violation found" verdicts).
func (c Config) Lossy() bool { return c.Kind == Bitstate }

// ResolvedKind is Kind with the empty default folded to Mem.
func (c Config) ResolvedKind() Kind {
	if c.Kind == "" {
		return Mem
	}
	return c.Kind
}

// Stats is a backend's telemetry snapshot. Counter fields that depend on
// scheduling (SegmentReads, CollisionConfirms, BytesSpilled — all functions
// of which provisional ids landed on which pages) are NOT worker-count
// invariant and are excluded from the engine's determinism comparisons and
// from trace digests.
type Stats struct {
	// Kind is the resolved backend kind.
	Kind Kind
	// States is the number of states interned.
	States int
	// BytesInRAM is the resident footprint: the payload bytes still in
	// memory plus IndexBytes. The mem and bitstate backends measure the
	// payload half as the page-table and slab-chunk bytes they allocated;
	// spill estimates it per resident state (see sizeOf).
	BytesInRAM int64
	// IndexBytes is the fingerprint index's measured footprint, from its
	// arrays' capacity: 8 bytes of fingerprint and 4 of id per slot.
	IndexBytes int64
	// MaxBytes echoes the configured budget (spill only).
	MaxBytes int64
	// ShardBytes is each shard's slab-chunk and index bytes (mem and
	// bitstate only); with the shared page table's bytes they sum to
	// BytesInRAM.
	ShardBytes []int64
	// SpilledStates counts states whose payloads live on disk.
	SpilledStates int
	// BytesSpilled is the raw (uncompressed) payload bytes written to
	// segment files.
	BytesSpilled int64
	// CompressedBytes is the on-disk size of those payloads.
	CompressedBytes int64
	// Segments is the number of segment files written.
	Segments int
	// SegmentReads counts page fetches served from disk (cache misses).
	SegmentReads uint64
	// CollisionConfirms counts fingerprint hits confirmed against a
	// spilled payload.
	CollisionConfirms uint64
	// PageCacheHits counts spilled-payload reads served from the
	// decompressed-page LRU cache; with SegmentReads (the misses) it gives
	// the cache hit rate.
	PageCacheHits uint64
	// ReadLat and WriteLat are the spill backend's per-page segment I/O
	// latency histograms (decompress-read, compress-write).
	ReadLat  obs.HistSnap
	WriteLat obs.HistSnap
	// Lossy reports that the backend may have merged distinct states. A
	// lossy run can never witness a violation's absence — only report that
	// none was found in the states it kept.
	Lossy bool
	// FingerprintBits echoes the bitstate mask width (0 = full 64 bits).
	FingerprintBits int
}

// Store is the visited set of one exploration run. A state is a string:
// every system explores its configurations as byte strings, so payloads
// are compared, stored and spilled as their bytes. Intern, InternBytes,
// Probe, State, Len and Stats are safe for concurrent use during a level;
// Maintain and Close require all workers quiescent (the engine's level
// barriers provide exactly that).
//
// Payloads are copied into per-shard slab arenas and stored as zero-copy
// views, so the intern path allocates only on chunk turnover and table
// growth, and a dedup hit allocates nothing.
//
// Under bitstate the surviving payload of a colliding pair is
// first-intern-wins, which under parallel exploration can depend on
// scheduling — part of the documented unsoundness, not a bug to fix. The
// states it keeps still store their payloads (the engine must expand and
// replay them), so bitstate bounds the index, not the payload bytes.
// engine.Differential refuses it unless the caller opts into AllowLossy.
type Store struct {
	shards  []shard
	mask    uint64
	fp      func(string) uint64
	counter atomic.Int64
	pages   pagetab
	// lossy turns confirmation off (bitstate); fpMask truncates its
	// fingerprints to fpBits bits (all ones, fpBits 0, otherwise).
	lossy  bool
	fpMask uint64
	fpBits int
	// spill, non-nil for the spill kind only, holds the payloads of the
	// ids below its watermark on disk.
	spill *spill
}

// shard is one stripe of the visited set: its index and a slab arena
// holding the payload bytes.
type shard struct {
	mu    sync.Mutex
	idx   index
	arena slab
}

// New builds the configured store. shards is the stripe count (a power of
// two, chosen by the caller from its worker count) and fp the state
// fingerprint.
func New(cfg Config, shards int, fp func(string) uint64) (*Store, error) {
	if shards <= 0 || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("store: shard count %d is not a positive power of two", shards)
	}
	st := &Store{
		shards: make([]shard, shards),
		mask:   uint64(shards - 1),
		fp:     fp,
		fpMask: ^uint64(0),
	}
	switch cfg.ResolvedKind() {
	case Mem:
		st.pages.init(firstPageBits, defaultPageBits)
	case Bitstate:
		st.lossy = true
		if cfg.FingerprintBits > 0 && cfg.FingerprintBits < 64 {
			st.fpBits = cfg.FingerprintBits
			st.fpMask = 1<<uint(cfg.FingerprintBits) - 1
		}
		st.pages.init(firstPageBits, defaultPageBits)
	case Spill:
		// Spill moves whole pages, so its pages are all one size.
		bits := cfg.PageBits
		if bits <= 0 {
			bits = defaultPageBits
		}
		st.pages.init(bits, bits)
		var err error
		if st.spill, err = newSpill(cfg, &st.pages); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownKind, cfg.Kind)
	}
	for i := range st.shards {
		st.shards[i].idx.grow()
	}
	return st, nil
}

// Intern returns the id of s, assigning a fresh dense id (in interning
// order, starting at 0) on first sight. Every fingerprint hit is confirmed
// against the stored payload, resident or read back from disk, except
// under bitstate, which trusts the fingerprint and may merge distinct
// states. It is InternBytes over s's bytes, hashed with the fingerprint
// passed to New.
func (st *Store) Intern(s string) (id int32, fresh bool) {
	return st.InternBytes(st.fp(s), bytesOf(s))
}

// InternBytes is the one intern path: the state is string(b), handed over
// as its bytes so that the expansion hot path materializes no string and a
// dedup hit allocates nothing. h must equal what the fingerprint passed to
// New returns for string(b): the caller hashes, the store never re-derives
// h. b is fully consumed before InternBytes returns (a fresh payload is
// copied into the shard's slab), so callers may reuse the buffer.
func (st *Store) InternBytes(h uint64, b []byte) (id int32, fresh bool) {
	h &= st.fpMask
	sh := &st.shards[h&st.mask]
	sh.mu.Lock()
	i, id := st.lookup(sh, h, b)
	fresh = id < 0
	if fresh {
		id = st.add(sh, i, h, sh.arena.addBytes(b))
	}
	sh.mu.Unlock()
	return id, fresh
}

// bytesOf views s's bytes without copying them; the store only reads
// them.
func bytesOf(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// lookup returns b's slot and id in sh, or the empty slot where it belongs
// and -1. Caller holds sh.mu.
func (st *Store) lookup(sh *shard, h uint64, b []byte) (int, int32) {
	i, id := sh.idx.first(h)
	for id >= 0 && !st.lossy && !st.confirm(id, b) {
		i, id = sh.idx.next(h, i)
	}
	return i, id
}

// confirm reports whether the fingerprint hit on id is the state b. It
// runs with the owning shard locked, which orders it after the payload
// write of any id interned during the current level (same state, same
// fingerprint, same shard); payloads from earlier levels are ordered by
// the level barrier. A failed read-back is a mismatch — wrong only in runs
// that are already doomed, since the sticky error aborts the run at the
// next barrier. The conversion in the comparison does not allocate.
func (st *Store) confirm(id int32, b []byte) bool {
	v, ok := st.payload(id, true)
	return ok && v == string(b)
}

// payload returns the payload of id: the resident one, or, for an id below
// the spill part's watermark, its page read back (counted as a collision
// confirm when confirming). !ok means that read failed.
func (st *Store) payload(id int32, confirming bool) (string, bool) {
	if sp := st.spill; sp != nil && sp.holds(id) {
		return sp.read(id, confirming)
	}
	return st.pages.get(id), true
}

// add assigns the next id to payload s and records it in sh's empty slot
// i. Caller holds sh.mu.
func (st *Store) add(sh *shard, i int, h uint64, s string) int32 {
	id := int32(st.counter.Add(1) - 1)
	st.pages.set(id, s)
	if st.spill != nil {
		st.spill.resident.Add(sizeOf(s))
	}
	sh.idx.insert(i, h, id)
	return id
}

// State returns the payload interned under id. The id must have been
// returned by Intern, and the read must be ordered after the write
// (same-shard mutual exclusion during a level, or a level barrier).
func (st *Store) State(id int32) string {
	v, _ := st.payload(id, false)
	return v
}

// Probe reports whether s is already interned, and under which id,
// without interning it.
func (st *Store) Probe(s string) (int32, bool) {
	h := st.fp(s) & st.fpMask
	sh := &st.shards[h&st.mask]
	sh.mu.Lock()
	_, id := st.lookup(sh, h, bytesOf(s))
	sh.mu.Unlock()
	return id, id >= 0
}

// Len is the number of states interned so far (live, atomic).
func (st *Store) Len() int { return int(st.counter.Load()) }

// Stats snapshots the store's telemetry (safe during a level). mem and
// bitstate measure their payload bytes; spill estimates them per resident
// state and reports no ShardBytes.
func (st *Store) Stats() Stats {
	out := Stats{
		Kind:            Mem,
		States:          st.Len(),
		Lossy:           st.lossy,
		FingerprintBits: st.fpBits,
	}
	if st.lossy {
		out.Kind = Bitstate
	}
	measured := st.spill == nil
	if measured {
		out.ShardBytes = make([]int64, len(st.shards))
		out.BytesInRAM = st.pages.bytes.Load()
	}
	for i := range st.shards {
		sh := &st.shards[i]
		idx := sh.idx.bytes.Load()
		out.IndexBytes += idx
		if measured {
			out.ShardBytes[i] = sh.arena.bytes.Load() + idx
			out.BytesInRAM += out.ShardBytes[i]
		}
	}
	if !measured {
		st.spill.stats(&out)
	}
	return out
}

// Maintain is the level-barrier hook: with a spill part it enforces the
// byte budget, spilling payloads with id < keepFrom (the ids below the
// frontier about to be expanded). It returns the first I/O error the
// store has encountered, sticky. Quiescence required.
func (st *Store) Maintain(keepFrom int32) error {
	if st.spill == nil {
		return nil
	}
	return st.spill.maintain(keepFrom, int32(st.counter.Load()))
}

// Err returns the sticky I/O error, if any, without maintenance.
func (st *Store) Err() error {
	if st.spill == nil {
		return nil
	}
	return st.spill.err()
}

// Close releases segment files and the spill part's own temp directory.
// Idempotent.
func (st *Store) Close() error {
	if st.spill == nil {
		return nil
	}
	return st.spill.close()
}

// ParseFlags assembles a Config from the CLIs' shared flag values
// (-store and -max-store-bytes), validating the backend name.
func ParseFlags(kind string, maxBytes int64) (Config, error) {
	var cfg Config
	switch kind {
	case "", "mem":
		cfg.Kind = Mem
	case "spill":
		cfg.Kind = Spill
	case "bitstate":
		cfg.Kind = Bitstate
	default:
		return Config{}, fmt.Errorf("%w: %q (want mem, spill or bitstate)", ErrUnknownKind, kind)
	}
	if maxBytes < 0 {
		return Config{}, fmt.Errorf("store: negative byte budget %d", maxBytes)
	}
	cfg.MaxBytes = maxBytes
	return cfg, nil
}
