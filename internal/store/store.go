// Package store is the pluggable visited-set subsystem underneath the
// exploration engine: the fingerprint-sharded state store that bounds how
// large an instance of each impossibility proof's finite model the library
// can certify. Every backend keys its shards on one index, a pointer-free
// open-addressing fingerprint -> id table (12 bytes per slot, see index),
// over a paged id -> payload table. The StateStore interface has three
// backends:
//
//   - mem: exact and RAM-resident, the default. Every fingerprint hit is
//     confirmed against the stored payload.
//   - spill: memory-budgeted. The index stays in RAM; full state payloads
//     spill to compressed append-only segment files once a byte budget is
//     exceeded, and fingerprint hits on spilled ids are confirmed by
//     reading the segment back. Sound: no 64-bit collision is ever trusted.
//   - bitstate: a lossy sweep (SPIN's bitstate-hashing analogue): the mem
//     store with payload confirmation off and an optional fingerprint
//     mask. It keeps the payloads of the states it keeps; colliding states
//     are silently merged, so the explored graph may undercount the
//     reachable set. Stats.Lossy flags every result so downstream verdicts
//     are downgraded to "no violation found". Never an impossibility-proof
//     witness.
//
// The package is near-leaf: its only internal dependency is obs (itself a
// leaf), for the shared latency-histogram type in Stats — so the engine,
// core and the CLIs can all select backends without cycles. The
// concurrency contract mirrors the engine's two-phase BFS: Intern/
// InternBytes/Probe/State/Len/Stats may be called concurrently during a
// level; Maintain and Close require quiescence (the engine calls them only
// at level barriers and after replay).
package store

import (
	"errors"
	"fmt"

	"repro/internal/obs"
)

// Kind names a backend.
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

// ErrNoCodec is returned by New when the spill backend is requested for a
// state type it cannot serialize (see codecFor).
var ErrNoCodec = errors.New("store: state type has no spill codec")

// ErrCorruptPage is wrapped by the spill backend's read error when a page
// read back from a segment file is not the page written: a flate stream
// that does not decompress, a raw image whose CRC-32C differs from the one
// recorded at spill time, or an image that does not parse (a state count,
// offset table or payload the page layout cannot hold).
var ErrCorruptPage = errors.New("store: corrupt spill page")

// Config selects and parameterizes a backend.
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

// StateStore is the visited set of one exploration run. Implementations
// are safe for concurrent Intern/InternBytes/Probe/State/Len/Stats during
// a level; Maintain and Close require all workers quiescent (the engine's
// level barriers provide exactly that).
type StateStore[S comparable] interface {
	// Intern returns the provisional id of s, assigning a fresh dense id
	// (in interning order, starting at 0) on first sight. Exact backends
	// confirm every fingerprint hit against the stored payload; the
	// bitstate backend trusts the fingerprint and may merge distinct
	// states.
	Intern(s S) (id int32, fresh bool)
	// InternBytes is Intern for a string state handed over as its bytes,
	// the expansion hot path's zero-copy route: a dedup hit materializes
	// no string. It must be called only when S is string (it panics
	// otherwise). b must be the exact payload (the state is string(b)),
	// and h must equal what the fingerprint passed to New returns for
	// string(b): the caller hashes, the store never re-derives h.
	// InternBytes(h, b) and Intern(string(b)) are interchangeable — same
	// id assignment, same dedup, same Stats — and b is fully consumed
	// before InternBytes returns, so callers may reuse the buffer.
	InternBytes(h uint64, b []byte) (id int32, fresh bool)
	// State returns the payload interned under id. The id must have been
	// returned by Intern, and the read must be ordered after the write
	// (same-shard mutual exclusion during a level, or a level barrier).
	State(id int32) S
	// Probe reports whether s is already interned, and under which id,
	// without interning it.
	Probe(s S) (id int32, ok bool)
	// Len is the number of states interned so far (live, atomic).
	Len() int
	// Stats snapshots the backend telemetry (safe during a level).
	Stats() Stats
	// Maintain is the level-barrier hook: the backend may enforce its byte
	// budget (spilling payloads with id < keepFrom — the ids below the
	// frontier about to be expanded). It returns the first I/O error the
	// backend has encountered, sticky.
	Maintain(keepFrom int32) error
	// Err returns the sticky I/O error, if any, without maintenance.
	Err() error
	// Close releases files and temp directories. Idempotent.
	Close() error
}

// New builds the configured backend. shards is the stripe count (a power
// of two, chosen by the caller from its worker count) and fp the state
// fingerprint. The spill backend additionally needs a payload codec for S
// and fails with ErrNoCodec when none exists.
func New[S comparable](cfg Config, shards int, fp func(S) uint64) (StateStore[S], error) {
	if shards <= 0 || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("store: shard count %d is not a positive power of two", shards)
	}
	switch cfg.ResolvedKind() {
	case Mem, Bitstate:
		return newMemStore[S](cfg, shards, fp), nil
	case Spill:
		return newSpillStore[S](cfg, shards, fp)
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownKind, cfg.Kind)
	}
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
