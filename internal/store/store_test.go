package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// stringFP mirrors the engine's string fingerprint shape: deterministic,
// well spread. Tests that need collisions mask it: the bitstate
// FingerprintBits knob, or TestConformanceInsertLookup's 2-bit run.
func stringFP(s string) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return h
}

// backendConfigs enumerates the conformance matrix: every backend, with
// the spill backend additionally squeezed under a tiny budget so the
// segment path is exercised, not just compiled.
func backendConfigs(t *testing.T) map[string]Config {
	t.Helper()
	return map[string]Config{
		"mem":          {Kind: Mem},
		"spill":        {Kind: Spill, Dir: t.TempDir()},
		"spill-tiny":   {Kind: Spill, MaxBytes: 1 << 10, Dir: t.TempDir()},
		"spill-page32": {Kind: Spill, MaxBytes: 1 << 10, Dir: t.TempDir(), PageBits: 5},
		"bitstate":     {Kind: Bitstate},
		"default-kind": {},
	}
}

func testStates(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("state-%06d-%s", i, string(rune('a'+i%26)))
	}
	return out
}

// TestConformanceInsertLookup drives the shared insert/lookup/confirm
// semantics through every backend: dense ids in interning order, stable
// re-interning, payload round-trips and Probe visibility — including
// across Maintain-driven spilling. The exact backends run a second time
// under a 2-bit fingerprint, where every state of a shard shares one
// fingerprint and each lookup must confirm its way past the others'
// payloads, resident or (spill-tiny) read back from disk.
func TestConformanceInsertLookup(t *testing.T) {
	fp2 := func(s string) uint64 { return stringFP(s) & 3 }
	cfgs := backendConfigs(t)
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) { conformInsertLookup(t, cfg, stringFP) })
	}
	for _, name := range []string{"mem", "spill-tiny"} {
		t.Run(name+"-fp2", func(t *testing.T) { conformInsertLookup(t, cfgs[name], fp2) })
	}
}

func conformInsertLookup(t *testing.T, cfg Config, fp func(string) uint64) {
	const n = 4096 // > 1 page, so spill-tiny moves multiple pages to disk
	states := testStates(n)
	st, err := New(cfg, 4, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i, s := range states {
		id, fresh := st.Intern(s)
		if !fresh || id != int32(i) {
			t.Fatalf("Intern(%q) = (%d, %v), want (%d, true)", s, id, fresh, i)
		}
	}
	if st.Len() != n {
		t.Fatalf("Len = %d, want %d", st.Len(), n)
	}
	// Barrier-equivalent: enforce the budget, then re-check everything.
	if err := st.Maintain(int32(n)); err != nil {
		t.Fatal(err)
	}
	for i, s := range states {
		if got := st.State(int32(i)); got != s {
			t.Fatalf("State(%d) = %q, want %q", i, got, s)
		}
		id, fresh := st.Intern(s)
		if fresh || id != int32(i) {
			t.Fatalf("re-Intern(%q) = (%d, %v), want (%d, false)", s, id, fresh, i)
		}
		pid, ok := st.Probe(s)
		if !ok || pid != int32(i) {
			t.Fatalf("Probe(%q) = (%d, %v), want (%d, true)", s, pid, ok, i)
		}
	}
	if _, ok := st.Probe("never-interned"); ok {
		t.Fatal("Probe of an unknown state reported a hit")
	}
	if st.Len() != n {
		t.Fatalf("Len after re-interning = %d, want %d", st.Len(), n)
	}
	ss := st.Stats()
	if ss.States != n {
		t.Fatalf("Stats.States = %d, want %d", ss.States, n)
	}
	if ss.Lossy != (cfg.Kind == Bitstate) {
		t.Fatalf("Stats.Lossy = %v for kind %q", ss.Lossy, cfg.ResolvedKind())
	}
	if ss.Kind != cfg.ResolvedKind() {
		t.Fatalf("Stats.Kind = %q, want %q", ss.Kind, cfg.ResolvedKind())
	}
	if ss.SpilledStates > 0 && ss.CollisionConfirms == 0 {
		t.Fatal("re-interning spilled states confirmed nothing against their segments")
	}
}

// TestEmptyStateInterns: the empty string is a state like any other on
// every backend. It takes no slab bytes, dedups, and reads back from a
// spilled page as a zero-length payload.
func TestEmptyStateInterns(t *testing.T) {
	states := append([]string{""}, testStates(2047)...)
	for name, cfg := range backendConfigs(t) {
		t.Run(name, func(t *testing.T) {
			st, err := New(cfg, 1, stringFP)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			for i, s := range states {
				if id, fresh := st.Intern(s); !fresh || id != int32(i) {
					t.Fatalf("Intern(%q) = (%d, %v), want (%d, true)", s, id, fresh, i)
				}
			}
			if err := st.Maintain(int32(len(states))); err != nil {
				t.Fatal(err)
			}
			if got := st.State(0); got != "" {
				t.Fatalf("State(0) = %q, want the empty state", got)
			}
			if id, fresh := st.Intern(""); fresh || id != 0 {
				t.Fatalf("re-Intern(\"\") = (%d, %v), want (0, false)", id, fresh)
			}
		})
	}
}

// TestConformanceConcurrent hammers Intern/Probe from several goroutines
// with overlapping state sets and checks the end state agrees with a
// sequential interning. Run under -race this is the synchronization
// contract's unit-level check (the engine-level determinism checks are in
// internal/engine).
func TestConformanceConcurrent(t *testing.T) {
	const n = 2000
	states := testStates(n)
	for name, cfg := range backendConfigs(t) {
		t.Run(name, func(t *testing.T) {
			st, err := New(cfg, 8, stringFP)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := range states {
						s := states[(i+g*531)%n]
						id, _ := st.Intern(s)
						if got := st.State(id); got != s {
							panic(fmt.Sprintf("State(%d) = %q after Intern(%q)", id, got, s))
						}
						if pid, ok := st.Probe(s); !ok || pid != id {
							panic(fmt.Sprintf("Probe(%q) = (%d, %v), want (%d, true)", s, pid, ok, id))
						}
					}
				}(g)
			}
			wg.Wait()
			if st.Len() != n {
				t.Fatalf("Len = %d, want %d distinct states", st.Len(), n)
			}
			seen := make(map[int32]bool, n)
			for _, s := range states {
				id, fresh := st.Intern(s)
				if fresh {
					t.Fatalf("state %q lost after concurrent interning", s)
				}
				if seen[id] {
					t.Fatalf("id %d assigned to two states", id)
				}
				seen[id] = true
			}
		})
	}
}

// TestSpillBudget checks the budget mechanics: payloads spill oldest-first
// once resident bytes exceed MaxBytes, ids at or above keepFrom stay
// resident, and spilled payloads keep answering State/Intern/Probe
// exactly (confirm-by-readback).
func TestSpillBudget(t *testing.T) {
	const n = 8192
	states := testStates(n)
	st, err := New(Config{Kind: Spill, MaxBytes: 4 << 10, Dir: t.TempDir()}, 4, stringFP)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, s := range states {
		st.Intern(s)
	}
	before := st.Stats()
	if before.Segments != 0 {
		t.Fatalf("segments written before Maintain: %d", before.Segments)
	}
	// keepFrom in the middle: pages wholly below it may spill, the rest not.
	keep := int32(3 << defaultPageBits)
	if err := st.Maintain(keep); err != nil {
		t.Fatal(err)
	}
	ss := st.Stats()
	if ss.Segments == 0 || ss.SpilledStates == 0 {
		t.Fatalf("nothing spilled under a %d-byte budget: %+v", 4<<10, ss)
	}
	if ss.SpilledStates > int(keep) {
		t.Fatalf("spilled %d states past keepFrom %d", ss.SpilledStates, keep)
	}
	if ss.BytesSpilled <= 0 || ss.CompressedBytes <= 0 || ss.CompressedBytes >= ss.BytesSpilled {
		t.Fatalf("suspicious spill accounting: raw=%d comp=%d", ss.BytesSpilled, ss.CompressedBytes)
	}
	for i, s := range states {
		if got := st.State(int32(i)); got != s {
			t.Fatalf("State(%d) = %q, want %q after spill", i, got, s)
		}
		if id, fresh := st.Intern(s); fresh || id != int32(i) {
			t.Fatalf("re-Intern(%q) = (%d, %v) after spill", s, id, fresh)
		}
	}
	after := st.Stats()
	if after.CollisionConfirms == 0 {
		t.Fatal("re-interning spilled states confirmed nothing from segments")
	}
	if after.SegmentReads == 0 {
		t.Fatal("no segment reads recorded")
	}
	// A second Maintain with full keepFrom may spill the rest; everything
	// must still round-trip.
	if err := st.Maintain(int32(n)); err != nil {
		t.Fatal(err)
	}
	for i, s := range states {
		if got := st.State(int32(i)); got != s {
			t.Fatalf("State(%d) = %q, want %q after second spill", i, got, s)
		}
	}
}

// TestBitstateLossiness pins the documented unsoundness: under a
// truncated fingerprint, distinct states merge, Len undercounts, and the
// Stats carry Lossy plus the mask width. Under the full 64-bit
// fingerprint the backend behaves exactly on these inputs.
func TestBitstateLossiness(t *testing.T) {
	const n = 1000
	states := testStates(n)

	lossy, err := New(Config{Kind: Bitstate, FingerprintBits: 6}, 2, stringFP)
	if err != nil {
		t.Fatal(err)
	}
	defer lossy.Close()
	for _, s := range states {
		lossy.Intern(s)
	}
	if lossy.Len() >= n {
		t.Fatalf("6-bit fingerprints kept %d of %d states; expected merges", lossy.Len(), n)
	}
	if lossy.Len() > 1<<6 {
		t.Fatalf("6-bit fingerprints admit at most 64 states, got %d", lossy.Len())
	}
	ss := lossy.Stats()
	if !ss.Lossy || ss.FingerprintBits != 6 {
		t.Fatalf("Stats = %+v, want Lossy=true FingerprintBits=6", ss)
	}

	exact, err := New(Config{Kind: Bitstate}, 2, stringFP)
	if err != nil {
		t.Fatal(err)
	}
	defer exact.Close()
	for i, s := range states {
		if id, fresh := exact.Intern(s); !fresh || id != int32(i) {
			t.Fatalf("full-width bitstate merged distinct state %q", s)
		}
	}
	if !exact.Stats().Lossy {
		t.Fatal("bitstate must report Lossy even when no collision occurred: the claim is about the mode, not the run")
	}
}

// TestIntCodecRoundTrip drives integer-valued states, encoded as their
// 8-byte little-endian bytes, through a spill round-trip.
func TestIntCodecRoundTrip(t *testing.T) {
	st, err := New(Config{Kind: Spill, MaxBytes: 1, Dir: t.TempDir()}, 1, stringFP)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const n = 3000
	enc := func(i int) string { return string(binary.LittleEndian.AppendUint64(nil, uint64(i*7-1000))) }
	for i := 0; i < n; i++ {
		st.Intern(enc(i))
	}
	if err := st.Maintain(n); err != nil {
		t.Fatal(err)
	}
	if st.Stats().SpilledStates == 0 {
		t.Fatal("int payloads did not spill under a 1-byte budget")
	}
	for i := 0; i < n; i++ {
		if got := st.State(int32(i)); got != enc(i) {
			t.Fatalf("State(%d) = %x, want %x", i, got, enc(i))
		}
	}
}

// TestParseFlags pins the CLI flag surface.
func TestParseFlags(t *testing.T) {
	for _, tc := range []struct {
		kind string
		want Kind
	}{{"", Mem}, {"mem", Mem}, {"spill", Spill}, {"bitstate", Bitstate}} {
		cfg, err := ParseFlags(tc.kind, 0)
		if err != nil || cfg.Kind != tc.want {
			t.Fatalf("ParseFlags(%q) = (%+v, %v), want kind %q", tc.kind, cfg, err, tc.want)
		}
	}
	if _, err := ParseFlags("disk", 0); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("ParseFlags(disk) = %v, want ErrUnknownKind", err)
	}
	if _, err := ParseFlags("spill", -1); err == nil {
		t.Fatal("ParseFlags accepted a negative budget")
	}
}

// TestStatsByteAccounting pins every backend's byte accounting: the
// index is measured from its arrays (12 bytes a slot, at most 13/16 full).
// Spill's BytesInRAM is its resident payload estimate plus the index. The
// mem and bitstate backends measure their payload as the page-table and
// slab-chunk bytes they allocated: the page bytes are exactly the pages'
// slots, the slab chunks hold at least every payload byte, and the whole
// figure is no more than the heap bytes the interning allocated.
func TestStatsByteAccounting(t *testing.T) {
	const n = 500
	states := testStates(n)
	var payload, payloadBytes int64
	for _, s := range states {
		payload += sizeOf(s)
		payloadBytes += int64(len(s))
	}
	for name, cfg := range backendConfigs(t) {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			st, err := New(cfg, 4, stringFP)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			for _, s := range states {
				st.Intern(s)
			}
			runtime.ReadMemStats(&after)
			ss := st.Stats()
			if ss.IndexBytes%indexSlotBytes != 0 || ss.IndexBytes*13 <= n*16*indexSlotBytes {
				t.Fatalf("IndexBytes = %d for %d states, want whole 12-byte slots at most 13/16 full", ss.IndexBytes, n)
			}
			if cfg.ResolvedKind() == Spill {
				if ss.BytesInRAM != payload+ss.IndexBytes {
					t.Fatalf("BytesInRAM = %d, want payload %d + index %d", ss.BytesInRAM, payload, ss.IndexBytes)
				}
				if ss.ShardBytes != nil {
					t.Fatalf("spill reports ShardBytes %v", ss.ShardBytes)
				}
				if err := st.Maintain(n); err != nil {
					t.Fatal(err)
				}
				if after := st.Stats(); after.SpilledStates > 0 && after.BytesInRAM-after.IndexBytes >= payload {
					t.Fatalf("spilling %d states left resident payload at %d of %d bytes",
						after.SpilledStates, after.BytesInRAM-after.IndexBytes, payload)
				}
				return
			}
			if len(ss.ShardBytes) != 4 {
				t.Fatalf("ShardBytes has %d entries, want 4", len(ss.ShardBytes))
			}
			var pageBytes, slabBytes, sum int64
			for _, pg := range st.pages.pages() {
				pageBytes += int64(cap(pg.slots)) * int64(unsafe.Sizeof(""))
			}
			for i, b := range ss.ShardBytes {
				slab := b - st.shards[i].idx.bytes.Load()
				if slab <= 0 {
					t.Fatalf("shard %d accounts %d slab bytes over %d well-spread states", i, slab, n)
				}
				slabBytes += slab
				sum += b
			}
			if ss.BytesInRAM != pageBytes+sum {
				t.Fatalf("BytesInRAM = %d, want pages %d + shard sum %d", ss.BytesInRAM, pageBytes, sum)
			}
			if slabBytes < payloadBytes {
				t.Fatalf("slab chunks account %d bytes, under the %d payload bytes they hold", slabBytes, payloadBytes)
			}
			// Beside what BytesInRAM counts, interning allocates only the
			// index arrays its doublings discarded (fewer bytes than the
			// final index) and a few KiB of spine and shard headers.
			alloc := int64(after.TotalAlloc - before.TotalAlloc)
			if ss.BytesInRAM > alloc || alloc-ss.BytesInRAM > ss.IndexBytes+8<<10 {
				t.Fatalf("BytesInRAM = %d (pages %d, slabs %d, index %d), but interning allocated %d bytes",
					ss.BytesInRAM, pageBytes, slabBytes, ss.IndexBytes, alloc)
			}
		})
	}
}

// TestConformanceInternBytes drives InternBytes through every backend:
// InternBytes and Intern must be interchangeable — same id assignment,
// same dedup verdicts, same payload round-trips — whether a state first
// arrives as a string or as raw bytes, including across Maintain-driven
// spilling and under the bitstate backend's lossy merge (which InternBytes
// must reproduce exactly).
func TestConformanceInternBytes(t *testing.T) {
	const n = 4096
	states := testStates(n)
	fpBytes := func(b []byte) uint64 { return stringFP(string(b)) }
	for name, cfg := range backendConfigs(t) {
		t.Run(name, func(t *testing.T) {
			st, err := New(cfg, 4, stringFP)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			buf := make([]byte, 0, 64)
			for i, s := range states {
				buf = append(buf[:0], s...)
				var id int32
				var fresh bool
				if i%2 == 0 {
					id, fresh = st.InternBytes(fpBytes(buf), buf)
				} else {
					id, fresh = st.Intern(s)
				}
				if !fresh || id != int32(i) {
					t.Fatalf("first intern of %q = (%d, %v), want (%d, true)", s, id, fresh, i)
				}
				// Poison the scratch buffer: the store must have copied.
				for j := range buf {
					buf[j] = 0xDB
				}
			}
			if err := st.Maintain(int32(n)); err != nil {
				t.Fatal(err)
			}
			for i, s := range states {
				// Re-intern through the opposite path from the first pass.
				buf = append(buf[:0], s...)
				var id int32
				var fresh bool
				if i%2 == 0 {
					id, fresh = st.Intern(s)
				} else {
					id, fresh = st.InternBytes(fpBytes(buf), buf)
				}
				if fresh || id != int32(i) {
					t.Fatalf("re-intern of %q = (%d, %v), want (%d, false)", s, id, fresh, i)
				}
				if got := st.State(int32(i)); got != s {
					t.Fatalf("State(%d) = %q, want %q", i, got, s)
				}
			}
			if st.Len() != n {
				t.Fatalf("Len = %d, want %d", st.Len(), n)
			}
		})
	}
}

// TestMemInternHitAllocsNothing: a dedup hit — the overwhelmingly common
// intern outcome — allocates nothing on any backend, through Intern or
// InternBytes. In particular Intern must not heap-box the state, which an
// address-taking fingerprint call through a func value would, and the
// spill hit confirms against the resident payload without a copy.
func TestMemInternHitAllocsNothing(t *testing.T) {
	states := testStates(100)
	for name, cfg := range backendConfigs(t) {
		t.Run(name, func(t *testing.T) {
			st, err := New(cfg, 1, stringFP)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			for _, s := range states {
				st.Intern(s)
			}
			s := states[42]
			b := []byte(s)
			h := stringFP(s)
			if allocs := testing.AllocsPerRun(100, func() {
				if _, fresh := st.Intern(s); fresh {
					t.Fatal("re-interned state reported fresh")
				}
			}); allocs != 0 {
				t.Fatalf("dedup-hit Intern allocates %v times, want 0", allocs)
			}
			if allocs := testing.AllocsPerRun(100, func() {
				if _, fresh := st.InternBytes(h, b); fresh {
					t.Fatal("re-interned bytes reported fresh")
				}
			}); allocs != 0 {
				t.Fatalf("dedup-hit InternBytes allocates %v times, want 0", allocs)
			}
		})
	}
}

// TestSpillInternAllocs: a fresh intern on the spill store copies its
// payload into the shard's slab, as the mem store does, so interning
// allocates only slab chunks, pages and index growth: well under one
// allocation per state, through Intern or InternBytes.
func TestSpillInternAllocs(t *testing.T) {
	const n = 1 << 14
	states := testStates(n)
	bufs := make([][]byte, n)
	for i, s := range states {
		bufs[i] = []byte(s)
	}
	st, err := New(Config{Kind: Spill, Dir: t.TempDir()}, 4, stringFP)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, s := range states {
		var fresh bool
		if i%2 == 0 {
			_, fresh = st.InternBytes(stringFP(s), bufs[i])
		} else {
			_, fresh = st.Intern(s)
		}
		if !fresh {
			t.Fatalf("state %d interned as a hit", i)
		}
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / n; per > 0.05 {
		t.Fatalf("fresh spill interns allocate %.3f times per state, want under 0.05", per)
	}
}

// TestPagetabRampCoversIDsOnce: with a ramp, pages grow 16, 32, ... up to
// full pages, and every id lands in its own slot of a page that holds it.
func TestPagetabRampCoversIDsOnce(t *testing.T) {
	var tab pagetab
	tab.init(firstPageBits, defaultPageBits)
	const n = 3 << defaultPageBits
	states := testStates(n)
	for id := int32(0); id < n; id++ {
		tab.set(id, states[id])
	}
	for id := int32(0); id < n; id++ {
		if got := tab.get(id); got != states[id] {
			t.Fatalf("get(%d) = %q", id, got)
		}
	}
	pages := tab.pages()
	total := 0
	for k, pg := range pages {
		want := 1 << defaultPageBits
		if k < defaultPageBits-firstPageBits {
			want = 1 << (firstPageBits + k)
		}
		if len(pg.slots) != want {
			t.Fatalf("page %d holds %d slots, want %d", k, len(pg.slots), want)
		}
		total += want
	}
	if total < n || total-len(pages[len(pages)-1].slots) >= n {
		t.Fatalf("%d pages with %d slots for %d ids", len(pages), total, n)
	}
}
