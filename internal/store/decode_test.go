package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

// pageImage assembles a raw page image from a claimed count, an offset
// table and a payload, so tests can state the corruption they plant.
func pageImage(count uint32, offs []uint32, payload []byte) []byte {
	raw := binary.LittleEndian.AppendUint32(nil, count)
	for _, o := range offs {
		raw = binary.LittleEndian.AppendUint32(raw, o)
	}
	return append(raw, payload...)
}

func spillStoreFor(t testing.TB) *Store {
	t.Helper()
	st, err := New(Config{Kind: Spill, Dir: t.TempDir()}, 1, stringFP)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// spilledStore interns n test states into a 4-shard spill store of
// 2^pageBits-state pages and spills all but the last page or so of them,
// so nearly every id reads back from a segment.
func spilledStore(t testing.TB, pageBits, n int) (*Store, []string) {
	t.Helper()
	states := testStates(n)
	st, err := New(Config{Kind: Spill, MaxBytes: 1 << 10, PageBits: pageBits, Dir: t.TempDir()}, 4, stringFP)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for _, v := range states {
		st.Intern(v)
	}
	if err := st.Maintain(int32(n)); err != nil {
		t.Fatal(err)
	}
	if pages := int(st.spill.spilledTo.Load()); pages <= 2*pageCacheSize {
		t.Fatalf("%d pages spilled, want more than %d", pages, 2*pageCacheSize)
	}
	return st, states
}

// TestSpillReadBackDoesNotAlias keeps the strings State returns for a
// spilled page, then reads every other spilled page back, which evicts
// that page from the LRU cache and overwrites the read-back buffers many
// times. The kept strings must still be the states interned.
func TestSpillReadBackDoesNotAlias(t *testing.T) {
	st, states := spilledStore(t, 4, 4096)
	per, pages := st.pages.size, int(st.spill.spilledTo.Load())
	kept := make([]string, per)
	for i := range kept {
		kept[i] = st.State(int32(i))
	}
	for p := 1; p < pages; p++ {
		st.State(int32(p * per))
	}
	if _, cached := st.spill.cache[0]; cached {
		t.Fatalf("page 0 still cached after %d further read-backs", pages-1)
	}
	if reads := st.spill.segReads.Load(); reads != uint64(pages) {
		t.Fatalf("%d segment reads, want one per spilled page (%d)", reads, pages)
	}
	for i, v := range kept {
		if v != states[i] {
			t.Fatalf("kept State(%d) = %q after the read-back buffers were reused, want %q", i, v, states[i])
		}
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSpillReadBackDoesNotAliasConcurrent: 8 goroutines read spilled ids
// across more pages than the cache holds, each in its own order, and check
// every string they kept once all are done. Run under -race, it also
// checks that the shared read-back buffers and page cache are touched
// only under the segment lock.
func TestSpillReadBackDoesNotAliasConcurrent(t *testing.T) {
	st, states := spilledStore(t, 4, 4096)
	per, pages := st.pages.size, int(st.spill.spilledTo.Load())
	const workers = 8
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var kept []int32
			for r := 0; r < 2; r++ {
				for k := 0; k < pages; k++ {
					p := (g*pages/workers + k) % pages
					if g%2 == 1 {
						p = pages - 1 - p
					}
					kept = append(kept, int32(p*per+(g+r)%per))
				}
			}
			vals := make([]string, len(kept))
			for i, id := range kept {
				vals[i] = st.State(id)
				if vals[i] != states[id] {
					errs <- fmt.Errorf("State(%d) = %q, want %q", id, vals[i], states[id])
					return
				}
			}
			for i, id := range kept {
				if vals[i] != states[id] {
					errs <- fmt.Errorf("kept State(%d) = %q after later read-backs, want %q", id, vals[i], states[id])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSpillReadBackAllocs pins a warmed read-back of a page the cache does
// not hold at two allocations: the slot array and the payload block. The
// pages are 16 states, so flate's Huffman codes stay within the 9 bits
// its decoder's fixed tables hold; longer codes make it allocate link
// tables per block (see BenchmarkSpillReadBack).
func TestSpillReadBackAllocs(t *testing.T) {
	st, _ := spilledStore(t, 4, 4096)
	pages := int(st.spill.spilledTo.Load())
	k := 0
	read := func() {
		st.State(int32((k % pages) << st.pages.bits))
		k++
	}
	for i := 0; i < pages; i++ {
		read()
	}
	if allocs := testing.AllocsPerRun(2*pages, read); allocs > 2 {
		t.Fatalf("a page read-back allocates %v times, want at most 2", allocs)
	}
	if hits := st.spill.cacheHits.Load(); hits != 0 {
		t.Fatalf("%d cache hits cycling through %d pages, want every read to miss", hits, pages)
	}
}

// TestDecodePageOffsetTableOverrun: a header claiming 100 states over a
// 4-byte image used to slice the offset table out of range.
func TestDecodePageOffsetTableOverrun(t *testing.T) {
	st := spillStoreFor(t)
	if _, err := st.spill.decodePage(pageImage(100, nil, nil), nil); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("err = %v, want ErrCorruptPage", err)
	}
}

// TestDecodePageShortFixedWidthPayload: an offset table claiming an
// 8-byte state over a 3-byte payload must not slice past the payload.
func TestDecodePageShortFixedWidthPayload(t *testing.T) {
	st := spillStoreFor(t)
	if _, err := st.spill.decodePage(pageImage(1, []uint32{0, 8}, []byte{1, 2, 3}), nil); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("err = %v, want ErrCorruptPage", err)
	}
}

// FuzzDecodePage feeds arbitrary bytes to the page decoder, which must
// fail with ErrCorruptPage or succeed, never panic. It then reads the same
// bytes as page contents — NUL-separated strings — and checks encodePage
// then decodePage gives the slots back. Every decoded page is checked
// again after its image is overwritten, as the read-back path overwrites
// its buffer: a decoded string that aliases the image fails.
func FuzzDecodePage(f *testing.F) {
	f.Add(pageImage(100, nil, nil))
	f.Add(pageImage(1, []uint32{0, 3}, []byte{1, 2, 3}))
	f.Add(pageImage(2, []uint32{0, 1, 3}, []byte("abc")))
	f.Add(pageImage(1, []uint32{0, 8}, []byte{7, 0, 0, 0, 0, 0, 0, 0}))
	f.Add([]byte{1, 2})
	f.Add(pageImage(0, []uint32{0}, nil))
	strs := spillStoreFor(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := decodeErr(t, strs, raw); err != nil && !errors.Is(err, ErrCorruptPage) {
			t.Fatalf("decode error %v does not wrap ErrCorruptPage", err)
		}
		var ss []string
		for _, b := range bytes.Split(raw, []byte{0}) {
			if len(ss) < strs.pages.size {
				ss = append(ss, string(b))
			}
		}
		roundTrip(t, strs, ss)
	})
}

// decodeErr decodes a copy of raw and, when that succeeds, requires the
// slots to survive the copy being poisoned.
func decodeErr(t *testing.T, st *Store, raw []byte) error {
	t.Helper()
	img := bytes.Clone(raw)
	slots, err := st.spill.decodePage(img, nil)
	if err != nil {
		return err
	}
	want := make([]string, len(slots))
	for i, v := range slots {
		want[i] = strings.Clone(v)
	}
	poison(img)
	for i, v := range slots {
		if v != want[i] {
			t.Fatalf("slot %d = %q after the image was overwritten, decoded as %q", i, v, want[i])
		}
	}
	return nil
}

func poison(b []byte) {
	for i := range b {
		b[i] = 0xDB
	}
}

// roundTrip encodes vals as one page and requires decodePage to return
// them in the leading slots and zero values after, also once the encoded
// image is overwritten, both into a fresh array and into a reused one full
// of junk, as the read-back hands it an evicted page's array.
func roundTrip(t *testing.T, st *Store, vals []string) {
	t.Helper()
	pg := &page{slots: make([]string, st.pages.size)}
	copy(pg.slots, vals)
	raw, _ := st.spill.encodePage(pg, len(vals))
	reused := make([]string, st.pages.size)
	for i := range reused {
		reused[i] = "junk"
	}
	var decoded [][]string
	for _, into := range [][]string{nil, reused} {
		got, err := st.spill.decodePage(raw, into)
		if err != nil {
			t.Fatalf("decode of an encoded %d-state page: %v", len(vals), err)
		}
		decoded = append(decoded, got)
	}
	poison(raw)
	for _, got := range decoded {
		for i, v := range got {
			if v != pg.slots[i] {
				t.Fatalf("slot %d = %q after the round trip, want %q", i, v, pg.slots[i])
			}
		}
	}
}

// TestSpillPageChecksum rewrites a spilled page as a valid flate stream of
// a tampered image that still parses. Nothing but the checksum recorded at
// spill time can tell the difference, so the read-back must fail with
// ErrCorruptPage (and the store's sticky error wrap it) instead of handing
// a wrong payload to the collision confirm.
func TestSpillPageChecksum(t *testing.T) {
	states := testStates(4096)
	s, err := New(Config{Kind: Spill, MaxBytes: 4 << 10, Dir: t.TempDir()}, 4, stringFP)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, v := range states {
		s.Intern(v)
	}
	if err := s.Maintain(int32(len(states))); err != nil {
		t.Fatal(err)
	}
	st := s.spill
	if len(st.meta) == 0 {
		t.Fatal("nothing spilled")
	}
	m := st.meta[0]
	seg := st.segs[m.seg]
	comp := make([]byte, m.compLen)
	if _, err := seg.ReadAt(comp, m.off); err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(comp)))
	if err != nil {
		t.Fatal(err)
	}
	// Flip the last payload byte: the final state's trailing letter becomes
	// another letter, so the image stays well-formed.
	raw[len(raw)-1] ^= 1
	if _, err := st.decodePage(raw, nil); err != nil {
		t.Fatalf("tampered image no longer parses, so it does not test the checksum: %v", err)
	}
	var buf bytes.Buffer
	fw, _ := flate.NewWriter(&buf, flate.BestSpeed)
	fw.Write(raw)
	fw.Close()
	info, err := seg.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.WriteAt(buf.Bytes(), info.Size()); err != nil {
		t.Fatal(err)
	}
	st.meta[0].off, st.meta[0].compLen = info.Size(), int32(buf.Len())

	if got := s.State(0); got == states[0] {
		t.Fatalf("State(0) read the tampered page back as %q", got)
	}
	if err := s.Err(); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("store error after reading a tampered page = %v, want ErrCorruptPage", err)
	}
}
