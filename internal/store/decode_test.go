package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"io"
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

func spillStoreFor[S comparable](t testing.TB, fp func(S) uint64) *spillStore[S] {
	t.Helper()
	st, err := newSpillStore[S](Config{Dir: t.TempDir()}, 1, fp)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func intFP(v int) uint64 { return uint64(v) * 0x9e3779b97f4a7c15 }

// TestDecodePageOffsetTableOverrun: a header claiming 100 states over a
// 4-byte image used to slice the offset table out of range.
func TestDecodePageOffsetTableOverrun(t *testing.T) {
	st := spillStoreFor(t, stringFP)
	if _, err := st.decodePage(pageImage(100, nil, nil)); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("err = %v, want ErrCorruptPage", err)
	}
}

// TestDecodePageShortFixedWidthPayload: a 3-byte payload for an 8-byte
// integer codec used to index past the payload.
func TestDecodePageShortFixedWidthPayload(t *testing.T) {
	st := spillStoreFor(t, intFP)
	if _, err := st.decodePage(pageImage(1, []uint32{0, 3}, []byte{1, 2, 3})); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("err = %v, want ErrCorruptPage", err)
	}
}

// FuzzDecodePage feeds arbitrary bytes to the page decoder of a string
// and an int store, which must fail with ErrCorruptPage or succeed, never
// panic. It then reads the same bytes as page contents — NUL-separated
// strings, 8-byte integers — and checks encodePage then decodePage gives
// the slots back.
func FuzzDecodePage(f *testing.F) {
	f.Add(pageImage(100, nil, nil))
	f.Add(pageImage(1, []uint32{0, 3}, []byte{1, 2, 3}))
	f.Add(pageImage(2, []uint32{0, 1, 3}, []byte("abc")))
	f.Add(pageImage(1, []uint32{0, 8}, []byte{7, 0, 0, 0, 0, 0, 0, 0}))
	strs := spillStoreFor(f, stringFP)
	ints := spillStoreFor(f, intFP)
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, err := range []error{decodeErr(strs, raw), decodeErr(ints, raw)} {
			if err != nil && !errors.Is(err, ErrCorruptPage) {
				t.Fatalf("decode error %v does not wrap ErrCorruptPage", err)
			}
		}
		var ss []string
		for _, b := range bytes.Split(raw, []byte{0}) {
			if len(ss) < strs.pages.size {
				ss = append(ss, string(b))
			}
		}
		roundTrip(t, strs, ss)
		is := []int{0}
		for len(raw) >= 8 && len(is) < ints.pages.size {
			is = append(is, int(binary.LittleEndian.Uint64(raw)))
			raw = raw[8:]
		}
		roundTrip(t, ints, is)
	})
}

func decodeErr[S comparable](st *spillStore[S], raw []byte) error {
	_, err := st.decodePage(raw)
	return err
}

// roundTrip encodes vals as one page and requires decodePage to return
// them in the leading slots and zero values after.
func roundTrip[S comparable](t *testing.T, st *spillStore[S], vals []S) {
	t.Helper()
	pg := &page[S]{slots: make([]S, st.pages.size)}
	copy(pg.slots, vals)
	raw, _ := st.encodePage(pg, len(vals))
	got, err := st.decodePage(raw)
	if err != nil {
		t.Fatalf("decode of an encoded %d-state page: %v", len(vals), err)
	}
	for i, v := range got.slots {
		if v != pg.slots[i] {
			t.Fatalf("slot %d = %v after the round trip, want %v", i, v, pg.slots[i])
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
	s, err := New[string](Config{Kind: Spill, MaxBytes: 4 << 10, Dir: t.TempDir()}, 4, stringFP)
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
	st := s.(*spillStore[string])
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
	if _, err := st.decodePage(raw); err != nil {
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
