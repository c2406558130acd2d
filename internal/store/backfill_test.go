package store

import (
	"encoding/binary"
	"errors"
	"testing"
)

// TestNewValidation pins New's error paths: shard counts must be positive
// powers of two and the backend kind must be known.
func TestNewValidation(t *testing.T) {
	for _, shards := range []int{0, -1, 3, 6} {
		if _, err := New(Config{}, shards, stringFP); err == nil {
			t.Errorf("New accepted shard count %d", shards)
		}
	}
	if _, err := New(Config{Kind: Kind("disk")}, 1, stringFP); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("New(kind=disk) = %v, want ErrUnknownKind", err)
	}
}

func TestConfigLossy(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want bool
	}{
		{Config{}, false},
		{Config{Kind: Mem}, false},
		{Config{Kind: Spill}, false},
		{Config{Kind: Bitstate}, true},
	} {
		if got := tc.cfg.Lossy(); got != tc.want {
			t.Errorf("Config{Kind:%q}.Lossy() = %v, want %v", tc.cfg.Kind, got, tc.want)
		}
	}
}

// TestErrNilOnHealthyBackends: Err reports no deferred I/O failure on any
// backend that has only done in-memory or successful disk work.
func TestErrNilOnHealthyBackends(t *testing.T) {
	for name, cfg := range backendConfigs(t) {
		st, err := New(cfg, 2, stringFP)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st.Intern("a")
		st.Intern("b")
		if err := st.Maintain(2); err != nil {
			t.Fatalf("%s: Maintain: %v", name, err)
		}
		if err := st.Err(); err != nil {
			t.Errorf("%s: Err() = %v on a healthy store", name, err)
		}
		if err := st.Close(); err != nil {
			t.Errorf("%s: Close: %v", name, err)
		}
	}
}

// TestSpillDefaultDir: an empty Dir selects a temp directory that Close
// cleans up, and an unset MaxBytes falls back to the default budget.
func TestSpillDefaultDir(t *testing.T) {
	st, err := New(Config{Kind: Spill}, 1, stringFP)
	if err != nil {
		t.Fatal(err)
	}
	st.Intern("x")
	if got := st.Stats().MaxBytes; got != DefaultMaxBytes {
		t.Errorf("default budget = %d, want DefaultMaxBytes %d", got, DefaultMaxBytes)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIntCodecWidths round-trips the fixed-width little-endian encoding
// of every integer type through a spill store, as an integer-valued system
// encodes its states (the braid row's lane and position, for one): NUL and
// 0xFF bytes, and the sign bytes of negative values, must come back from
// the segments byte for byte.
func TestIntCodecWidths(t *testing.T) {
	t.Run("int8", func(t *testing.T) { widthRoundTrip(t, 1, []int64{-128, -1, 0, 1, 127}) })
	t.Run("int16", func(t *testing.T) { widthRoundTrip(t, 2, []int64{-32768, -7, 0, 9, 32767}) })
	t.Run("int32", func(t *testing.T) { widthRoundTrip(t, 4, []int64{-1 << 31, -3, 0, 5, 1<<31 - 1}) })
	t.Run("int64", func(t *testing.T) { widthRoundTrip(t, 8, []int64{-1 << 62, -11, 0, 13, 1 << 62}) })
	t.Run("uint", func(t *testing.T) { widthRoundTrip(t, 8, []int64{0, 1, 1 << 40}) })
	t.Run("uint8", func(t *testing.T) { widthRoundTrip(t, 1, []int64{0, 1, 255}) })
	t.Run("uint16", func(t *testing.T) { widthRoundTrip(t, 2, []int64{0, 2, 65535}) })
	t.Run("uint32", func(t *testing.T) { widthRoundTrip(t, 4, []int64{0, 4, 1<<32 - 1}) })
	t.Run("uint64", func(t *testing.T) { widthRoundTrip(t, 8, []int64{0, 8, -1 << 63}) })
	t.Run("uintptr", func(t *testing.T) { widthRoundTrip(t, 8, []int64{0, 16, 1 << 30}) })
}

// widthRoundTrip interns the width-byte encodings of vals into a spill
// store of 16-state pages under a 1-byte budget, spills them and reads
// each back.
func widthRoundTrip(t *testing.T, width int, vals []int64) {
	t.Helper()
	st, err := New(Config{Kind: Spill, MaxBytes: 1, PageBits: 4, Dir: t.TempDir()}, 1, stringFP)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var states []string
	for pad := 0; len(states) < 1<<4; pad++ {
		for _, v := range vals {
			enc := binary.LittleEndian.AppendUint64(nil, uint64(v))[:width]
			states = append(states, string(append(enc, byte(pad))))
		}
	}
	for i, s := range states {
		if sizeOf(s) <= int64(width) {
			t.Fatalf("sizeOf(%x) = %d, not above the payload width", s, sizeOf(s))
		}
		if id, fresh := st.Intern(s); !fresh || id != int32(i) {
			t.Fatalf("Intern(%x) = (%d, %v), want (%d, true)", s, id, fresh, i)
		}
	}
	if err := st.Maintain(int32(len(states))); err != nil {
		t.Fatal(err)
	}
	if st.Stats().SpilledStates == 0 {
		t.Fatal("nothing spilled under a 1-byte budget")
	}
	for i, s := range states {
		if got := st.State(int32(i)); got != s {
			t.Fatalf("State(%d) = %x after a spill round trip, want %x", i, got, s)
		}
	}
}
