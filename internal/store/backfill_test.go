package store

import (
	"errors"
	"testing"
)

// TestNewValidation pins New's error paths: shard counts must be positive
// powers of two and the backend kind must be known.
func TestNewValidation(t *testing.T) {
	for _, shards := range []int{0, -1, 3, 6} {
		if _, err := New[string](Config{}, shards, stringFP); err == nil {
			t.Errorf("New accepted shard count %d", shards)
		}
	}
	if _, err := New[string](Config{Kind: Kind("disk")}, 1, stringFP); !errors.Is(err, ErrUnknownKind) {
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
		st, err := New[string](cfg, 2, stringFP)
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
	st, err := New[string](Config{Kind: Spill}, 1, stringFP)
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

// TestIntCodecWidths round-trips every fixed-width integer state type
// through the spill codec, including negative values whose sign must
// survive the uint64 raw-bits transport.
func TestIntCodecWidths(t *testing.T) {
	t.Run("int8", func(t *testing.T) { codecRoundTrip(t, []int8{-128, -1, 0, 1, 127}) })
	t.Run("int16", func(t *testing.T) { codecRoundTrip(t, []int16{-32768, -7, 0, 9, 32767}) })
	t.Run("int32", func(t *testing.T) { codecRoundTrip(t, []int32{-1 << 31, -3, 0, 5, 1<<31 - 1}) })
	t.Run("int64", func(t *testing.T) { codecRoundTrip(t, []int64{-1 << 62, -11, 0, 13, 1 << 62}) })
	t.Run("uint", func(t *testing.T) { codecRoundTrip(t, []uint{0, 1, 1 << 40}) })
	t.Run("uint8", func(t *testing.T) { codecRoundTrip(t, []uint8{0, 1, 255}) })
	t.Run("uint16", func(t *testing.T) { codecRoundTrip(t, []uint16{0, 2, 65535}) })
	t.Run("uint32", func(t *testing.T) { codecRoundTrip(t, []uint32{0, 4, 1<<32 - 1}) })
	t.Run("uint64", func(t *testing.T) { codecRoundTrip(t, []uint64{0, 8, 1 << 63}) })
	t.Run("uintptr", func(t *testing.T) { codecRoundTrip(t, []uintptr{0, 16, 1 << 30}) })
}

func codecRoundTrip[S comparable](t *testing.T, vals []S) {
	t.Helper()
	cdc := codecFor[S]()
	if cdc == nil {
		t.Fatalf("codecFor[%T] = nil", vals[0])
	}
	for _, v := range vals {
		v := v
		if sizeOf(v) <= 0 {
			t.Fatalf("sizeOf(%v) not positive", v)
		}
		enc := cdc.enc(nil, &v)
		if got := cdc.dec(enc); got != v {
			t.Fatalf("codec round trip %v -> %v", v, got)
		}
	}
}
