package engine

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
)

// This file is the engine half of the backend conformance suite (the unit
// half lives in internal/store): every backend must preserve the engine's
// worker-count-determinism contract on real explorations, the spill
// backend bit for bit against mem, and the bitstate backend must stay
// honest about its lossiness.

// storeBackends is the conformance matrix. The spill entries use budgets
// small enough that the grid workload actually spills.
func storeBackends(t *testing.T) map[string]store.Config {
	t.Helper()
	return map[string]store.Config{
		"mem":        {Kind: store.Mem},
		"spill":      {Kind: store.Spill, MaxBytes: 8 << 10, Dir: t.TempDir()},
		"bitstate64": {Kind: store.Bitstate}, // full-width fp: exact on these inputs, still flagged lossy
	}
}

// TestStoreBackendDeterminism runs the grid workload under every backend
// at workers 1, 2 and 8 and requires byte-identical Results within each
// backend — and across backends, since none of these configurations
// actually loses states.
func TestStoreBackendDeterminism(t *testing.T) {
	ref, err := referenceExplore([]string{"0,0"}, gridExpand(40), 0)
	if err != nil {
		t.Fatalf("reference BFS: %v", err)
	}
	for name, cfg := range storeBackends(t) {
		t.Run(name, func(t *testing.T) {
			for _, par := range []int{1, 2, 8} {
				res, err := Explore([]string{"0,0"}, gridExpand(40), Options{Parallelism: par, Store: cfg})
				if err != nil {
					t.Fatalf("workers=%d: %v", par, err)
				}
				mustEqualResults(t, name, ref, res)
				if res.Stats.Store.Kind != cfg.ResolvedKind() {
					t.Fatalf("Stats.Store.Kind = %q, want %q", res.Stats.Store.Kind, cfg.ResolvedKind())
				}
				if res.Stats.Lossy != cfg.Lossy() {
					t.Fatalf("Stats.Lossy = %v under %q", res.Stats.Lossy, name)
				}
			}
		})
	}
}

// TestSpillExplorationSpills pins that the budget in storeBackends is
// actually doing work: the 40x40 grid (1600 states, ~7 bytes each plus
// overhead) must overflow an 8 KiB budget and hit the confirm-by-readback
// path, because the grid's diamond shape dedups against earlier levels.
func TestSpillExplorationSpills(t *testing.T) {
	var st Stats
	_, err := Explore([]string{"0,0"}, gridExpand(40),
		Options{Parallelism: 2, Stats: &st, Store: store.Config{Kind: store.Spill, MaxBytes: 8 << 10, Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	ss := st.Store
	if ss.Segments == 0 || ss.SpilledStates == 0 {
		t.Fatalf("grid run spilled nothing under an 8KiB budget: %+v", ss)
	}
	if ss.BytesSpilled <= ss.CompressedBytes {
		t.Fatalf("flate expanded the payload: raw=%d disk=%d", ss.BytesSpilled, ss.CompressedBytes)
	}
	if line := st.StoreString(); !strings.Contains(line, "store=spill") || !strings.Contains(line, "segments=") {
		t.Fatalf("StoreString missing spill figures: %q", line)
	}
}

// TestSpillWithDegradedFingerprint forces every state through the
// fingerprint-collision confirm path while payloads are spilling: the
// 2-bit fingerprint makes all buckets collide, so correctness here means
// the segment read-back really distinguishes states. Small pages
// (PageBits) let the 625-state grid span many spillable pages.
func TestSpillWithDegradedFingerprint(t *testing.T) {
	ref, err := referenceExplore([]string{"0,0"}, gridExpand(25), 0)
	if err != nil {
		t.Fatalf("reference BFS: %v", err)
	}
	for _, par := range []int{1, 4} {
		var st Stats
		res, err := Explore([]string{"0,0"}, gridExpand(25), Options{
			Parallelism:        par,
			Stats:              &st,
			Store:              store.Config{Kind: store.Spill, MaxBytes: 1 << 10, Dir: t.TempDir(), PageBits: 5},
			degradeFingerprint: true,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", par, err)
		}
		mustEqualResults(t, "degraded-fp spill", ref, res)
		if st.Store.CollisionConfirms == 0 {
			t.Fatal("no spilled-payload confirms under a 2-bit fingerprint and a 1KiB budget")
		}
	}
}

// TestBitstateUndercounts pins the lossy semantics end to end: with a
// tiny fingerprint mask the explored state count must stay at or below
// both the exact count and the mask's capacity, and the taint must
// surface in Stats.
func TestBitstateUndercounts(t *testing.T) {
	exact, err := Explore([]string{"0,0"}, gridExpand(40), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	res, err := Explore([]string{"0,0"}, gridExpand(40), Options{
		Stats: &st,
		Store: store.Config{Kind: store.Bitstate, FingerprintBits: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.States) >= len(exact.States) {
		t.Fatalf("8-bit sweep kept %d of %d states; expected merges", len(res.States), len(exact.States))
	}
	if len(res.States) > 256 {
		t.Fatalf("8-bit sweep admitted %d states (> 2^8)", len(res.States))
	}
	if !st.Lossy || !st.Store.Lossy || st.Store.FingerprintBits != 8 {
		t.Fatalf("lossy run not tainted: %+v", st.Store)
	}
	if !strings.Contains(st.String(), "LOSSY") {
		t.Fatalf("Stats.String hides the taint: %q", st.String())
	}
}

// TestDifferentialStoreBackends drives the cross-backend oracle arm: mem
// vs spill byte-identical, bitstate rejected without AllowLossy and
// bounded with it.
func TestDifferentialStoreBackends(t *testing.T) {
	spec := DiffSpec[string]{
		Name:   "grid-30",
		Inits:  []string{"0,0"},
		Expand: gridExpand(30),
		Stores: []store.Config{{Kind: store.Spill, MaxBytes: 4 << 10, Dir: t.TempDir(), PageBits: 6}},
	}
	rep, err := Differential(spec)
	if err != nil {
		t.Fatalf("mem vs spill diverged: %v", err)
	}
	found := false
	for _, m := range rep.Modes {
		if m.Mode == "full+spill" {
			found = true
			if m.Stats.Store.SpilledStates == 0 {
				t.Fatalf("spill arm ran without spilling: %+v", m.Stats.Store)
			}
		}
	}
	if !found {
		t.Fatalf("no full+spill mode in report: %+v", rep.Modes)
	}

	spec.Stores = []store.Config{{Kind: store.Bitstate, FingerprintBits: 10}}
	if _, err := Differential(spec); !errors.Is(err, ErrLossyStore) {
		t.Fatalf("lossy backend admitted without AllowLossy: %v", err)
	}
	spec.AllowLossy = true
	rep, err = Differential(spec)
	if err != nil {
		t.Fatalf("AllowLossy run failed: %v", err)
	}
	mode := rep.Modes[len(rep.Modes)-1]
	if mode.Mode != "full+bitstate" || !mode.Stats.Lossy {
		t.Fatalf("lossy arm missing or untainted: %+v", mode)
	}
}

// TestStoreErrorSurfacesAtBarrier checks the sticky-I/O-error contract:
// a spill directory that vanishes mid-run must fail the exploration with
// a store error at a barrier, not corrupt the graph.
func TestStoreErrorSurfacesAtBarrier(t *testing.T) {
	dir := t.TempDir() + "/gone"
	// Do not create dir: the first Maintain that needs a segment file fails.
	_, err := Explore([]string{"0,0"}, gridExpand(40),
		Options{Store: store.Config{Kind: store.Spill, MaxBytes: 1 << 10, Dir: dir}})
	if err == nil || !strings.Contains(err.Error(), "state store") {
		t.Fatalf("missing spill dir produced %v, want a state store error", err)
	}
}

// TestTamperedSpillPageFailsTheRun rewrites the first spilled page, as soon
// as it reaches disk, with a valid flate stream of a tampered but
// well-formed image: one state's bytes change. The run reads that page
// back (collision confirms, replay) and must fail with ErrCorruptPage, not
// return a graph built from the wrong payload.
func TestTamperedSpillPageFailsTheRun(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "seg-00000.dat")
	grid := gridExpand(40)
	tampered := false
	expand := func(s string, x *Ctx[string]) {
		// One worker: expansions run one at a time, so the first one
		// after the spill barrier tampers before any read-back.
		if !tampered {
			if info, err := os.Stat(seg); err == nil && info.Size() > 0 {
				tamperFirstPage(t, seg)
				tampered = true
			}
		}
		grid(s, x)
	}
	res, err := Explore([]string{"0,0"}, expand,
		Options{Parallelism: 1, Store: store.Config{Kind: store.Spill, MaxBytes: 1 << 10, Dir: dir}})
	if !tampered {
		t.Fatal("the run never spilled, so nothing was tampered")
	}
	if !errors.Is(err, store.ErrCorruptPage) || res != nil {
		t.Fatalf("run over a tampered page: err = %v, graph returned %v; want ErrCorruptPage and no graph", err, res != nil)
	}
}

// tamperFirstPage decompresses the flate stream at the start of a segment
// file, flips the low bit of its last byte (a digit of the page's last grid
// state, so the image still parses) and writes the recompressed stream back
// in place.
func tamperFirstPage(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A bytes.Reader is an io.ByteReader, so flate reads exactly the first
	// stream and the remainder tells how long it was.
	r := bytes.NewReader(data)
	raw, err := io.ReadAll(flate.NewReader(r))
	if err != nil {
		t.Fatal(err)
	}
	streamLen := len(data) - r.Len()
	raw[len(raw)-1] ^= 1
	var buf bytes.Buffer
	fw, _ := flate.NewWriter(&buf, flate.BestCompression)
	fw.Write(raw)
	fw.Close()
	if buf.Len() > streamLen {
		t.Fatalf("tampered page recompresses to %d bytes, more than the %d-byte original", buf.Len(), streamLen)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(buf.Bytes(), 0); err != nil {
		t.Fatal(err)
	}
}
