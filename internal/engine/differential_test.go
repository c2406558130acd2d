package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/store"
)

// TestDifferentialGrid runs the oracle in-package over the n×n grid
// lattice, whose full graph (n² states, one terminal), swap-symmetry
// quotient (n(n+1)/2 states) and staircase POR reduction are all known in
// closed form: every mode, the byte-level canon, the aliasing falsifier,
// and the spill and bitstate backends.
func TestDifferentialGrid(t *testing.T) {
	const n = 12
	last := fmt.Sprintf("%d,%d", n-1, n-1)
	spec := DiffSpec{
		Name:           "grid",
		Inits:          []string{"0,0"},
		Expand:         gridExpandBytes(n),
		Canon:          sortCanon,
		CanonBytes:     newSortCanonBytes,
		VerifyAliasing: 1,
		Independent:    gridIndep,
		Decided:        func(s string) bool { return s == last },
		Truth: &DiffTruth{
			States: n * n, Terminals: 1, Decided: 1,
			QuotientStates: n * (n + 1) / 2, QuotientTerminals: 1, QuotientDecided: 1,
		},
		Stores: []store.Config{
			{Kind: store.Spill, MaxBytes: 1 << 10, PageBits: 5},
			{Kind: store.Bitstate},
		},
		AllowLossy: true,
	}
	rep, err := Differential(spec)
	if err != nil {
		t.Fatal(err)
	}
	var modes []string
	for _, m := range rep.Modes {
		modes = append(modes, m.Mode)
		if m.TraceDigest == "" {
			t.Errorf("mode %s carries no trace digest", m.Mode)
		}
	}
	if got, want := strings.Join(modes, " "), "full full+spill full+bitstate canon por canon+por"; got != want {
		t.Fatalf("modes = %q, want %q", got, want)
	}
	if por := rep.Modes[4].Stats; por.States != 2*n-1 || por.PORReductionFactor() <= 1 {
		t.Fatalf("POR mode: states=%d branch=%.2f, want the %d-state staircase", por.States, por.PORReductionFactor(), 2*n-1)
	}

	// A lossy backend is an explicit opt-in.
	spec.AllowLossy = false
	if _, err := Differential(spec); !errors.Is(err, ErrLossyStore) || !errors.Is(err, ErrDiverged) {
		t.Fatalf("bitstate without AllowLossy: err = %v, want ErrLossyStore", err)
	}
	// Wrong planted truth is a divergence, in the full graph and in the
	// quotient.
	spec.Stores = nil
	for _, truth := range []DiffTruth{
		{States: n*n + 1, Terminals: 1, Decided: 1},
		{States: n * n, Terminals: 2, Decided: 1},
		{States: n * n, Terminals: 1, Decided: 0},
		{States: n * n, Terminals: 1, Decided: 1, QuotientStates: n},
	} {
		truth := truth
		spec.Truth = &truth
		if _, err := Differential(spec); !errors.Is(err, ErrDiverged) {
			t.Fatalf("truth %+v: err = %v, want ErrDiverged", truth, err)
		}
	}
}

// TestDifferentialCatchesImpureExpand: an expansion that is not a pure
// function of its state breaks determinism between two runs of the same
// configuration, and the oracle must say so.
// TestDifferentialLabelTable holds the label table to canonical order: a
// root fans out to fanout states, each of which reaches one sink by a label
// of its own. That level is wide enough to be split between workers, each
// recording the labels it meets in its own table, so a replay that numbered
// labels by worker instead of by first sight in canonical edge order would
// diverge from the one-worker run.
func TestDifferentialLabelTable(t *testing.T) {
	const fanout = 1 << 16
	expand := func(state string, x *Ctx) {
		switch s := atoi(state); {
		case s == 0:
			for c := 1; c <= fanout; c++ {
				x.Emit(strconv.Itoa(c), "fan", 0)
			}
		case s <= fanout:
			x.Emit(strconv.Itoa(fanout+1), "l"+state, s)
		}
	}
	rep, err := Differential(DiffSpec{
		Name: "fan", Inits: []string{"0"}, Expand: expand, Workers: []int{1, 2},
		Truth: &DiffTruth{States: fanout + 2, Terminals: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Modes[0].Stats.Edges; got != 2*fanout {
		t.Fatalf("edges = %d, want %d", got, 2*fanout)
	}
}

func TestDifferentialCatchesImpureExpand(t *testing.T) {
	runs := 0
	spec := DiffSpec{
		Name:  "impure",
		Inits: []string{"0"},
		Expand: func(state string, x *Ctx) {
			s := atoi(state)
			if s == 0 {
				runs++
			}
			if s < 20 {
				x.Emit(strconv.Itoa(s+1), "next", 0)
				if runs == 1 && s%7 == 3 {
					x.Emit(strconv.Itoa(s+2), "skip", 0)
				}
			}
		},
		Workers: []int{1, 1},
	}
	if _, err := Differential(spec); !errors.Is(err, ErrDiverged) {
		t.Fatalf("impure expansion: err = %v, want ErrDiverged", err)
	}
}

// TestStatsReportLines pins the report lines the CLIs print: the engine
// line names canon and POR figures, the phase line appears only with a
// recorded profile, and the store line only for non-default backends.
func TestStatsReportLines(t *testing.T) {
	var st Stats
	if _, err := Explore([]string{"0,0"}, gridExpandBytes(12), Options{
		Parallelism: 2, Stats: &st, Canon: sortCanon, CanonBytes: newSortCanonBytes, Independent: gridIndep,
	}); err != nil {
		t.Fatal(err)
	}
	if line := st.String(); !strings.Contains(line, "reduction=") || !strings.Contains(line, "por-branch=") {
		t.Errorf("engine line lacks canon/POR figures: %s", line)
	}
	if line := st.PhaseString(); !strings.Contains(line, "expand=") || !strings.Contains(line, "replay=") {
		t.Errorf("phase line = %q", line)
	}
	if line := (Stats{}).PhaseString(); line != "" {
		t.Errorf("unprofiled phase line = %q, want empty", line)
	}
	if line := st.StoreString(); line != "" {
		t.Errorf("mem store line = %q, want empty", line)
	}

	for _, tc := range []struct {
		cfg  store.Config
		want []string
	}{
		{store.Config{Kind: store.Spill, MaxBytes: 1 << 10, PageBits: 5}, []string{"store=spill", "segments="}},
		{store.Config{Kind: store.Bitstate}, []string{"store=bitstate", "fp-bits=64", "(lossy)"}},
	} {
		var st Stats
		if _, err := Explore([]string{"0,0"}, gridExpandBytes(12), Options{Stats: &st, Store: tc.cfg}); err != nil {
			t.Fatal(err)
		}
		line := st.StoreString()
		for _, w := range tc.want {
			if !strings.Contains(line, w) {
				t.Errorf("%s store line %q lacks %q", tc.cfg.Kind, line, w)
			}
		}
		if tc.cfg.Lossy() && !strings.Contains(st.String(), "LOSSY") {
			t.Errorf("lossy run's engine line is not flagged: %s", st.String())
		}
	}

	for n, want := range map[int64]string{512: "512B", 3 << 10: "3.0KiB", 5 << 20: "5.0MiB"} {
		if got := byteCount(n); got != want {
			t.Errorf("byteCount(%d) = %q, want %q", n, got, want)
		}
	}
}

// TestCollectCtx: a standalone collect-mode context routes Emit and
// EmitBytes to the sink in emission order.
func TestCollectCtx(t *testing.T) {
	var got []string
	x := CollectCtx(func(to, label string, actor int) {
		got = append(got, fmt.Sprintf("%s/%s/%d", to, label, actor))
	})
	gridExpandBytes(3)("0,0", x)
	if want := "1,0/right/0 0,1/up/1"; strings.Join(got, " ") != want {
		t.Fatalf("collected %v, want %s", got, want)
	}
}

// TestCollectBytesCtx: the bytes-mode collect context hands EmitBytes'
// successors over as the emitted bytes themselves, and Emit's as bytes of
// the string, in emission order.
func TestCollectBytesCtx(t *testing.T) {
	var got []string
	scratch := []byte("b")
	handedOver := false
	x := CollectBytesCtx(func(to []byte, label string, actor int) {
		handedOver = handedOver || &to[0] == &scratch[0]
		got = append(got, fmt.Sprintf("%s/%s/%d", to, label, actor))
	})
	x.Emit("a", "emit", 0)
	x.EmitBytes(scratch, "bytes", 1)
	if want := "a/emit/0 b/bytes/1"; strings.Join(got, " ") != want {
		t.Fatalf("collected %v, want %s", got, want)
	}
	if !handedOver {
		t.Fatal("EmitBytes' successor was copied, not handed over")
	}
}

// TestComparatorsNameEachField breaks one field at a time of a real
// Result and checks that the oracle's comparators report it: diffResults
// names every compared Result field, and statsConsistency every telemetry
// invariant it holds a run to.
func TestComparatorsNameEachField(t *testing.T) {
	res, err := Explore([]string{"0,0"}, gridExpand(4), Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	clone := func() *Result {
		c := *res
		c.States, c.Inits, c.Off = slices.Clone(res.States), slices.Clone(res.Inits), slices.Clone(res.Off)
		c.Edges, c.Labels = slices.Clone(res.Edges), slices.Clone(res.Labels)
		c.Parents, c.ParentEdges = slices.Clone(res.Parents), slices.Clone(res.ParentEdges)
		c.Stats.WorkerSteps = slices.Clone(res.Stats.WorkerSteps)
		return &c
	}
	if msg := diffResults(res, clone()); msg != "" {
		t.Fatalf("diffResults on an unchanged copy: %s", msg)
	}
	if msg := statsConsistency(res); msg != "" {
		t.Fatalf("statsConsistency on a real run: %s", msg)
	}
	for _, tc := range []struct {
		field  string
		want   string
		mutate func(r *Result)
	}{
		{"States", "state orderings", func(r *Result) { r.States[0], r.States[1] = r.States[1], r.States[0] }},
		{"Inits", "initial ids", func(r *Result) { r.Inits = append(r.Inits, 1) }},
		{"Off", "row offsets", func(r *Result) { r.Off[1]++ }},
		{"Edges", "edge lists", func(r *Result) { r.Edges[0].Actor ^= 1 }},
		{"Labels", "label tables", func(r *Result) { r.Labels[0] += "'" }},
		{"Parents", "parent trees", func(r *Result) { r.Parents[1]++ }},
		{"ParentEdges", "parent edges", func(r *Result) { r.ParentEdges[1]++ }},
		{"Truncated", "truncation flags", func(r *Result) { r.Truncated = !r.Truncated }},
	} {
		r := clone()
		tc.mutate(r)
		if msg := diffResults(res, r); !strings.Contains(msg, tc.want) {
			t.Errorf("diffResults with %s changed = %q, want it to name %q", tc.field, msg, tc.want)
		}
	}
	for _, tc := range []struct {
		broken string
		want   string
		mutate func(r *Result)
	}{
		{"States", "Stats.States", func(r *Result) { r.Stats.States++ }},
		{"Edges", "Stats.Edges", func(r *Result) { r.Stats.Edges++ }},
		{"WorkerSteps length", "len(WorkerSteps)", func(r *Result) { r.Stats.WorkerSteps = r.Stats.WorkerSteps[:1] }},
		{"WorkerSteps sum", "sum(WorkerSteps)", func(r *Result) { r.Stats.WorkerSteps[0]++ }},
		{"Expansions", "Expansions", func(r *Result) { r.Stats.WorkerSteps[0]++; r.Stats.Expansions++ }},
		{"Truncated", "Stats.Truncated", func(r *Result) { r.Stats.Truncated = true }},
		{"AmpleStates", "> Expansions", func(r *Result) { r.Stats.AmpleStates = r.Stats.Expansions + 1 }},
		{"DeferredActions alone", "zero AmpleStates", func(r *Result) { r.Stats.DeferredActions = 1 }},
		{"DeferredActions", "DeferredActions 1 < AmpleStates 2", func(r *Result) {
			r.Stats.AmpleStates, r.Stats.DeferredActions = 2, 1
		}},
		{"CanonHits", "canon telemetry", func(r *Result) { r.Stats.CanonHits = 1 }},
		{"Store.States", "Store.States", func(r *Result) { r.Stats.Store.States++ }},
		{"truncated Store.States", "< replayed States", func(r *Result) {
			r.Truncated, r.Stats.Truncated = true, true
			r.Stats.Store.States = r.Stats.States - 1
		}},
		{"Lossy", "Stats.Lossy", func(r *Result) { r.Stats.Lossy = true }},
		{"POR counters", "POR telemetry", func(r *Result) { r.Stats.AmpleStates, r.Stats.DeferredActions = 1, 1 }},
	} {
		r := clone()
		tc.mutate(r)
		if msg := statsConsistency(r); !strings.Contains(msg, tc.want) {
			t.Errorf("statsConsistency with %s broken = %q, want it to name %q", tc.broken, msg, tc.want)
		}
	}
}

// TestOptionHookTypes: CanonBytes without Canon is an error rather than a
// silently ignored byte canon, and all four hooks together are accepted.
func TestOptionHookTypes(t *testing.T) {
	expand := gridExpandBytes(3)
	if _, err := Explore([]string{"0,0"}, expand, Options{CanonBytes: newSortCanonBytes}); err == nil {
		t.Error("canon-bytes-alone: CanonBytes without Canon accepted")
	}
	if _, err := Explore([]string{"0,0"}, expand, Options{
		Parallelism: 2,
		Canon:       sortCanon,
		CanonBytes:  newSortCanonBytes,
		Independent: gridIndep,
		Visible:     func(string, Action) bool { return false },
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFingerprintTypes: the one fingerprint is deterministic and spreads
// neighbours apart on the fixed-width encoding of every integer width, as
// integer-valued systems encode their states, and it hashes an EmitBytes
// successor's bytes, viewed through stringOf, exactly as the string.
func TestFingerprintTypes(t *testing.T) {
	for _, width := range []int{1, 2, 4, 8} {
		for _, pair := range [][2]uint64{{0, 1}, {1, 2}, {1 << (8*width - 1), 1<<(8*width-1) + 1}} {
			a := string(binary.LittleEndian.AppendUint64(nil, pair[0])[:width])
			b := string(binary.LittleEndian.AppendUint64(nil, pair[1])[:width])
			fa, fa2, fb := fingerprint(a), fingerprint(strings.Clone(a)), fingerprint(b)
			if fa != fa2 || fa == fb {
				t.Errorf("width %d: fingerprints %x %x %x not deterministic and spread", width, fa, fa2, fb)
			}
			if fv := fingerprint(stringOf([]byte(a))); fv != fa {
				t.Errorf("width %d: bytes view hashes to %x, the string to %x", width, fv, fa)
			}
		}
	}
	if fingerprint(stringOf(nil)) != fingerprint("") {
		t.Error("an empty bytes view hashes unlike the empty string")
	}
}
