package engine

import "testing"

// This file pins the telemetry contract under mode composition with exact
// numbers on a fixed two-component space: two independent one-step chains
// A->B (state "XY", component i flips byte i, actors 0 and 1). Small enough
// to account for every counter by hand:
//
//   full graph        AA -> {BA, AB} -> BB      4 states, 4 edges
//   sorted-byte canon AA -> AB -> BB            3 states, 3 edges
//   ample-set POR     AA -> BA -> BB            3 states, 2 edges
//   canon + POR       AA -> AB -> BB            3 states, 2 edges
//
// Every number must be identical at workers 1, 2 and 8 — the counters are
// part of the deterministic Result, not best-effort diagnostics.

func twoChainExpand(s string, x *Ctx[string]) {
	for i := 0; i < len(s); i++ {
		if s[i] == 'A' {
			b := []byte(s)
			b[i] = 'B'
			x.Emit(string(b), "s", i)
		}
	}
}

func sortTwoBytes(s string) string {
	if s[0] > s[1] {
		return string([]byte{s[1], s[0]})
	}
	return s
}

func twoChainIndep(_ string, a, b Action) bool { return a.Actor != b.Actor }

// statsExpect is the hand-derived subset of Stats pinned by these tests.
type statsExpect struct {
	states, edges, depth, peak              int
	expansions, dedup                       uint64
	rawStates                               int
	canonHits, ampleStates, deferredActions uint64
	canonEnabled, porEnabled                bool
}

func checkStats(t *testing.T, label string, got Stats, want statsExpect) {
	t.Helper()
	if got.States != want.states || got.Edges != want.edges || got.Depth != want.depth || got.PeakFrontier != want.peak {
		t.Fatalf("%s: shape = states=%d edges=%d depth=%d peak=%d, want states=%d edges=%d depth=%d peak=%d",
			label, got.States, got.Edges, got.Depth, got.PeakFrontier, want.states, want.edges, want.depth, want.peak)
	}
	if got.Expansions != want.expansions || got.DedupHits != want.dedup {
		t.Fatalf("%s: expansions=%d dedup=%d, want expansions=%d dedup=%d",
			label, got.Expansions, got.DedupHits, want.expansions, want.dedup)
	}
	if got.CanonEnabled != want.canonEnabled || got.RawStates != want.rawStates || got.CanonHits != want.canonHits {
		t.Fatalf("%s: canon telemetry enabled=%v raw=%d hits=%d, want enabled=%v raw=%d hits=%d",
			label, got.CanonEnabled, got.RawStates, got.CanonHits, want.canonEnabled, want.rawStates, want.canonHits)
	}
	if got.POREnabled != want.porEnabled || got.AmpleStates != want.ampleStates || got.DeferredActions != want.deferredActions {
		t.Fatalf("%s: POR telemetry enabled=%v ample=%d deferred=%d, want enabled=%v ample=%d deferred=%d",
			label, got.POREnabled, got.AmpleStates, got.DeferredActions, want.porEnabled, want.ampleStates, want.deferredActions)
	}
}

func TestStatsExactUnderComposition(t *testing.T) {
	cases := []struct {
		mode string
		opts Options
		want statsExpect
	}{
		{
			// AA expands to BA and AB; both expand to BB (one DedupHit).
			mode: "full",
			opts: Options{},
			want: statsExpect{states: 4, edges: 4, depth: 3, peak: 2, expansions: 4, dedup: 1},
		},
		{
			// BA canonicalizes to AB (one CanonHit); four raw states collapse
			// to three orbit representatives, and the two level-1 arrivals at
			// AB dedup once.
			mode: "canon",
			opts: Options{Canon: sortTwoBytes, VerifyCanon: 1},
			want: statsExpect{states: 3, edges: 3, depth: 3, peak: 1, expansions: 3, dedup: 1,
				canonEnabled: true, rawStates: 4, canonHits: 1},
		},
		{
			// At AA both actions are independent and invisible: the ample set
			// keeps actor 0 (one AmpleStates, one deferred action), leaving
			// the single chain AA -> BA -> BB.
			mode: "por",
			opts: Options{Independent: twoChainIndep, VerifyPOR: 1},
			want: statsExpect{states: 3, edges: 2, depth: 3, peak: 1, expansions: 3, dedup: 0,
				porEnabled: true, ampleStates: 1, deferredActions: 1},
		},
		{
			// Composition: the ample chain's BA is canonicalized to AB, so the
			// stack explores AA -> AB -> BB; both reduction counters fire.
			mode: "canon+por",
			opts: Options{Canon: sortTwoBytes, VerifyCanon: 1, Independent: twoChainIndep, VerifyPOR: 1},
			want: statsExpect{states: 3, edges: 2, depth: 3, peak: 1, expansions: 3, dedup: 0,
				canonEnabled: true, rawStates: 4, canonHits: 1,
				porEnabled: true, ampleStates: 1, deferredActions: 1},
		},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 8} {
			opts := tc.opts
			opts.Parallelism = workers
			var st Stats
			opts.Stats = &st
			res, err := Explore([]string{"AA"}, twoChainExpand, opts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.mode, workers, err)
			}
			label := tc.mode + "/workers=" + string(rune('0'+workers))
			checkStats(t, label, res.Stats, tc.want)
			// The caller-supplied sink must match the Result's copy.
			checkStats(t, label+"/sink", st, tc.want)
			if st.Workers != workers {
				t.Fatalf("%s: Stats.Workers = %d, want %d", label, st.Workers, workers)
			}
		}
	}
}
