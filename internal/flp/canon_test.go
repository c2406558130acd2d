package flp

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

func TestPermutationCanonSoundOnWaitQuorum(t *testing.T) {
	p := NewWaitQuorum(3)
	canon, err := PermutationCanon(p)
	if err != nil {
		t.Fatalf("PermutationCanon: %v", err)
	}
	full, err := core.Explore[string](NewSystem(p, nil, 1), core.ExploreOptions{})
	if err != nil {
		t.Fatalf("full explore: %v", err)
	}
	var st engine.Stats
	quo, err := core.Explore[string](NewSystem(p, nil, 1), core.ExploreOptions{
		Canon: canon, VerifyCanon: 1, Stats: &st,
	})
	if err != nil {
		t.Fatalf("quotient explore: %v", err)
	}
	if quo.Len() >= full.Len() {
		t.Fatalf("quotient %d states, full %d: no reduction", quo.Len(), full.Len())
	}
	if quo.Len()*6 < full.Len() { // |S_3| = 6 bounds the reduction
		t.Fatalf("quotient %d × 6 < full %d: impossible reduction", quo.Len(), full.Len())
	}
	for i := 0; i < quo.Len(); i++ {
		if s := quo.State(i); canon(s) != s {
			t.Fatalf("interned non-representative %q", s)
		}
	}
	// Orbit completeness — the substance of soundness: every reachable
	// configuration's representative is in the quotient, and nothing else.
	seen := make(map[string]bool, full.Len())
	for i := 0; i < full.Len(); i++ {
		rep := canon(full.State(i))
		seen[rep] = true
		if _, ok := quo.StateID(rep); !ok {
			t.Fatalf("quotient misses reachable orbit of %q", full.State(i))
		}
	}
	if len(seen) != quo.Len() {
		t.Fatalf("full graph spans %d orbits but quotient has %d states", len(seen), quo.Len())
	}
}

func TestAnalyzeQuotientVerdictsMatch(t *testing.T) {
	cases := []Protocol{NewWaitAll(3), NewWaitQuorum(3)}
	for _, p := range cases {
		t.Run(p.Name(), func(t *testing.T) {
			canon, err := PermutationCanon(p)
			if err != nil {
				t.Fatalf("PermutationCanon: %v", err)
			}
			full, err := Analyze(p, AnalyzeOptions{})
			if err != nil {
				t.Fatalf("full Analyze: %v", err)
			}
			quo, err := Analyze(p, AnalyzeOptions{Canon: canon, VerifyCanon: 1})
			if err != nil {
				t.Fatalf("quotient Analyze: %v", err)
			}
			if quo.States >= full.States {
				t.Fatalf("quotient explored %d states, full %d: no reduction", quo.States, full.States)
			}
			type verdicts struct {
				bivalentInitial, agreement, validity, deadlock, lasso, decider, lively bool
			}
			vOf := func(r Report) verdicts {
				return verdicts{
					bivalentInitial: r.HasBivalentInitial,
					agreement:       r.AgreementViolated,
					validity:        r.ValidityViolated,
					deadlock:        r.HasDeadlock,
					lasso:           r.NondecidingLasso != nil,
					decider:         r.DeciderFound,
					lively:          r.Lively,
				}
			}
			if vOf(full) != vOf(quo) {
				t.Fatalf("verdicts differ:\nfull     %+v\nquotient %+v", vOf(full), vOf(quo))
			}
		})
	}
}

// TestValueSwapCanonUnsoundOnWaitQuorum pins down the asymmetry the wait
// protocols hide: they decide the minimum value seen, and min does not
// commute with relabeling 0 <-> 1. The failure mode is instructive — the
// violating orbit members (a process that decided the swapped value from
// swapped evidence) are protocol-unreachable, so the sampled VerifyCanon
// check cannot observe them and the exploration "succeeds"; the quotient is
// nonetheless wrong, which this test demonstrates by exhibiting a reachable
// orbit it lost. See ValueSwapCanon's doc comment.
func TestValueSwapCanonUnsoundOnWaitQuorum(t *testing.T) {
	p := NewWaitQuorum(3)
	canon, err := ValueSwapCanon(p)
	if err != nil {
		t.Fatalf("ValueSwapCanon: %v", err)
	}
	full, err := core.Explore[string](NewSystem(p, nil, 1), core.ExploreOptions{})
	if err != nil {
		t.Fatalf("full explore: %v", err)
	}
	quo, err := core.Explore[string](NewSystem(p, nil, 1), core.ExploreOptions{
		Canon: canon, VerifyCanon: 1,
	})
	if err != nil {
		// The sampled check catching it outright would be fine too — but
		// see above for why it structurally cannot here.
		t.Fatalf("quotient explore: %v", err)
	}
	lost := 0
	for i := 0; i < full.Len(); i++ {
		if _, ok := quo.StateID(canon(full.State(i))); !ok {
			lost++
		}
	}
	if lost == 0 {
		t.Fatalf("value-swap quotient covered every reachable orbit; expected it to lose some (min-decide is not value-equivariant)")
	}
}

// TestValueSwapCanonSoundOnAdoptSwap: deciding on a match is equivariant
// under value relabeling, so AdoptSwap's value quotient passes the same
// check the wait protocol fails.
func TestValueSwapCanonSoundOnAdoptSwap(t *testing.T) {
	p := NewAdoptSwap(3)
	canon, err := ValueSwapCanon(p)
	if err != nil {
		t.Fatalf("ValueSwapCanon: %v", err)
	}
	full, err := core.Explore[string](NewSystem(p, nil, 1), core.ExploreOptions{})
	if err != nil {
		t.Fatalf("full explore: %v", err)
	}
	quo, err := core.Explore[string](NewSystem(p, nil, 1), core.ExploreOptions{
		Canon: canon, VerifyCanon: 1,
	})
	if err != nil {
		t.Fatalf("quotient explore: %v", err)
	}
	if quo.Len() >= full.Len() || quo.Len()*2 < full.Len() {
		t.Fatalf("quotient %d states vs full %d: outside (full/2, full)", quo.Len(), full.Len())
	}
	// Unlike the wait protocol, the value-blind quotient loses no orbits.
	for i := 0; i < full.Len(); i++ {
		if _, ok := quo.StateID(canon(full.State(i))); !ok {
			t.Fatalf("quotient misses reachable orbit of %q", full.State(i))
		}
	}
}

func TestCanonConstructorsRejectUnsupportedProtocols(t *testing.T) {
	if _, err := PermutationCanon(NewAdoptSwap(3)); err == nil {
		t.Fatalf("PermutationCanon accepted the ring protocol (only rotations are symmetries)")
	}
	if _, err := PermutationCanon(narrowSymmetric{constProto{n: 2}}); err == nil {
		t.Fatalf("PermutationCanon accepted 1-byte states that declare 2 process-indexed bytes")
	}
}

// narrowSymmetric declares ProcessSymmetric over states too narrow to hold
// the process-indexed prefix.
type narrowSymmetric struct{ constProto }

func (narrowSymmetric) ProcessIndexedPrefix() {}

// TestPermutationCanonMatchesSearch holds the refinement canon to the n!
// search it replaced (reference_test.go) on every configuration of the
// wait-all and wait-quorum full graphs at n = 2–4, r = 0–2, and on every
// raw successor, crash and delivery, that ExpandInto emits from a state of
// the wait-quorum n=5 r=0 canon+POR graph. With FLP_GRAPH_ORACLE=full it
// also covers every raw successor of the n=5 r=1 canon graph, about 21.5 M
// configurations and a minute or two of n! search.
func TestPermutationCanonMatchesSearch(t *testing.T) {
	for _, mk := range []func(int) Protocol{NewWaitAll, NewWaitQuorum} {
		for n := 2; n <= 4; n++ {
			for r := 0; r <= 2; r++ {
				s := newSys(mk(n), r)
				t.Run(fmt.Sprintf("%s/n=%d/r=%d/full", s.p.Name(), n, r), func(t *testing.T) {
					res, err := engine.Explore(s.Init(), s.ExpandInto, engine.Options{Parallelism: 2})
					if err != nil {
						t.Fatal(err)
					}
					t.Logf("%d configurations", matchSearch(t, s, res.States, false))
				})
			}
		}
	}
	for r := 0; r <= 1; r++ {
		mode := "canon+por"
		if r > 0 {
			mode = "canon" // POR removes nothing at r ≥ 1
		}
		t.Run(fmt.Sprintf("wait-quorum/n=5/r=%d/%s/raw successors", r, mode), func(t *testing.T) {
			if r > 0 && os.Getenv("FLP_GRAPH_ORACLE") != "full" {
				t.Skip("about 21.5 M raw successors: set FLP_GRAPH_ORACLE=full")
			}
			s := newSys(NewWaitQuorum(5), r)
			canon, err := PermutationCanon(s.p)
			if err != nil {
				t.Fatal(err)
			}
			canonB, err := PermutationCanonBytes(s.p)
			if err != nil {
				t.Fatal(err)
			}
			// The r=1 canon graph has 2,421,846 states, above the default cap.
			opts := engine.Options{Parallelism: 2, Canon: canon, CanonBytes: canonB, MaxStates: 3_000_000}
			if r == 0 {
				opts.Independent, opts.Visible = DeliveryIndependence(s.p), DecisionVisibility(s.p)
			}
			res, err := engine.Explore(s.Init(), s.ExpandInto, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d raw successors of %d states", matchSearch(t, s, res.States, true), len(res.States))
		})
	}
}

// matchSearch compares PermutationCanonBytes with the n! search on every
// configuration in configs, or with successors on every successor
// ExpandInto emits from one, over two goroutines, and returns how many
// configurations it compared.
func matchSearch(t *testing.T, s *system, configs []config, successors bool) int {
	t.Helper()
	canonB, err := PermutationCanonBytes(s.p)
	if err != nil {
		t.Fatal(err)
	}
	search := searchPermutationCanonBytes(s.p)
	const workers = 2
	var wg sync.WaitGroup
	counts := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f, ref := canonB(), search()
			var got, want, buf []byte
			failed := false
			check := func(c []byte) {
				if failed {
					return
				}
				counts[w]++
				if got, want = f(got[:0], c), ref(want[:0], c); !bytes.Equal(got, want) {
					t.Errorf("%q: refinement gives %q, the n! search %q",
						render(s.lay, string(c)), render(s.lay, string(got)), render(s.lay, string(want)))
					failed = true
				}
			}
			x := engine.CollectBytesCtx(func(to []byte, _ string, _ int) { check(to) })
			for i := w; i < len(configs) && !failed; i += workers {
				if successors {
					s.ExpandInto(configs[i], x)
				} else {
					buf = append(buf[:0], configs[i]...)
					check(buf)
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		t.Fatal("compared no configuration")
	}
	return total
}

// fuzzConfig reads a packed wait-quorum configuration at n = 3–5 from
// arbitrary bytes: b[0] picks n, b[1] the crash mask, the next n·w bytes
// are the states, whatever their values, and each later pair, up to 3n of
// them, is a message record, its endpoints taken mod n and a wake payload
// made self-addressed. It reports false when b is too short to hold the
// states.
func fuzzConfig(ls []*layout, b []byte) (*layout, config, bool) {
	if len(b) < 2 {
		return nil, "", false
	}
	l := ls[int(b[0])%len(ls)]
	b = b[1:]
	if len(b) < 1+l.n*l.w {
		return nil, "", false
	}
	buf := l.appendCrash(nil, int(b[0])&(1<<l.n-1))
	buf = append(buf, b[1:1+l.n*l.w]...)
	var recs []uint16
	for i := 1 + l.n*l.w; i+1 < len(b) && len(recs) < 3*l.n; i += 2 {
		from, to, pay := int(b[i]>>4)%l.n, int(b[i]&15)%l.n, b[i+1]
		if pay == 0 {
			to = from
		}
		recs = append(recs, uint16(from<<4|to)<<8|uint16(pay))
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i] < recs[j] })
	for _, r := range recs {
		buf = append(buf, byte(r>>8), byte(r))
	}
	return l, string(buf), true
}

// FuzzPermutationCanon runs the refinement canon on arbitrary valid packed
// configurations of wait-quorum at n = 3–5, the unreachable ones included
// (any crash mask, any state bytes, any sorted records). Its result must
// equal the n! search's, be its own representative, and be a relabeling of
// its input.
func FuzzPermutationCanon(f *testing.F) {
	var ls []*layout
	canons := map[*layout]engine.BytesCanonicalizer{}
	searches := map[*layout]engine.BytesCanonicalizer{}
	perms := map[*layout][][]int{}
	for n := 3; n <= 5; n++ {
		p := NewWaitQuorum(n)
		canonB, err := PermutationCanonBytes(p)
		if err != nil {
			f.Fatal(err)
		}
		s := newSys(p, 1)
		ls = append(ls, s.lay)
		canons[s.lay], searches[s.lay] = canonB(), searchPermutationCanonBytes(p)()
		perms[s.lay] = permutations(n)
		// Seeds: the initials and their successors, in fuzzConfig's form.
		for _, c := range s.Init()[:4] {
			for _, st := range append(collectInto(s, c), core.Step{To: c}) {
				f.Add(append([]byte{byte(n - 3), byte(s.lay.crashMask(st.To))}, st.To[s.lay.cw:]...))
			}
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		l, c, ok := fuzzConfig(ls, b)
		if !ok {
			return
		}
		if !l.valid(c) {
			t.Fatalf("fuzzConfig built an invalid configuration %q", c)
		}
		canon := canons[l]
		got := string(canon(nil, []byte(c)))
		if want := string(searches[l](nil, []byte(c))); got != want {
			t.Fatalf("%q: refinement gives %q, the n! search %q", render(l, c), render(l, got), render(l, want))
		}
		if again := string(canon(nil, []byte(got))); again != got {
			t.Fatalf("%q: not idempotent, %q then %q", render(l, c), render(l, got), render(l, again))
		}
		ps := NewWaitQuorum(l.n).(bytePermuter)
		for _, pi := range perms[l] {
			if string(relabel(nil, l, ps, c, pi)) == got {
				return
			}
		}
		t.Fatalf("%q: %q is no relabeling of it", render(l, c), render(l, got))
	})
}

// TestPermutationCanonBytesAllocs: once warm, the byte canon allocates
// nothing, at n=5 on every successor of the initial configurations at
// resilience 1, crashes included.
func TestPermutationCanonBytesAllocs(t *testing.T) {
	p := NewWaitQuorum(5)
	s := newSys(p, 1)
	factory, err := PermutationCanonBytes(p)
	if err != nil {
		t.Fatal(err)
	}
	var sample [][]byte
	for _, c := range s.Init() {
		for _, st := range collectInto(s, c) {
			sample = append(sample, []byte(st.To))
		}
	}
	f := factory()
	var dst []byte
	run := func() {
		for _, c := range sample {
			dst = f(dst[:0], c)
		}
	}
	run() // warm the scratch
	if a := testing.AllocsPerRun(20, run); a != 0 {
		t.Fatalf("a warmed byte canon made %.1f allocations over %d configurations", a, len(sample))
	}
}
