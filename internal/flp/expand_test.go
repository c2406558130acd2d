package flp

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// collectInto runs ExpandInto with a collecting sink, returning the
// emitted transitions as core.Steps for comparison against Steps.
func collectInto(s *system, c config) []core.Step[config] {
	var out []core.Step[config]
	x := engine.CollectCtx(func(to config, label string, actor int) {
		out = append(out, core.Step[config]{To: to, Label: label, Actor: actor})
	})
	s.ExpandInto(c, x)
	return out
}

// walkConfigs breadth-first walks the configuration graph from the
// system's initials using Steps, applying f to every distinct
// configuration, up to limit states.
func walkConfigs(s *system, limit int, f func(config)) {
	seen := map[config]bool{}
	frontier := s.Init()
	for len(frontier) > 0 && len(seen) < limit {
		var next []config
		for _, c := range frontier {
			if seen[c] {
				continue
			}
			seen[c] = true
			f(c)
			if len(seen) >= limit {
				return
			}
			for _, st := range s.Steps(c) {
				next = append(next, st.To)
			}
		}
		frontier = next
	}
}

// TestExpandIntoMatchesSteps checks, configuration by configuration, that
// the zero-allocation expansion emits exactly Steps' transitions — same
// successors, labels, actors, same order — across all three protocol
// families and both resilience settings.
func TestExpandIntoMatchesSteps(t *testing.T) {
	for _, tc := range []struct {
		name string
		sys  *system
	}{
		{"wait-all", &system{p: NewWaitAll(3), inputVectors: allBinaryVectors(3), resilience: 1}},
		{"wait-quorum", &system{p: NewWaitQuorum(3), inputVectors: allBinaryVectors(3), resilience: 1}},
		{"adopt-swap", &system{p: NewAdoptSwap(3), inputVectors: allBinaryVectors(3), resilience: 1}},
		{"wait-all-r0", &system{p: NewWaitAll(3), inputVectors: allBinaryVectors(3), resilience: 0}},
		{"wait-quorum-r2", &system{p: NewWaitQuorum(3), inputVectors: allBinaryVectors(3), resilience: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checked := 0
			walkConfigs(tc.sys, 4000, func(c config) {
				want := tc.sys.Steps(c)
				got := collectInto(tc.sys, c)
				if len(want) == 0 && len(got) == 0 {
					return
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("config %q:\nSteps      = %v\nExpandInto = %v", c, want, got)
				}
				checked++
			})
			if checked == 0 {
				t.Fatal("walk checked nothing")
			}
		})
	}
}

// TestExpandIntoPanicsOnAnomalies feeds encodings that encodeConfig never
// produces: each one fails the strict parse, so ExpandInto must panic
// naming it — before emitting anything — rather than mis-parse it.
func TestExpandIntoPanicsOnAnomalies(t *testing.T) {
	s := &system{p: NewWaitQuorum(3), inputVectors: allBinaryVectors(3), resilience: 1}
	for _, c := range []config{
		"0-0--:-",                                        // no section separators
		"0\x1d0--:-\x1e-0-:-\x1e--1:-",                   // no message section
		"00\x1d0--:-\x1e-0-:-\x1e--1:-\x1d",              // non-canonical crash mask
		"0\x1d0--:-\x1e-0-:-\x1d",                        // wrong process count
		"0\x1d0--:-\x1e-0-:-\x1e--1:-\x1d1>0:1\x1f0>1:0", // unsorted messages
		"0\x1d0--:-\x1e-0-:-\x1e--1:-\x1dx>0:1",          // malformed sender
		"0\x1d0--:-\x1e-0-:-\x1e--1:-\x1d01>0:1",         // non-canonical sender
		"0\x1d0--:-\x1e-0-:-\x1e--1:-\x1d0:1",            // no '>' separator
		"0\x1d0--:-\x1e-0-:-\x1e--1:-\x1d0>3:1",          // receiver out of range
	} {
		emitted := 0
		x := engine.CollectCtx(func(config, string, int) { emitted++ })
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("anomalous config %q: ExpandInto did not panic", c)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, strconv.Quote(c)) {
					t.Fatalf("anomalous config %q: panic %q does not name it", c, msg)
				}
			}()
			s.ExpandInto(c, x)
		}()
		if emitted != 0 {
			t.Fatalf("anomalous config %q: %d transitions emitted before the panic", c, emitted)
		}
	}
}

// TestPermutationCanonBytesMatchesCanon checks the byte-level
// canonicalizer against PermutationCanon on every reachable configuration
// of a 3-process wait protocol, plus the dst-backing contract.
func TestPermutationCanonBytesMatchesCanon(t *testing.T) {
	p := NewWaitQuorum(3)
	s := &system{p: p, inputVectors: allBinaryVectors(3), resilience: 1}
	canonStr, err := PermutationCanon(p)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := PermutationCanonBytes(p)
	if err != nil {
		t.Fatal(err)
	}
	canonB := factory()
	var dst []byte
	checked := 0
	walkConfigs(s, 4000, func(c config) {
		dst = canonB(dst[:0], []byte(c))
		if got, want := string(dst), canonStr(c); got != want {
			t.Fatalf("config %q: bytes canon %q, string canon %q", c, got, want)
		}
		checked++
	})
	if checked < 100 {
		t.Fatalf("walk checked only %d configs", checked)
	}
	// Anomalous (but decodable) encodings must agree too, via the string
	// fallback.
	for _, c := range []string{
		"0\x1daaaa\x1ebbbb\x1ecccc\x1dbad msg",        // malformed envelope (decode drops it)
		"0\x1daaaa\x1ebbbb\x1ecccc\x1d1>0:x\x1f0>1:y", // unsorted message section
		"00\x1daaaa\x1ebbbb\x1ecccc\x1d0>1:x",         // non-canonical crash mask
	} {
		if got, want := string(canonB(nil, []byte(c))), canonStr(c); got != want {
			t.Fatalf("anomalous %q: bytes canon %q, string canon %q", c, got, want)
		}
	}
	// The result must be dst-backed, never aliasing src.
	src := []byte("0\x1d-1-:-\x1e0--:-\x1e--1:-\x1d")
	out := canonB(nil, src)
	for i := range src {
		src[i] = 0xEE
	}
	if got, want := string(out), canonStr("0\x1d-1-:-\x1e0--:-\x1e--1:-\x1d"); got != want {
		t.Fatalf("result aliases src: %q after poisoning, want %q", got, want)
	}
}

// TestPermutationCanonBytesRequiresAppend checks the interface gate.
func TestPermutationCanonBytesRequiresAppend(t *testing.T) {
	if _, err := PermutationCanonBytes(NewAdoptSwap(3)); err == nil {
		t.Fatal("adopt-swap does not declare ProcessSymmetricAppend; want error")
	}
}

// TestAnalyzeWithBytesPath runs the full analysis with the byte-level
// canon and the aliasing falsifier enabled everywhere, and checks the
// report matches the plain-path report field for field.
func TestAnalyzeWithBytesPath(t *testing.T) {
	p := NewWaitQuorum(3)
	canonStr, err := PermutationCanon(p)
	if err != nil {
		t.Fatal(err)
	}
	canonB, err := PermutationCanonBytes(p)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Analyze(p, AnalyzeOptions{Canon: canonStr, VerifyCanon: 1, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Analyze(p, AnalyzeOptions{
		Canon: canonStr, VerifyCanon: 1, CanonBytes: canonB,
		VerifyAliasing: 1, Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, fast) {
		t.Fatalf("reports differ:\nplain = %+v\nfast  = %+v", plain, fast)
	}
}
