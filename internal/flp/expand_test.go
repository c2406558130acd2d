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

// newSys returns p's configuration graph over all binary inputs.
func newSys(p Protocol, resilience int) *system {
	return NewSystem(p, nil, resilience).(*system)
}

// walkConfigs breadth-first walks the text reference graph of s's protocol
// from its initials using Steps, applying f to every distinct
// configuration, packed, and to its text form, up to limit states.
func walkConfigs(t testing.TB, s *system, limit int, f func(c config, text string)) {
	t.Helper()
	ts := &textSystem{p: s.p, inputVectors: s.inputVectors, resilience: s.resilience}
	seen := map[string]bool{}
	frontier := ts.Init()
	for len(frontier) > 0 && len(seen) < limit {
		var next []string
		for _, tc := range frontier {
			if seen[tc] {
				continue
			}
			seen[tc] = true
			c, ok := pack(s.lay, tc)
			if !ok {
				t.Fatalf("text configuration %q does not pack", tc)
			}
			f(c, tc)
			if len(seen) >= limit {
				return
			}
			for _, st := range ts.Steps(tc) {
				next = append(next, st.To)
			}
		}
		frontier = next
	}
}

// TestExpandIntoMatchesSteps checks, configuration by configuration, that
// ExpandInto emits exactly the text reference's transitions — same
// successors (packed), labels, actors, same order — across all three
// protocol families and three resilience settings.
func TestExpandIntoMatchesSteps(t *testing.T) {
	for _, tc := range []struct {
		name string
		sys  *system
	}{
		{"wait-all", newSys(NewWaitAll(3), 1)},
		{"wait-quorum", newSys(NewWaitQuorum(3), 1)},
		{"adopt-swap", newSys(NewAdoptSwap(3), 1)},
		{"wait-all-r0", newSys(NewWaitAll(3), 0)},
		{"wait-quorum-r2", newSys(NewWaitQuorum(3), 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := &textSystem{p: tc.sys.p, inputVectors: tc.sys.inputVectors, resilience: tc.sys.resilience}
			checked := 0
			walkConfigs(t, tc.sys, 4000, func(c config, text string) {
				want := ts.Steps(text)
				for i := range want {
					want[i].To, _ = pack(tc.sys.lay, want[i].To)
				}
				got := collectInto(tc.sys, c)
				if len(want) == 0 && len(got) == 0 {
					return
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("config %q:\nSteps      = %q\nExpandInto = %q", text, want, got)
				}
				checked++
			})
			if checked == 0 {
				t.Fatal("walk checked nothing")
			}
		})
	}
}

// mustPanicNaming runs f and requires it to panic with a message that
// contains want.
func mustPanicNaming(t *testing.T, what, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("%s: no panic", what)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("%s: panic %q does not contain %q", what, msg, want)
		}
	}()
	f()
}

// TestExpandIntoPanicsOnAnomalies feeds encodings the layout cannot hold:
// each one fails validation, so ExpandInto must panic naming it — before
// emitting anything — rather than misread it.
func TestExpandIntoPanicsOnAnomalies(t *testing.T) {
	s := newSys(NewWaitQuorum(3), 1)
	init := s.Init()[0] // crash, 3 states of 5 bytes, 3 wake records
	hdr := s.lay.hdr
	for _, tc := range []struct{ what, c string }{
		{"empty", ""},
		{"states cut short", init[:hdr-1]},
		{"half a record", init[:hdr+1]},
		{"crash rank past 2^n", "\x08" + init[1:]},
		{"unsorted records", init[:hdr] + "\x11\x00\x00\x00"},
		{"sender out of range", init[:hdr] + "\x30\x31"},
		{"receiver out of range", init[:hdr] + "\x03\x31"},
		{"wake on a non-self record", init[:hdr] + "\x01\x00"},
	} {
		emitted := 0
		x := engine.CollectCtx(func(config, string, int) { emitted++ })
		mustPanicNaming(t, tc.what, strconv.Quote(tc.c), func() { s.ExpandInto(tc.c, x) })
		if emitted != 0 {
			t.Fatalf("%s: %d transitions emitted before the panic", tc.what, emitted)
		}
	}
}

// wideStep breaks the width contract: its first delivery grows the state.
type wideStep struct{ constProto }

func (wideStep) AppendStep(dst []byte, _ int, s string, _ int, _ string, sends []Send) ([]byte, []Send) {
	return append(append(dst, s...), '+'), sends
}
func (wideStep) AppendInitialSends(p int, _ string, s []Send) []Send {
	return append(s, Send{To: 1 - p, Payload: "v"})
}

// longPayload breaks the payload contract: its wake-up sends two bytes.
type longPayload struct{ constProto }

func (longPayload) AppendInitialSends(p int, _ string, s []Send) []Send {
	return append(s, Send{To: 1 - p, Payload: "vv"})
}

// unevenInit breaks the width contract at Init.
type unevenInit struct{ constProto }

func (unevenInit) Init(p, _ int) string { return strings.Repeat("s", p+1) }

// TestProtocolContractEnforced: a protocol whose states change width or
// whose payloads are not one non-zero byte cannot be packed. Analyze
// reports what it can see from Init as an error, NewSystem panics on it,
// and an expansion that meets a violation panics naming the protocol.
func TestProtocolContractEnforced(t *testing.T) {
	for _, p := range []Protocol{unevenInit{constProto{n: 2}}, constProto{n: 17}, constProto{n: 0}} {
		if _, err := Analyze(p, AnalyzeOptions{Resilience: intPtr(0)}); err == nil {
			t.Errorf("%T n=%d: Analyze accepted it", p, p.NumProcs())
		}
		mustPanicNaming(t, "NewSystem", "flp: protocol", func() { NewSystem(p, nil, 0) })
	}
	for _, p := range []Protocol{wideStep{constProto{n: 2}}, longPayload{constProto{n: 2}}} {
		s := newSys(p, 0)
		mustPanicNaming(t, fmt.Sprintf("%T", p), "broke the Protocol contract", func() {
			frontier := s.Init()
			for depth := 0; depth < 3; depth++ {
				var next []config
				for _, c := range frontier {
					for _, st := range collectInto(s, c) {
						next = append(next, st.To)
					}
				}
				frontier = next
			}
		})
	}
}

// TestValuePayloadOneByte: valuePayload keeps the one-byte payload
// contract on every byte value, those at or above 0x80 included.
func TestValuePayloadOneByte(t *testing.T) {
	for v := 0; v < 256; v++ {
		if p := valuePayload(byte(v)); len(p) != 1 || p[0] != byte(v) {
			t.Fatalf("valuePayload(%#x) = %q, want the one byte %#x", v, p, v)
		}
	}
}

// TestPermutationCanonBytesMatchesCanon holds the byte-level canonicalizer
// to the text permutation canon on every reachable configuration of a
// 3-process wait protocol: the packed representative must be the packed
// text representative. It also checks the string wrapper, the dst-backing
// contract and the panic on a configuration the layout cannot hold.
func TestPermutationCanonBytesMatchesCanon(t *testing.T) {
	p := NewWaitQuorum(3)
	s := newSys(p, 1)
	canonText := textPermutationCanon(p)
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
	checked, moved := 0, 0
	walkConfigs(t, s, 4000, func(c config, text string) {
		want, ok := pack(s.lay, canonText(text))
		if !ok {
			t.Fatalf("text representative of %q does not pack", text)
		}
		dst = canonB(dst[:0], []byte(c))
		if got := string(dst); got != want {
			t.Fatalf("config %q: bytes canon %q, text canon %q", text, render(s.lay, got), render(s.lay, want))
		}
		if got := canonStr(c); got != want {
			t.Fatalf("config %q: string canon %q, text canon %q", text, render(s.lay, got), render(s.lay, want))
		}
		if want != c {
			moved++
		}
		checked++
	})
	if checked < 100 || moved == 0 {
		t.Fatalf("walk checked %d configs, %d of them not their own representative", checked, moved)
	}
	// The result must be dst-backed, never aliasing src.
	init := s.Init()[3] // inputs 1,1,0
	src := []byte(init)
	out := canonB(nil, src)
	for i := range src {
		src[i] = 0xEE
	}
	if got, want := string(out), canonStr(init); got != want {
		t.Fatalf("result aliases src: %q after poisoning, want %q", got, want)
	}
	bad := init[:len(init)-1]
	mustPanicNaming(t, "half a record", strconv.Quote(bad), func() { canonB(nil, []byte(bad)) })
}

// TestPermutationCanonBytesRequiresAppend checks the interface gate.
func TestPermutationCanonBytesRequiresAppend(t *testing.T) {
	if _, err := PermutationCanonBytes(NewAdoptSwap(3)); err == nil {
		t.Fatal("adopt-swap does not declare ProcessSymmetric; want error")
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
