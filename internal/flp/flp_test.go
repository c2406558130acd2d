package flp

import (
	"strconv"
	"strings"
	"testing"
)

func intPtr(v int) *int { return &v }

// TestWaitAllDeadlocksUnderOneCrash: the wait-for-everyone protocol is
// safe but not 1-resilient — a single crash leaves an undecided deadlock.
func TestWaitAllDeadlocksUnderOneCrash(t *testing.T) {
	rep, err := Analyze(NewWaitAll(3), AnalyzeOptions{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if rep.AgreementViolated {
		t.Errorf("wait-all should never disagree; witness:\n%s", rep.AgreementWitness)
	}
	if rep.ValidityViolated {
		t.Error("wait-all should be valid")
	}
	if !rep.HasDeadlock {
		t.Error("wait-all should deadlock undecided after a crash")
	}
	if rep.Lively {
		t.Error("FLP horn must be found")
	}
}

// TestWaitAllIsLivelyWithoutCrashes: with resilience 0 the same protocol
// decides in every fair execution — showing the crash events carry the
// theorem.
func TestWaitAllIsLivelyWithoutCrashes(t *testing.T) {
	rep, err := Analyze(NewWaitAll(3), AnalyzeOptions{Resilience: intPtr(0)})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if !rep.Lively {
		t.Errorf("wait-all without crashes should be lively: %s", DescribeHorn(rep))
	}
}

// TestWaitQuorumDisagrees: waiting for only n-1 values buys crash
// tolerance at the price of a reachable disagreement.
func TestWaitQuorumDisagrees(t *testing.T) {
	rep, err := Analyze(NewWaitQuorum(3), AnalyzeOptions{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if !rep.AgreementViolated {
		t.Fatal("wait-quorum should have a reachable disagreement")
	}
	if len(rep.AgreementWitness) == 0 {
		t.Fatal("expected an agreement-violation witness execution")
	}
}

// TestAdoptSwapHasNondecidingExecution: the adopt-and-rebroadcast protocol
// is safe but admits the FLP forever-bivalent run even with no crashes.
func TestAdoptSwapHasNondecidingExecution(t *testing.T) {
	rep, err := Analyze(NewAdoptSwap(2), AnalyzeOptions{Resilience: intPtr(0)})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if rep.AgreementViolated {
		t.Errorf("adopt-swap should be safe; witness:\n%s", rep.AgreementWitness)
	}
	if rep.NondecidingLasso == nil {
		t.Fatal("adopt-swap should admit a fair non-deciding execution")
	}
	if len(rep.NondecidingLasso.Cycle) == 0 {
		t.Fatal("expected a nonempty non-deciding cycle")
	}
	if !rep.HasBivalentInitial {
		t.Error("the (0,1) initial configuration should be bivalent")
	}
	if rep.BivalentConfigs == 0 {
		t.Error("expected bivalent configurations")
	}
}

// TestEveryProtocolFallsOnAHorn is the theorem-shaped summary: none of the
// protocol attempts is simultaneously safe and live with one crash.
func TestEveryProtocolFallsOnAHorn(t *testing.T) {
	protos := []Protocol{NewWaitAll(3), NewWaitQuorum(3), NewAdoptSwap(2), NewAdoptSwap(3)}
	for _, p := range protos {
		rep, err := Analyze(p, AnalyzeOptions{})
		if err != nil {
			t.Fatalf("Analyze(%s): %v", p.Name(), err)
		}
		if rep.Lively {
			t.Errorf("%s: analyzer found no FLP horn — impossible for a 1-resilient protocol", p.Name())
		}
	}
}

// TestValidityViolationDetected: a protocol that decides a constant
// regardless of inputs trips the validity check.
type constProto struct{ n int }

func (c constProto) Name() string                                        { return "const-0" }
func (c constProto) NumProcs() int                                       { return c.n }
func (c constProto) Init(int, int) string                                { return "s" }
func (c constProto) AppendInitialSends(_ int, _ string, s []Send) []Send { return s }
func (c constProto) AppendStep(dst []byte, _ int, s string, _ int, _ string, sends []Send) ([]byte, []Send) {
	return append(dst, s...), sends
}
func (c constProto) Decide(int, string) (int, bool) { return 0, true }

func TestValidityViolationDetected(t *testing.T) {
	rep, err := Analyze(constProto{n: 2}, AnalyzeOptions{Resilience: intPtr(0)})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if !rep.ValidityViolated {
		t.Fatal("constant-0 protocol should violate validity on all-ones inputs")
	}
	if rep.HasBivalentInitial {
		t.Error("a constant protocol has no bivalent configuration")
	}
}

// flipProto decides at once: p0 its input, every other process the
// opposite of its input. Under all-zero inputs a later process decides 1,
// which validity must see although the first decider's value is 0.
type flipProto struct{ n int }

func (f flipProto) Name() string                                        { return "flip" }
func (f flipProto) NumProcs() int                                       { return f.n }
func (f flipProto) Init(_, input int) string                            { return strconv.Itoa(input) }
func (f flipProto) AppendInitialSends(_ int, _ string, s []Send) []Send { return s }
func (f flipProto) AppendStep(dst []byte, _ int, s string, _ int, _ string, sends []Send) ([]byte, []Send) {
	return append(dst, s...), sends
}
func (f flipProto) Decide(p int, s string) (int, bool) {
	v := int(s[0] - '0')
	if p > 0 {
		v = 1 - v
	}
	return v, true
}

func TestValidityReadsEveryDecider(t *testing.T) {
	rep, err := Analyze(flipProto{n: 2}, AnalyzeOptions{Resilience: intPtr(0)})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if !rep.AgreementViolated {
		t.Error("p0 and p1 decide opposite values: agreement must fail")
	}
	if !rep.ValidityViolated {
		t.Error("p1 decides 1 under all-zero inputs: validity must fail")
	}
}

// twoProto decides 2, which is not a binary value.
type twoProto struct{ constProto }

func (twoProto) Decide(int, string) (int, bool) { return 2, true }

// TestAnalyzeRejectsNonBinaryDecisions: the decision column holds binary
// values only, so a protocol that decides anything else is an error.
func TestAnalyzeRejectsNonBinaryDecisions(t *testing.T) {
	_, err := Analyze(twoProto{constProto{n: 2}}, AnalyzeOptions{Resilience: intPtr(0)})
	if err == nil || !strings.Contains(err.Error(), "not a binary value") {
		t.Fatalf("Analyze error = %v, want a non-binary decision error", err)
	}
}

// TestConfigCodecRoundTrip packs a text configuration with a crash mask,
// a wake message and duplicate messages, and checks every field reads back
// at its offset and the renderer writes the text again.
func TestConfigCodecRoundTrip(t *testing.T) {
	l := mustLayout(NewWaitQuorum(3))
	states := []string{"0-1:-", "-1-:-", "--1:-"}
	flight := []envelope{{from: 2, to: 0, payload: "1"}, {from: 1, to: 1, payload: wakeText},
		{from: 0, to: 2, payload: "0"}, {from: 2, to: 0, payload: "1"}}
	text := encodeConfig(5, states, flight)
	c, ok := pack(l, text)
	if !ok {
		t.Fatalf("%q does not pack", text)
	}
	if want := 1 + 3*5 + 2*4; len(c) != want || !l.valid(c) {
		t.Fatalf("packed %q: %d bytes, valid %v; want %d valid bytes", c, len(c), l.valid(c), want)
	}
	if got := l.crashMask(c); got != 5 {
		t.Fatalf("crash mask = %d, want 5", got)
	}
	for q, want := range states {
		if got := l.state(c, q); got != want {
			t.Fatalf("state %d = %q, want %q", q, got, want)
		}
	}
	if got, want := c[l.hdr:], "\x02\x30\x11\x00\x20\x31\x20\x31"; got != want {
		t.Fatalf("records = %q, want %q", got, want)
	}
	if got := render(l, c); got != text {
		t.Fatalf("render = %q, want %q", got, text)
	}
	// The crash field holds the rank of the mask's decimal string, so the
	// packed bytes sort as the text does: "1" < "10" < "2" < ... < "9".
	l4 := mustLayout(NewWaitQuorum(4))
	for m := 1; m < 16; m++ {
		a, b := strconv.Itoa(m-1), strconv.Itoa(m)
		ra, rb := l4.appendCrash(nil, m-1)[0], l4.appendCrash(nil, m)[0]
		if (a < b) != (ra < rb) {
			t.Fatalf("masks %s, %s rank %d, %d", a, b, ra, rb)
		}
	}
}

func TestDescribeHorn(t *testing.T) {
	rep := Report{Protocol: "x", AgreementViolated: true}
	if got := DescribeHorn(rep); got != "x: agreement violation" {
		t.Fatalf("DescribeHorn = %q", got)
	}
	empty := Report{Protocol: "y"}
	if got := DescribeHorn(empty); got == "" {
		t.Fatal("empty horn description")
	}
}

func TestCountBits(t *testing.T) {
	if countBits(0) != 0 || countBits(5) != 2 || countBits(7) != 3 {
		t.Fatal("countBits broken")
	}
}

// TestAnalyzeRejectsCanonBytesWithoutCanon: the byte canonicalizer only
// accelerates the quotient Canon defines, so Analyze reports the missing
// Canon at any worker count instead of dropping CanonBytes.
func TestAnalyzeRejectsCanonBytesWithoutCanon(t *testing.T) {
	p := NewWaitQuorum(3)
	canonB, err := PermutationCanonBytes(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2} {
		_, err := Analyze(p, AnalyzeOptions{CanonBytes: canonB, Parallelism: par})
		if err == nil || !strings.Contains(err.Error(), "CanonBytes requires") {
			t.Errorf("Parallelism %d: Analyze error = %v, want CanonBytes requires Canon", par, err)
		}
	}
}
