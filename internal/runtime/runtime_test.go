package runtime

import (
	"bytes"
	"fmt"
	gort "runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// toy is a minimal workload for exercising the scheduler mechanics: each
// process launches one token with a TTL to its clockwise neighbor; a
// delivered token with positive TTL is forwarded with TTL-1, a dead token
// is swallowed. It supports every fault and has no model.
type toy struct {
	n, ttl   int
	faults   Faults
	guardKey string // when set, each proc also arms a guarded local
}

type toyToken struct{ ttl int }

func (t *toy) Name() string  { return "toy" }
func (t *toy) NumProcs() int { return t.n }
func (t *toy) Supports() Faults {
	if t.faults != 0 {
		return t.faults
	}
	return FaultDelay | FaultDrop | FaultDup | FaultCrash
}

func (t *toy) Spawn(int64) []Proc {
	out := make([]Proc, t.n)
	for p := range out {
		out[p] = &toyProc{w: t, p: p}
	}
	return out
}

func (t *toy) Model() (*core.Graph[string], error) { return nil, nil }

func (t *toy) Check(*Result, *core.Graph[string], []int) error { return nil }

func (t *toy) DropLabel(Action) (string, int) { return "drop tok", core.EnvironmentActor }

// Guard blocks the guarded local while any delivery is pending.
func (t *toy) Guard(_ Action, pend []Action) bool {
	for _, a := range pend {
		if a.Kind == ActDeliver {
			return false
		}
	}
	return true
}

type toyProc struct {
	w      *toy
	p      int
	locals int
}

func (pr *toyProc) Start() []Action {
	out := []Action{{
		Kind: ActDeliver, From: pr.p, To: (pr.p + 1) % pr.w.n,
		Payload: toyToken{ttl: pr.w.ttl},
	}}
	if pr.w.guardKey != "" {
		out = append(out, Action{Kind: ActLocal, To: pr.p, Key: pr.w.guardKey})
	}
	return out
}

func (pr *toyProc) Handle(a Action) Outcome {
	if a.Kind == ActLocal {
		pr.locals++
		return Outcome{Label: fmt.Sprintf("local p%d", pr.p), Actor: pr.p}
	}
	tok := a.Payload.(toyToken)
	out := Outcome{Label: fmt.Sprintf("tok ttl%d at p%d", tok.ttl, pr.p), Actor: pr.p}
	if tok.ttl > 0 {
		out.Effects = []Action{{
			Kind: ActDeliver, To: (pr.p + 1) % pr.w.n,
			Payload: toyToken{ttl: tok.ttl - 1},
		}}
	}
	return out
}

func TestRunDeterministicDigest(t *testing.T) {
	w := &toy{n: 5, ttl: 20}
	opts := Options{Seed: 42, Delay: 3, Drop: 0.1, Dup: 0.1, MaxEvents: 4096}
	a, err := Run(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(&toy{n: 5, ttl: 20}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Errorf("same seed, different digests:\n  %s\n  %s", a.Digest, b.Digest)
	}
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("same seed, different trace lengths %d vs %d", len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("same seed, traces diverge at %d: %+v vs %+v", i, a.Trace[i], b.Trace[i])
		}
	}
	opts.Seed = 43
	c, err := Run(&toy{n: 5, ttl: 20}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest == a.Digest {
		t.Error("different seeds produced identical digests")
	}
}

func TestRunDigestStableAcrossGOMAXPROCS(t *testing.T) {
	opts := Options{Seed: 7, Delay: 2, Drop: 0.15, Dup: 0.1, MaxEvents: 4096}
	run := func() string {
		res, err := Run(&toy{n: 6, ttl: 30}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Digest
	}
	old := gort.GOMAXPROCS(1)
	d1 := run()
	gort.GOMAXPROCS(8)
	d8 := run()
	gort.GOMAXPROCS(old)
	if d1 != d8 {
		t.Errorf("digest differs across GOMAXPROCS:\n  1: %s\n  8: %s", d1, d8)
	}
}

func TestRunQuiesceAndCounters(t *testing.T) {
	res, err := Run(&toy{n: 4, ttl: 5}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quiesced || res.Stopped || res.Stalled || res.Budget {
		t.Errorf("want clean quiescence, got %+v", res)
	}
	// 4 tokens, each delivered ttl+1 = 6 times.
	if res.Deliveries != 24 || res.Events != 24 || res.Pending != 0 {
		t.Errorf("deliveries=%d events=%d pending=%d, want 24/24/0", res.Deliveries, res.Events, res.Pending)
	}
	if len(res.Trace) != res.Deliveries {
		t.Errorf("trace has %d events, want %d", len(res.Trace), res.Deliveries)
	}
}

func TestRunDropAll(t *testing.T) {
	res, err := Run(&toy{n: 3, ttl: 9}, Options{Seed: 2, Drop: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quiesced || res.Drops != 3 || res.Deliveries != 0 {
		t.Errorf("drop=1.0: got drops=%d deliveries=%d quiesced=%v, want 3/0/true", res.Drops, res.Deliveries, res.Quiesced)
	}
	for _, ev := range res.Trace {
		if ev.Label != "drop tok" {
			t.Fatalf("unexpected trace label %q", ev.Label)
		}
	}
}

func TestRunBudget(t *testing.T) {
	// dup=1 regenerates a copy of every delivery: the queue never drains.
	res, err := Run(&toy{n: 3, ttl: 2}, Options{Seed: 3, Dup: 1.0, MaxEvents: 200})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Budget || res.Quiesced {
		t.Errorf("want budget exhaustion, got %+v", res)
	}
	if res.Dups == 0 || res.Pending == 0 {
		t.Errorf("want dups and pending actions, got dups=%d pending=%d", res.Dups, res.Pending)
	}
	if res.Events < 200 {
		t.Errorf("budget end with %d < 200 events", res.Events)
	}
}

func TestRunCrashRestart(t *testing.T) {
	res, err := Run(&toy{n: 4, ttl: 100}, Options{Seed: 5, Crash: 1.0, RestartAfter: 10, MaxEvents: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 {
		t.Errorf("crash=1.0 over 4 procs: got %d crashes", res.Crashes)
	}
	if res.Restarts == 0 {
		t.Error("restart-after set but no restarts recorded")
	}
	if res.Stalled {
		t.Error("restarts available, run should not stall")
	}
}

func TestRunCrashStall(t *testing.T) {
	// Everyone crashes, nobody restarts: pending deliveries freeze forever.
	res, err := Run(&toy{n: 3, ttl: 50}, Options{Seed: 11, Crash: 1.0, MaxEvents: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 || !res.Stalled {
		t.Errorf("want crashes and a stall, got %+v", res)
	}
	if res.Pending == 0 {
		t.Error("stall with an empty queue")
	}
}

func TestRunGuardHoldsLocalsBack(t *testing.T) {
	// The guard blocks the local while any delivery is pending, so every
	// local step must appear after the last delivery in the trace.
	res, err := Run(&toy{n: 3, ttl: 4, guardKey: "g"}, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.LocalSteps != 3 {
		t.Fatalf("want 3 local steps, got %d", res.LocalSteps)
	}
	lastDeliver, firstLocal := -1, -1
	for i, ev := range res.Trace {
		if strings.HasPrefix(ev.Label, "tok ") {
			lastDeliver = i
		} else if firstLocal < 0 {
			firstLocal = i
		}
	}
	if firstLocal >= 0 && firstLocal < lastDeliver {
		t.Errorf("guarded local at %d ran before delivery at %d:\n%v", firstLocal, lastDeliver, res.Trace)
	}
}

func TestRunOptionValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    Workload
		opts Options
		want string
	}{
		{"drop unsupported", &toy{n: 2, ttl: 1, faults: FaultDelay}, Options{Drop: 0.5}, "does not support the drop fault"},
		{"dup unsupported", &toy{n: 2, ttl: 1, faults: FaultDelay}, Options{Dup: 0.5}, "does not support the dup fault"},
		{"crash unsupported", &toy{n: 2, ttl: 1, faults: FaultDelay}, Options{Crash: 0.5}, "does not support the crash fault"},
		{"delay unsupported", &toy{n: 2, ttl: 1, faults: FaultDrop}, Options{Delay: 2}, "does not support the delay fault"},
		{"drop too big", &toy{n: 2, ttl: 1}, Options{Drop: 1.5}, "outside [0,1]"},
		{"dup negative", &toy{n: 2, ttl: 1}, Options{Dup: -0.1}, "outside [0,1]"},
		{"negative delay", &toy{n: 2, ttl: 1}, Options{Delay: -1}, "negative delay"},
		{"no dropper", &noDropper{}, Options{Drop: 0.5}, "implements no Dropper"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(tc.w, tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// noDropper claims drop support but implements no Dropper.
type noDropper struct{}

func (*noDropper) Name() string                                    { return "no-dropper" }
func (*noDropper) NumProcs() int                                   { return 1 }
func (*noDropper) Supports() Faults                                { return FaultDrop }
func (*noDropper) Spawn(int64) []Proc                              { return nil }
func (*noDropper) Model() (*core.Graph[string], error)             { return nil, nil }
func (*noDropper) Check(*Result, *core.Graph[string], []int) error { return nil }

func TestRunTraceWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tw, err := obs.NewTraceWriter(&buf, obs.NewManifest("runtime-test"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(&toy{n: 4, ttl: 10}, Options{Seed: 13, Delay: 2, Drop: 0.2, Dup: 0.1, Sink: tw})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateTrace(&buf)
	if err != nil {
		t.Fatalf("emitted trace fails validation: %v", err)
	}
	if sum.Digest != res.Digest {
		t.Errorf("trace digest %s != result digest %s", sum.Digest, res.Digest)
	}
	if sum.RTRuns != 1 || sum.RTEvents != res.Events {
		t.Errorf("validator saw %d rt runs / %d rt events, want 1 / %d", sum.RTRuns, sum.RTEvents, res.Events)
	}
}

func TestRunBatchDistinctDestinations(t *testing.T) {
	// Batch larger than the process count still works; a BatchLimiter of 1
	// serializes everything.
	res, err := Run(&limited{toy{n: 3, ttl: 6}}, Options{Seed: 17, Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quiesced {
		t.Errorf("want quiescence, got %+v", res)
	}
}

// limited wraps toy with MaxBatch 1.
type limited struct{ toy }

func (l *limited) Spawn(seed int64) []Proc { return l.toy.Spawn(seed) }
func (l *limited) MaxBatch() int           { return 1 }
