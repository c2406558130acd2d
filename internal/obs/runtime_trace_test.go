package obs

import (
	"bytes"
	"strings"
	"testing"
)

// writeRTRun publishes one complete synthetic runtime run to tw: an
// rt_start, one rt_event of every kind (with consecutive 1-based
// indices), and an rt_end whose totals tally exactly.
func writeRTRun(tw Sink) {
	tw.Publish(Event{Kind: KindRTStart, RTConfig: &RuntimeConfig{
		Workload: "toy", Procs: 3, Seed: 9, MaxEvents: 100, Batch: 4,
		Drop: 0.5, Dup: 0.25, Delay: 2, Crash: 0.1, RestartAfter: 5,
	}})
	for i, e := range []RuntimeEvent{
		{Kind: RTDeliver, Actor: 1, From: 0, To: 1, Label: "deliver x"},
		{Kind: RTLocal, Actor: 2, From: 2, To: 2, Label: "local y"},
		{Kind: RTDrop, Actor: -1, From: 0, To: 2, Label: "drop x"},
		{Kind: RTDup, Actor: -1, From: 1, To: 0},
		{Kind: RTCrash, Actor: -1, From: -1, To: 0},
		{Kind: RTRestart, Actor: -1, From: -1, To: 0},
	} {
		e.Event = i + 1
		ev := e
		tw.Publish(Event{Kind: KindRTEvent, RT: &ev})
	}
	tw.Publish(Event{Kind: KindRTEnd, RTSummary: &RuntimeSummary{
		Events: 6, Deliveries: 1, LocalSteps: 1, Drops: 1, Dups: 1,
		Crashes: 1, Restarts: 1, Pending: 2, Halted: 1, Budget: true,
	}})
}

func TestRTTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, NewManifest("rt-test"))
	if err != nil {
		t.Fatal(err)
	}
	dig := NewDigest()
	both := MultiSink{tw, dig}
	writeRTRun(both)
	writeRun(both) // an exploration run after a runtime run in the same file
	writeRTRun(both)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := ValidateTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ValidateTrace rejected a well-formed mixed trace: %v", err)
	}
	if sum.RTRuns != 2 || sum.RTEvents != 12 || sum.Runs != 1 {
		t.Fatalf("summary = %+v, want rt_runs=2 rt_events=12 runs=1", sum)
	}
	if sum.Digest != dig.Sum() {
		t.Fatalf("validator digest %s != published digest %s", sum.Digest, dig.Sum())
	}
}

// validRTTrace renders one complete runtime run to lines for mutation.
func validRTTrace(t *testing.T) []string {
	t.Helper()
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, NewManifest("rt-test"))
	if err != nil {
		t.Fatal(err)
	}
	writeRTRun(tw)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
}

func TestValidateRTTraceRejects(t *testing.T) {
	// Line layout: 0 manifest, 1 rt_start, 2..7 rt_events, 8 rt_end.
	cases := []struct {
		name    string
		mutate  func([]string) []string
		wantErr string
	}{
		{"rt_event outside a run", func(ls []string) []string {
			return append(ls[:1], ls[2:]...) // drop rt_start
		}, "rt_event outside a runtime run"},
		{"missing rt_end", func(ls []string) []string {
			return ls[:len(ls)-1]
		}, "missing rt_end"},
		{"rt_end outside a run", func(ls []string) []string {
			return append([]string{ls[0]}, ls[len(ls)-1])
		}, "rt_end outside a runtime run"},
		{"rt_start without config", func(ls []string) []string {
			ls[1] = strings.Replace(ls[1], `"rt_config":`, `"ignored":`, 1)
			return ls
		}, "without a config payload"},
		{"no workload name", func(ls []string) []string {
			ls[1] = strings.Replace(ls[1], `"workload":"toy"`, `"workload":""`, 1)
			return ls
		}, "no workload name"},
		{"zero procs", func(ls []string) []string {
			ls[1] = strings.Replace(ls[1], `"procs":3`, `"procs":0`, 1)
			return ls
		}, "non-positive procs"},
		{"probability out of range", func(ls []string) []string {
			ls[1] = strings.Replace(ls[1], `"drop":0.5`, `"drop":1.5`, 1)
			return ls
		}, "probability outside [0,1]"},
		{"negative delay", func(ls []string) []string {
			ls[1] = strings.Replace(ls[1], `"delay":2`, `"delay":-2`, 1)
			return ls
		}, "negative delay"},
		{"event index gap", func(ls []string) []string {
			ls[3] = strings.Replace(ls[3], `"event":2`, `"event":7`, 1)
			return ls
		}, "consecutive 1-based"},
		{"unknown rt kind", func(ls []string) []string {
			ls[2] = strings.Replace(ls[2], `"kind":"deliver"`, `"kind":"teleport"`, 1)
			return ls
		}, "unknown runtime event kind"},
		{"target out of range", func(ls []string) []string {
			ls[2] = strings.Replace(ls[2], `"to":1`, `"to":7`, 1)
			return ls
		}, "outside [0,3)"},
		{"from out of range", func(ls []string) []string {
			ls[2] = strings.Replace(ls[2], `"from":0`, `"from":-3`, 1)
			return ls
		}, "out-of-range from"},
		{"rt_event payload missing", func(ls []string) []string {
			ls[2] = strings.Replace(ls[2], `"rt":`, `"ignored":`, 1)
			return ls
		}, "without a payload"},
		{"totals mismatch", func(ls []string) []string {
			last := len(ls) - 1
			ls[last] = strings.Replace(ls[last], `"drops":1`, `"drops":3`, 1)
			return ls
		}, "disagree with observed"},
		{"rt_end payload missing", func(ls []string) []string {
			last := len(ls) - 1
			ls[last] = strings.Replace(ls[last], `"rt_summary":`, `"ignored":`, 1)
			return ls
		}, "without a summary payload"},
		{"quiesced with pending", func(ls []string) []string {
			last := len(ls) - 1
			ls[last] = strings.Replace(ls[last], `"budget":true`, `"quiesced":true`, 1)
			return ls
		}, "quiescence with 2 actions pending"},
		{"halted above procs", func(ls []string) []string {
			last := len(ls) - 1
			ls[last] = strings.Replace(ls[last], `"halted":1`, `"halted":9`, 1)
			return ls
		}, "out-of-range pending"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := validRTTrace(t)
			ls := c.mutate(append([]string(nil), base...))
			_, err := ValidateTrace(strings.NewReader(strings.Join(ls, "\n")))
			if err == nil {
				t.Fatalf("ValidateTrace accepted a %s trace", c.name)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

func TestValidateTraceRejectsInterleavedRuns(t *testing.T) {
	// An exploration event inside a runtime run, and vice versa.
	var buf bytes.Buffer
	tw, _ := NewTraceWriter(&buf, NewManifest("t"))
	tw.Publish(Event{Kind: KindRTStart, RTConfig: &RuntimeConfig{Workload: "toy", Procs: 1, MaxEvents: 1, Batch: 1}})
	tw.Publish(Event{Kind: KindRunStart, Config: &RunConfig{Workers: 1, MaxStates: 10, Inits: 1}})
	tw.Close()
	if _, err := ValidateTrace(bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "run_start inside an open runtime run") {
		t.Errorf("run_start inside rt run: got %v", err)
	}

	buf.Reset()
	tw, _ = NewTraceWriter(&buf, NewManifest("t"))
	tw.Publish(Event{Kind: KindRTStart, RTConfig: &RuntimeConfig{Workload: "toy", Procs: 1, MaxEvents: 1, Batch: 1}})
	snap := ProgressSnapshot{States: 1}
	tw.Publish(Event{Kind: KindLevel, Snapshot: &snap})
	tw.Close()
	if _, err := ValidateTrace(bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "inside a runtime run") {
		t.Errorf("level inside rt run: got %v", err)
	}

	buf.Reset()
	tw, _ = NewTraceWriter(&buf, NewManifest("t"))
	tw.Publish(Event{Kind: KindRunStart, Config: &RunConfig{Workers: 1, MaxStates: 10, Inits: 1}})
	tw.Publish(Event{Kind: KindRTStart, RTConfig: &RuntimeConfig{Workload: "toy", Procs: 1, MaxEvents: 1, Batch: 1}})
	tw.Close()
	if _, err := ValidateTrace(bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "rt_start inside an open run") {
		t.Errorf("rt_start inside exploration run: got %v", err)
	}
}

func TestRTDigestSensitivity(t *testing.T) {
	base := func(label string, mutateSeed int64) string {
		d := NewDigest()
		d.Publish(Event{Kind: KindRTStart, RTConfig: &RuntimeConfig{
			Workload: "toy", Procs: 2, Seed: mutateSeed, MaxEvents: 10, Batch: 1}})
		d.Publish(Event{Kind: KindRTEvent, RT: &RuntimeEvent{
			Kind: RTDeliver, Event: 1, Actor: 0, From: 1, To: 0, Label: label}})
		d.Publish(Event{Kind: KindRTEnd, RTSummary: &RuntimeSummary{Events: 1, Deliveries: 1}})
		if d.Events() != 3 {
			t.Fatalf("digest folded %d events, want 3", d.Events())
		}
		return d.Sum()
	}
	a, b := base("deliver x", 1), base("deliver x", 1)
	if a != b {
		t.Fatal("identical rt streams digest differently")
	}
	if base("deliver y", 1) == a {
		t.Fatal("digest ignores rt_event labels")
	}
	if base("deliver x", 2) == a {
		t.Fatal("digest ignores the rt_start seed")
	}
}

func TestDigestIgnoresPayloadlessEvents(t *testing.T) {
	d := NewDigest()
	for _, k := range []EventKind{KindRTStart, KindRTEvent, KindRTEnd, KindRunStart, KindLevel, KindSnapshot} {
		d.Publish(Event{Kind: k}) // nil payloads must not fold or panic
	}
	if d.Events() != 0 {
		t.Fatalf("payload-less events folded: %d", d.Events())
	}
}
