package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"testing"
)

// rtLabels holds one real model label from each live workload: LCR,
// ABP, Ben-Or and the ticket-lock mutex. The last two carry the "->"
// that encoding/json escapes as >.
var rtLabels = []string{
	"deliver id 3 to p2",
	"send data b0 m2",
	"deliver R1 v0 p2->p1",
	"p0: v1 0->1",
}

// FuzzRTEventEncoding checks the two append encoders of the rt_event
// publish path against the code they replace: appendRTEventJSON against
// json.Marshal, and AppendDigestLine against the format string the
// digest used to render with fmt.Sprintf.
func FuzzRTEventEncoding(f *testing.F) {
	kinds := []string{RTDeliver, RTLocal, RTDrop, RTDup, RTCrash, RTRestart}
	for i, k := range kinds {
		f.Add(k, rtLabels[i%len(rtLabels)], i+1, i-1, i, -1, 1, uint64(i+2), int64(1000*i))
	}
	f.Add(RTLocal, "", 0, 0, 0, 0, 0, uint64(0), int64(0))
	f.Add("<&>", "a\x00\b\f\n\r\t\x1f\x7f\"\\", -7, -1, -2, -3, -4, ^uint64(0), int64(-5))
	f.Add("\u2028\u2029", "\xff\xfe \u00e9 e\u0301 \U0001F600 \xed\xa0\x80", 1<<40, 3, 4, 5, 6, uint64(1)<<63, int64(1)<<62)
	// The edges of the digest's unescaped label path, printable ASCII
	// without '"' or '\': '~' and ' ' are inside it, DEL, '"' and '\'
	// outside, and "->" is inside for the digest but escaped by JSON.
	for i, label := range []string{"~", "p0~", "\x7f", "p0\x7f", " ", " a b ", `"`, `a"b`, `\`, `a\b`, "->", "p0->p1"} {
		f.Add(RTDeliver, label, i+1, 0, 1, 0, 1, uint64(i+1), int64(i))
	}
	f.Fuzz(func(t *testing.T, kind, label string, event, actor, to, from, run int, seq uint64, elapsed int64) {
		ev := Event{Kind: KindRTEvent, Run: run, Seq: seq, ElapsedNs: elapsed, RT: &RuntimeEvent{
			Kind: kind, Event: event, Actor: actor, To: to, From: from, Label: label,
		}}
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := appendRTEventJSON([]byte("prefix"), ev)
		if !ok || !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("appendRTEventJSON:\n got %q (ok=%v)\nwant %q", got, ok, "prefix"+string(want))
		}
		wantLine := fmt.Sprintf("rt_event %d %s actor=%d from=%d to=%d label=%q\n",
			event, kind, actor, from, to, label)
		line, ok := AppendDigestLine([]byte("prefix"), ev)
		if !ok || string(line) != "prefix"+wantLine {
			t.Fatalf("AppendDigestLine:\n got %q (ok=%v)\nwant %q", line, ok, "prefix"+wantLine)
		}
		// Through the writer, which restamps Run, Seq and ElapsedNs.
		var buf bytes.Buffer
		tw, err := NewTraceWriter(&buf, Manifest{})
		if err != nil {
			t.Fatal(err)
		}
		if err := tw.bw.Flush(); err != nil {
			t.Fatal(err)
		}
		buf.Reset()
		tw.Publish(ev)
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		var back Event
		if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
			t.Fatalf("TraceWriter line does not parse: %v\n%s", err, buf.Bytes())
		}
		ev.Run, ev.Seq, ev.ElapsedNs = 0, 1, back.ElapsedNs
		if want, _ = json.Marshal(ev); !bytes.Equal(buf.Bytes(), append(want, '\n')) {
			t.Fatalf("TraceWriter.Publish:\n got %q\nwant %q", buf.Bytes(), want)
		}
	})
}

// TestRTEventPublishAllocs pins the live publish path at zero
// allocations: once their buffers are warm, a TraceWriter and a Digest
// each render and write an rt_event without touching the allocator, on a
// label that needs JSON escaping too.
func TestRTEventPublishAllocs(t *testing.T) {
	tw, err := NewTraceWriter(io.Discard, Manifest{})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDigest()
	for _, label := range rtLabels {
		ev := Event{Kind: KindRTEvent, RT: &RuntimeEvent{
			Kind: RTDeliver, Event: 12345, Actor: 2, To: 1, From: 2, Label: label,
		}}
		for _, s := range []struct {
			name string
			sink Sink
		}{{"TraceWriter", tw}, {"Digest", d}} {
			s.sink.Publish(ev) // warm the line buffer
			if a := testing.AllocsPerRun(100, func() { s.sink.Publish(ev) }); a != 0 {
				t.Errorf("%s.Publish(%q): %v allocs per rt_event, want 0", s.name, label, a)
			}
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRTEventPublishConcurrent publishes rt_events to one TraceWriter
// and one Digest from several goroutines at once: each reuses its own
// line buffer under its lock, so each line must still come out whole.
func TestRTEventPublishConcurrent(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, Manifest{})
	if err != nil {
		t.Fatal(err)
	}
	both := MultiSink{tw, NewDigest()}
	const workers, each = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				both.Publish(Event{Kind: KindRTEvent, RT: &RuntimeEvent{
					Kind: RTDeliver, Event: i + 1, Actor: g, To: g, From: -1, Label: rtLabels[g],
				}})
			}
		}(g)
	}
	wg.Wait()
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))[1:]
	if len(lines) != workers*each {
		t.Fatalf("%d event lines, want %d", len(lines), workers*each)
	}
	for _, line := range lines {
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil || ev.RT == nil || ev.RT.Label != rtLabels[ev.RT.Actor] {
			t.Fatalf("torn line %q: %v", line, err)
		}
	}
}

// BenchmarkTraceWriterRTEvent is one rt_event published to a TraceWriter
// on io.Discard: the JSON line and the buffered write.
func BenchmarkTraceWriterRTEvent(b *testing.B) {
	tw, err := NewTraceWriter(io.Discard, Manifest{})
	if err != nil {
		b.Fatal(err)
	}
	ev := Event{Kind: KindRTEvent, RT: &RuntimeEvent{
		Kind: RTLocal, Event: 1, Actor: 0, To: 0, From: 0, Label: "p0: v1 0->1",
	}}
	tw.Publish(ev) // warm the line buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.RT.Event = i + 1
		tw.Publish(ev)
	}
	if err := tw.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDigestRTEvent is one rt_event folded into a Digest, the other
// sink every live run publishes to. It must read 0 allocs/op.
func BenchmarkDigestRTEvent(b *testing.B) {
	d := NewDigest()
	ev := Event{Kind: KindRTEvent, RT: &RuntimeEvent{
		Kind: RTLocal, Event: 1, Actor: 0, To: 0, From: 0, Label: "p0: v1 0->1",
	}}
	d.Publish(ev) // warm the line buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.RT.Event = i + 1
		d.Publish(ev)
	}
	if d.Sum() == "" {
		b.Fatal("empty digest")
	}
}
