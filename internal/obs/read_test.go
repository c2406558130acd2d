package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// traceSeeds are TraceWriter outputs for the trace-reader fuzz targets:
// an exploration run, a runtime run, and both in one file.
func traceSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, runs := range [][]func(Sink){
		{writeRun},
		{writeRTRun},
		{writeRTRun, writeRun, writeRun},
	} {
		var buf bytes.Buffer
		m := NewManifest("fuzz-seed")
		m.Options = map[string]string{"n": "4"}
		tw, err := NewTraceWriter(&buf, m)
		if err != nil {
			tb.Fatal(err)
		}
		for _, run := range runs {
			run(tw)
		}
		if err := tw.Close(); err != nil {
			tb.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// sameJSON reports whether a and b encode to the same JSON. Comparing
// encodings rather than values treats a nil and an empty omitempty slice
// or map alike, as the file format does.
func sameJSON(t *testing.T, a, b any) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ja, jb)
}

// FuzzReadTrace feeds arbitrary bytes to ReadTrace, which must return a
// parse or an error, never panic. Whatever it parses must survive the
// trip back: the manifest and events, written again by a TraceWriter,
// read back equal, each event restamped with its sequence and run number.
func FuzzReadTrace(f *testing.F) {
	for _, seed := range traceSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte(""))
	f.Add([]byte(`{"kind":"manifest","schema_version":3}` + "\nnull\n"))
	f.Add([]byte(`{"kind":"manifest","schema_version":99}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, evs, err := ReadTrace(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		tw, err := NewTraceWriter(&buf, m)
		if err != nil {
			t.Fatalf("manifest read from a trace does not write: %v", err)
		}
		for _, ev := range evs {
			tw.Publish(ev)
		}
		if err := tw.Close(); err != nil {
			t.Fatalf("events read from a trace do not write: %v", err)
		}
		m2, evs2, err := ReadTrace(&buf)
		if errors.Is(err, bufio.ErrTooLong) {
			return // JSON escaping grew a line past the reader's limit
		}
		if err != nil {
			t.Fatalf("a re-encoded trace does not read back: %v", err)
		}
		if m.SchemaVersion == 0 {
			m.SchemaVersion = SchemaVersion // NewTraceWriter's default
		}
		if !sameJSON(t, m, m2) {
			t.Fatalf("manifest changed on the round trip: %+v -> %+v", m, m2)
		}
		if len(evs2) != len(evs) {
			t.Fatalf("%d events read back, %d written", len(evs2), len(evs))
		}
		run := 0
		for i, want := range evs {
			if want.Kind == KindRunStart || want.Kind == KindRTStart {
				run++
			}
			want.Seq, want.Run, want.ElapsedNs = uint64(i+1), run, evs2[i].ElapsedNs
			if !sameJSON(t, want, evs2[i]) {
				t.Fatalf("event %d changed on the round trip: %+v -> %+v", i, want, evs2[i])
			}
		}
	})
}

// FuzzValidateTrace feeds arbitrary bytes to ValidateTrace, which must
// accept or reject them, never panic. A trace it accepts must also read
// through ReadTrace, with the event count and digest it reported.
func FuzzValidateTrace(f *testing.F) {
	for _, seed := range traceSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		sum, err := ValidateTrace(bytes.NewReader(raw))
		if err != nil {
			return
		}
		_, evs, err := ReadTrace(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("ValidateTrace accepted a trace ReadTrace rejects: %v", err)
		}
		if len(evs) != sum.Events {
			t.Fatalf("ReadTrace read %d events, ValidateTrace counted %d", len(evs), sum.Events)
		}
		d := NewDigest()
		for _, ev := range evs {
			d.Publish(ev)
		}
		if d.Sum() != sum.Digest {
			t.Fatalf("digest of the read events %s, ValidateTrace reported %s", d.Sum(), sum.Digest)
		}
	})
}
