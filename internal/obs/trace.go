package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// Manifest is the first line of every JSONL trace: the provenance record
// that makes two traces comparable. Same Tool + Seed + Options + schema
// means the deterministic skeleton of the traces (level events, final
// totals — see Digest) must match; Git pins the code that produced it.
type Manifest struct {
	// Kind is always "manifest".
	Kind EventKind `json:"kind"`
	// SchemaVersion is the trace schema the file was written under.
	SchemaVersion int `json:"schema_version"`
	// Tool names the producer (e.g. "bivalence", "hundred").
	Tool string `json:"tool"`
	// Seed is the deterministic seed of the run, when one exists.
	Seed int64 `json:"seed,omitempty"`
	// Git is the producing build's VCS revision (see VCSVersion).
	Git string `json:"git,omitempty"`
	// Options records the producer's relevant flag/option settings.
	Options map[string]string `json:"options,omitempty"`
	// Started is the wall-clock start time, RFC3339. Events carry only
	// monotonic elapsed durations; this is the single wall anchor.
	Started string `json:"started,omitempty"`
}

// NewManifest builds a manifest for tool with the current schema version,
// build revision, and start time.
func NewManifest(tool string) Manifest {
	return Manifest{
		Kind:          KindManifest,
		SchemaVersion: SchemaVersion,
		Tool:          tool,
		Git:           VCSVersion(),
		Started:       time.Now().UTC().Format(time.RFC3339),
	}
}

// TraceWriter is a Sink that renders events as JSON Lines: the manifest
// first, then one event object per line, stamped with a file-global
// sequence number and a 1-based run number (incremented at every
// run_start). It only writes. A caller that wants the trace's digest
// subscribes a Digest beside it, as SetupCLI does, or recomputes it from
// the file with ValidateTrace.
//
// Writes are serialized under a mutex; the first write error sticks and
// suppresses further output (check Err or Close).
type TraceWriter struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	closer io.Closer
	seq    uint64
	run    int
	start  time.Time
	line   []byte // Publish's reused rendering buffer
	err    error
}

// traceBufferSize is the TraceWriter's write-block size: one write
// system call per 64 KiB of trace, where bufio's 4 KiB default makes
// sixteen.
const traceBufferSize = 64 << 10

// NewTraceWriter writes the manifest line to w and returns the writer. If
// w is an io.Closer, Close closes it after flushing.
func NewTraceWriter(w io.Writer, m Manifest) (*TraceWriter, error) {
	m.Kind = KindManifest
	if m.SchemaVersion == 0 {
		m.SchemaVersion = SchemaVersion
	}
	t := &TraceWriter{bw: bufio.NewWriterSize(w, traceBufferSize), start: time.Now()}
	if c, ok := w.(io.Closer); ok {
		t.closer = c
	}
	line, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("obs: marshal manifest: %w", err)
	}
	line = append(line, '\n')
	if _, err := t.bw.Write(line); err != nil {
		return nil, fmt.Errorf("obs: write manifest: %w", err)
	}
	return t, nil
}

// Publish implements Sink. The rt_event lines, nearly every line of a
// live run's trace, are rendered by appendRTEventJSON into a reused
// buffer; every other kind goes through json.Marshal.
func (t *TraceWriter) Publish(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	t.seq++
	ev.Seq = t.seq
	// Stamped under the same lock as Seq, from the monotonic clock: events
	// later in the file always carry an equal-or-larger elapsed_ns, which
	// ValidateTrace enforces. Digest ignores it (see DigestLine).
	ev.ElapsedNs = time.Since(t.start).Nanoseconds()
	if ev.Kind == KindRunStart || ev.Kind == KindRTStart {
		t.run++
	}
	ev.Run = t.run
	line, ok := appendRTEventJSON(t.line[:0], ev)
	if !ok {
		b, err := json.Marshal(ev)
		if err != nil {
			t.err = fmt.Errorf("obs: marshal event: %w", err)
			return
		}
		line = append(line, b...)
	}
	t.line = append(line, '\n')
	if _, err := t.bw.Write(t.line); err != nil {
		t.err = fmt.Errorf("obs: write event: %w", err)
	}
}

// appendRTEventJSON appends the JSON encoding of an rt_event, exactly as
// json.Marshal(ev) writes it, and reports true. For an event that is not
// an rt_event carrying only its RT payload it appends nothing and reports
// false.
func appendRTEventJSON(dst []byte, ev Event) ([]byte, bool) {
	e := ev.RT
	if ev.Kind != KindRTEvent || e == nil || ev.Config != nil || ev.Snapshot != nil ||
		ev.RTConfig != nil || ev.RTSummary != nil {
		return dst, false
	}
	dst = append(dst, `{"kind":"rt_event"`...)
	if ev.Run != 0 {
		dst = append(dst, `,"run":`...)
		dst = strconv.AppendInt(dst, int64(ev.Run), 10)
	}
	if ev.Seq != 0 {
		dst = append(dst, `,"seq":`...)
		dst = strconv.AppendUint(dst, ev.Seq, 10)
	}
	if ev.ElapsedNs != 0 {
		dst = append(dst, `,"elapsed_ns":`...)
		dst = strconv.AppendInt(dst, ev.ElapsedNs, 10)
	}
	dst = append(dst, `,"rt":{"kind":`...)
	dst = appendJSONString(dst, e.Kind)
	dst = append(dst, `,"event":`...)
	dst = strconv.AppendInt(dst, int64(e.Event), 10)
	dst = append(dst, `,"actor":`...)
	dst = strconv.AppendInt(dst, int64(e.Actor), 10)
	dst = append(dst, `,"to":`...)
	dst = strconv.AppendInt(dst, int64(e.To), 10)
	dst = append(dst, `,"from":`...)
	dst = strconv.AppendInt(dst, int64(e.From), 10)
	if e.Label != "" {
		dst = append(dst, `,"label":`...)
		dst = appendJSONString(dst, e.Label)
	}
	return append(dst, "}}"...), true
}

// appendJSONString appends s as encoding/json writes a string: quoted,
// with <, > and & HTML-escaped, control characters escaped, invalid UTF-8
// replaced by \ufffd, and U+2028 and U+2029 escaped.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Err returns the first write error, if any.
func (t *TraceWriter) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Close flushes buffered lines and closes the underlying writer when it
// is closable, returning the first error encountered over the writer's
// lifetime.
func (t *TraceWriter) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.bw.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	if t.closer != nil {
		if err := t.closer.Close(); err != nil && t.err == nil {
			t.err = err
		}
		t.closer = nil
	}
	return t.err
}
