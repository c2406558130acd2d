package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// ReadTrace parses a JSONL trace into its manifest and event list. It
// checks only what parsing needs (a manifest first, JSON per line, a
// schema this binary understands); run ValidateTrace for the full schema
// check. Post-hoc tooling (`hundred report`, `hundred trace-diff`) reads
// traces through here.
func ReadTrace(r io.Reader) (Manifest, []Event, error) {
	var evs []Event
	m, err := scanTrace(r, false, func(_ int, ev Event) error {
		evs = append(evs, ev)
		return nil
	})
	if err != nil {
		return m, nil, err
	}
	return m, evs, nil
}

// scanTrace is the one trace scanner under ReadTrace and ValidateTrace.
// It parses line 1 as the manifest and rejects a line of another kind, a
// schema newer than this binary's and, when versioned is set, a manifest
// without a schema_version. Then it parses each later line as an Event
// and hands it to each with its 1-based line number, stopping at the
// first error. Lines may be up to 4 MiB long.
func scanTrace(r io.Reader, versioned bool, each func(line int, ev Event) error) (Manifest, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var m Manifest
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return m, err
		}
		return m, fmt.Errorf("trace is empty (no manifest line)")
	}
	if err := json.Unmarshal(sc.Bytes(), &m); err != nil || m.Kind != KindManifest {
		return m, fmt.Errorf("trace line 1 is not a manifest: %s", firstOf(err, "kind %q", m.Kind))
	}
	if versioned && m.SchemaVersion <= 0 {
		return m, fmt.Errorf("trace line 1: manifest has no schema_version")
	}
	if m.SchemaVersion > SchemaVersion {
		return m, fmt.Errorf("trace schema_version %d is newer than this binary's %d; upgrade the binary",
			m.SchemaVersion, SchemaVersion)
	}
	for line := 2; sc.Scan(); line++ {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return m, fmt.Errorf("trace line %d: not a JSON event: %v", line, err)
		}
		if err := each(line, ev); err != nil {
			return m, err
		}
	}
	return m, sc.Err()
}
