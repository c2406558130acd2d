package flp

import (
	"strconv"
	"strings"
)

// This file provides small asynchronous consensus attempts for the
// analyzer to dissect. The FLP theorem says every 1-resilient protocol
// must fail somewhere; these three fail in the three characteristic ways:
//
//   - WaitAll is safe but deadlocks (undecided) as soon as one process
//     crashes: it waits for everybody.
//   - WaitQuorum waits for only n-1 values (so it survives a crash) but
//     pays with a reachable disagreement.
//   - AdoptSwap is safe but admits a weakly-fair non-deciding execution —
//     the bivalent forever-run of the FLP construction itself.

// waitProto implements WaitAll/WaitQuorum: broadcast the input, collect
// values, decide the minimum once `need` processes (including self) have
// reported.
type waitProto struct {
	n    int
	need int
	name string
}

// NewWaitAll returns the wait-for-everyone protocol.
func NewWaitAll(n int) Protocol { return &waitProto{n: n, need: n, name: "wait-all"} }

// NewWaitQuorum returns the wait-for-(n-1) protocol.
func NewWaitQuorum(n int) Protocol { return &waitProto{n: n, need: n - 1, name: "wait-quorum"} }

// Name implements Protocol.
func (w *waitProto) Name() string { return w.name }

// NumProcs implements Protocol.
func (w *waitProto) NumProcs() int { return w.n }

// State layout: one value char per process ('-', '0', '1') + ":" +
// decision char ('-', '0', '1').
func (w *waitProto) Init(p, input int) string {
	vals := make([]byte, w.n)
	for i := range vals {
		vals[i] = '-'
	}
	vals[p] = byte('0' + input)
	s := string(vals) + ":-"
	return w.maybeDecide(s)
}

// AppendStep implements Protocol: record a fresh value and apply
// maybeDecide in place over the rendered bytes. Junk payloads and
// redeliveries of an already-recorded value leave the state unchanged:
// every reachable state is a fixed point of maybeDecide (Init and
// AppendStep both apply it), so an unchanged value vector means an
// unchanged state.
func (w *waitProto) AppendStep(dst []byte, _ int, state string, from int, payload string, sends []Send) ([]byte, []Send) {
	if (payload != "0" && payload != "1") || state[from] == payload[0] {
		return append(dst, state...), sends // absorbed: successor == state
	}
	off := len(dst)
	dst = append(dst, state...)
	dst[off+from] = payload[0]
	s := dst[off:]
	if s[w.n+1] == '-' { // maybeDecide, in place
		count := 0
		best := byte('9')
		for i := 0; i < w.n; i++ {
			if s[i] != '-' {
				count++
				if s[i] < best {
					best = s[i]
				}
			}
		}
		if count >= w.need {
			s[w.n+1] = best
		}
	}
	return dst, sends
}

// AppendInitialSends implements Protocol: broadcast own value, with
// constant payload strings instead of per-send string(byte) conversions.
func (w *waitProto) AppendInitialSends(p int, state string, sends []Send) []Send {
	pay := valuePayload(state[p])
	for q := 0; q < w.n; q++ {
		if q != p {
			sends = append(sends, Send{To: q, Payload: pay})
		}
	}
	return sends
}

// valuePayload is the one-byte string holding b, with interned results
// for the value alphabet: a variable one-byte string that escapes into a
// Send allocates, a constant does not. Non-value bytes (unreachable on
// canonical states) fall through to the allocating conversion so the
// function stays total. It converts a byte slice, not b itself: string(b)
// is a rune conversion, which UTF-8-encodes a byte >= 0x80 as two bytes.
func valuePayload(b byte) string {
	switch b {
	case '0':
		return "0"
	case '1':
		return "1"
	case '-':
		return "-"
	}
	return string([]byte{b})
}

func (w *waitProto) maybeDecide(state string) string {
	if state[w.n+1] != '-' {
		return state // already decided
	}
	count := 0
	best := byte('9')
	for i := 0; i < w.n; i++ {
		if state[i] != '-' {
			count++
			if state[i] < best {
				best = state[i]
			}
		}
	}
	if count >= w.need {
		return state[:w.n+1] + string(best)
	}
	return state
}

// Decide implements Protocol.
func (w *waitProto) Decide(_ int, state string) (int, bool) {
	d := state[w.n+1]
	if d == '-' {
		return 0, false
	}
	return int(d - '0'), true
}

// adoptSwap is the livelock-prone protocol, arranged on a logical ring to
// keep the in-flight message population bounded: on receiving a matching
// value, decide it; on a mismatch, adopt the received value and forward it
// to the ring successor. With processes holding different values, an
// adversarial schedule circulates the mismatch forever — a weakly fair
// non-deciding execution.
type adoptSwap struct {
	n int
}

// NewAdoptSwap returns the adopt-and-rebroadcast protocol.
func NewAdoptSwap(n int) Protocol { return &adoptSwap{n: n} }

// Name implements Protocol.
func (a *adoptSwap) Name() string { return "adopt-swap" }

// NumProcs implements Protocol.
func (a *adoptSwap) NumProcs() int { return a.n }

// State layout: value char + decision char.
func (a *adoptSwap) Init(_, input int) string {
	return strconv.Itoa(input) + "-"
}

// AppendStep implements Protocol: on a matching value decide it, on a
// mismatch adopt it and forward it to the ring successor.
func (a *adoptSwap) AppendStep(dst []byte, p int, state string, _ int, payload string, sends []Send) ([]byte, []Send) {
	if state[1] != '-' || (payload != "0" && payload != "1") {
		return append(dst, state...), sends // decided or junk: absorb
	}
	if payload == state[:1] {
		return append(dst, state[0], payload[0]), sends // match: decide
	}
	// Mismatch: adopt and forward around the ring. The payload string is a
	// substring of the configuration, so forwarding it verbatim is safe.
	dst = append(dst, payload...)
	dst = append(dst, '-')
	return dst, append(sends, Send{To: (p + 1) % a.n, Payload: payload})
}

// AppendInitialSends implements Protocol: send own value to the ring
// successor.
func (a *adoptSwap) AppendInitialSends(p int, state string, sends []Send) []Send {
	return append(sends, Send{To: (p + 1) % a.n, Payload: state[:1]})
}

// Decide implements Protocol.
func (a *adoptSwap) Decide(_ int, state string) (int, bool) {
	if state[1] == '-' {
		return 0, false
	}
	return int(state[1] - '0'), true
}

// DescribeHorn summarizes which FLP horn a report exhibits, for reports
// and examples.
func DescribeHorn(rep Report) string {
	var horns []string
	if rep.AgreementViolated {
		horns = append(horns, "agreement violation")
	}
	if rep.ValidityViolated {
		horns = append(horns, "validity violation")
	}
	if rep.HasDeadlock {
		horns = append(horns, "undecided deadlock after a crash")
	}
	if rep.NondecidingLasso != nil {
		horns = append(horns, "fair non-deciding execution")
	}
	if len(horns) == 0 {
		if rep.Lossy {
			// A lossy sweep can miss the horn along with the states it merged
			// away: absence of evidence only.
			return rep.Protocol + ": no horn found in the states kept (LOSSY sweep — not evidence of liveness)"
		}
		return rep.Protocol + ": no horn found (contradicts FLP for a 1-resilient protocol)"
	}
	return rep.Protocol + ": " + strings.Join(horns, "; ")
}
