package flp

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
)

// This file is the configuration graph's transition relation: ExpandInto
// derives every successor directly from the encoded configuration,
// rendering each one into the worker's scratch buffer instead of
// materializing envelope slices, a dedup map, and joined strings per
// successor. The encoding invariants it leans on (canonical decimal
// fields, sorted message section) are established by encodeConfig; a
// configuration that violates them was not produced by this system, and
// ExpandInto panics naming it. The relation is pinned three ways:
// TestExpandIntoMatchesSteps (against a hand-written reference over the
// protocols' independent string transition functions), engine.Differential
// in the package tests, and Options.VerifyAliasing.
//
// Contract recap (engine.Ctx): the bytes passed to EmitBytes and Label are
// consumed before the call returns, and nothing emitted may be retained
// across expansions. All state below lives in expandScratch, re-derived
// from the current configuration on every call.

// expandScratch is the per-worker scratch of the expansion fast path,
// carried in Ctx.Sys. The substring slices alias the configuration being
// expanded; the byte buffers are overwritten on every successor.
type expandScratch struct {
	states   []string    // per-process local states (substrings of c)
	msgs     []string    // sorted in-flight section (substrings of c)
	parsed   []parsedEnv // strict parse of msgs, index-aligned
	sendOff  [][2]int    // rendered new-send spans in sendBuf, sorted
	sendBuf  []byte      // rendered new sends
	lbl      []byte      // label render buffer
	sends    []Send      // reusable send slice for the Protocol calls
	stateBuf []byte      // successor local-state render buffer
}

// parsedEnv is one strictly parsed envelope; payload aliases the
// configuration being expanded.
type parsedEnv struct {
	from, to int
	payload  string
}

var _ core.System[config] = (*system)(nil)

// ExpandInto implements core.System: deliveries in sorted flight order
// (one per distinct envelope whose receiver is alive), then — while the
// crash budget lasts — crashes p0..pn-1.
func (s *system) ExpandInto(c config, x *engine.Ctx[config]) {
	sc, _ := x.Sys.(*expandScratch)
	if sc == nil {
		sc = &expandScratch{}
		x.Sys = sc
	}
	i1 := strings.IndexByte(c, '\x1d')
	if i1 < 0 {
		notProduced(c)
	}
	rest := c[i1+1:]
	i2 := strings.IndexByte(rest, '\x1d')
	if i2 < 0 {
		notProduced(c)
	}
	crashed, ok := parseCanonInt(c[:i1])
	if !ok {
		notProduced(c)
	}
	statesStr := rest[:i2]
	msgsStr := rest[i2+1:]
	n := s.p.NumProcs()

	sc.states = splitByte(sc.states[:0], statesStr, '\x1e')
	if len(sc.states) != n {
		notProduced(c)
	}
	sc.msgs = sc.msgs[:0]
	if msgsStr != "" {
		sc.msgs = splitByte(sc.msgs, msgsStr, '\x1f')
	}

	// Validation pre-pass: a malformed configuration is rejected before
	// the first emission, so it never yields a partial expansion.
	sc.parsed = sc.parsed[:0]
	for i, m := range sc.msgs {
		if i > 0 && m < sc.msgs[i-1] {
			notProduced(c) // unsorted message section
		}
		from, to, payload, ok := parseMsg(m)
		if !ok || from >= n || to >= n {
			notProduced(c)
		}
		sc.parsed = append(sc.parsed, parsedEnv{from: from, to: to, payload: payload})
	}

	for i, m := range sc.msgs {
		if i > 0 && m == sc.msgs[i-1] {
			continue // identical envelopes lead to identical successors
		}
		from, to, payload := sc.parsed[i].from, sc.parsed[i].to, sc.parsed[i].payload
		if crashed&(1<<uint(to)) != 0 {
			continue // receiver is dead; the message is never delivered
		}
		if payload == wakePayload && from == to {
			sc.stateBuf = append(sc.stateBuf[:0], sc.states[to]...)
			sc.sends = s.p.AppendInitialSends(to, sc.states[to], sc.sends[:0])
		} else {
			sc.stateBuf, sc.sends = s.p.AppendStep(sc.stateBuf[:0], to, sc.states[to], from, payload, sc.sends[:0])
		}
		sc.sendBuf = sc.sendBuf[:0]
		sc.sendOff = sc.sendOff[:0]
		for _, snd := range sc.sends {
			start := len(sc.sendBuf)
			sc.sendBuf = appendMsg(sc.sendBuf, to, snd.To, snd.Payload)
			sc.sendOff = append(sc.sendOff, [2]int{start, len(sc.sendBuf)})
		}
		sortSpans(sc.sendBuf, sc.sendOff)

		buf := x.Scratch[:0]
		buf = strconv.AppendInt(buf, int64(crashed), 10)
		buf = append(buf, '\x1d')
		for q, st := range sc.states {
			if q > 0 {
				buf = append(buf, '\x1e')
			}
			if q == to {
				buf = append(buf, sc.stateBuf...)
			} else {
				buf = append(buf, st...)
			}
		}
		buf = append(buf, '\x1d')
		buf = appendMergedMsgs(buf, sc.msgs, i, sc.sendBuf, sc.sendOff)
		x.Scratch = buf
		sc.lbl = append(sc.lbl[:0], "deliver "...)
		sc.lbl = append(sc.lbl, m...)
		x.EmitBytes(buf, x.Label(sc.lbl), to)
	}

	if countBits(crashed) < s.resilience {
		for p := 0; p < n; p++ {
			if crashed&(1<<uint(p)) != 0 {
				continue
			}
			// A crash changes only the mask: the state and message
			// sections carry over verbatim (they re-render to themselves
			// under the canonical-parse checks above).
			buf := x.Scratch[:0]
			buf = strconv.AppendInt(buf, int64(crashed|1<<uint(p)), 10)
			buf = append(buf, '\x1d')
			buf = append(buf, statesStr...)
			buf = append(buf, '\x1d')
			buf = append(buf, msgsStr...)
			x.Scratch = buf
			sc.lbl = append(sc.lbl[:0], "crash p"...)
			sc.lbl = strconv.AppendInt(sc.lbl, int64(p), 10)
			x.EmitBytes(buf, x.Label(sc.lbl), core.EnvironmentActor)
		}
	}
}

// notProduced rejects a configuration that fails ExpandInto's strict
// parse: encodeConfig never renders one, so it did not come from this
// system.
func notProduced(c config) {
	panic(fmt.Sprintf("flp: configuration %q was not produced by this system", c))
}

// splitByte appends the sep-separated substrings of s to dst. Unlike
// strings.Split it allocates nothing beyond dst's backing array.
func splitByte(dst []string, s string, sep byte) []string {
	for {
		j := strings.IndexByte(s, sep)
		if j < 0 {
			return append(dst, s)
		}
		dst = append(dst, s[:j])
		s = s[j+1:]
	}
}

// parseCanonInt parses a canonically rendered non-negative decimal — the
// exact image of strconv.Itoa, so no empty string, no leading zeros, no
// signs. Anything else means the field did not come from encodeConfig.
func parseCanonInt[T ~string | ~[]byte](s T) (int, bool) {
	if len(s) == 0 || (len(s) > 1 && s[0] == '0') {
		return 0, false
	}
	v := 0
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return 0, false
		}
		v = v*10 + int(d)
		if v > 1<<30 {
			return 0, false
		}
	}
	return v, true
}

// parseMsg parses a canonically rendered envelope "from>to:payload".
func parseMsg(m string) (from, to int, payload string, ok bool) {
	gt := strings.IndexByte(m, '>')
	if gt <= 0 {
		return 0, 0, "", false
	}
	colon := strings.IndexByte(m[gt+1:], ':')
	if colon < 0 {
		return 0, 0, "", false
	}
	colon += gt + 1
	from, okF := parseCanonInt(m[:gt])
	to, okT := parseCanonInt(m[gt+1 : colon])
	if !okF || !okT {
		return 0, 0, "", false
	}
	return from, to, m[colon+1:], true
}

// appendMsg renders an envelope exactly as envelope.String does.
func appendMsg(dst []byte, from, to int, payload string) []byte {
	dst = strconv.AppendInt(dst, int64(from), 10)
	dst = append(dst, '>')
	dst = strconv.AppendInt(dst, int64(to), 10)
	dst = append(dst, ':')
	return append(dst, payload...)
}

// sortSpans insertion-sorts the spans of buf lexicographically. Send
// counts are tiny (at most n-1), so insertion sort wins.
func sortSpans(buf []byte, offs [][2]int) {
	for i := 1; i < len(offs); i++ {
		for j := i; j > 0 && bytes.Compare(buf[offs[j][0]:offs[j][1]], buf[offs[j-1][0]:offs[j-1][1]]) < 0; j-- {
			offs[j], offs[j-1] = offs[j-1], offs[j]
		}
	}
}

// cmpBytesString three-way compares a byte slice against a string without
// allocating.
func cmpBytesString(b []byte, s string) int {
	n := len(b)
	if len(s) < n {
		n = len(s)
	}
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(b) < len(s):
		return -1
	case len(b) > len(s):
		return 1
	}
	return 0
}

// appendMergedMsgs appends the \x1f-joined sorted union of msgs (minus the
// delivered copy at index skip) and the pre-sorted rendered sends — i.e.
// exactly encodeConfig's message section for the successor.
func appendMergedMsgs(buf []byte, msgs []string, skip int, sendBuf []byte, offs [][2]int) []byte {
	mi, si := 0, 0
	first := true
	for mi < len(msgs) || si < len(offs) {
		if mi == skip {
			mi++
			continue
		}
		takeSend := false
		if mi >= len(msgs) {
			takeSend = true
		} else if si < len(offs) {
			sp := offs[si]
			takeSend = cmpBytesString(sendBuf[sp[0]:sp[1]], msgs[mi]) < 0
		}
		if !first {
			buf = append(buf, '\x1f')
		}
		first = false
		if takeSend {
			sp := offs[si]
			buf = append(buf, sendBuf[sp[0]:sp[1]]...)
			si++
		} else {
			buf = append(buf, msgs[mi]...)
			mi++
		}
	}
	return buf
}
