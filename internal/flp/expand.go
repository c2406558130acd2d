package flp

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/engine"
)

// This file is the configuration graph's transition relation: ExpandInto
// reads states and message records at their fixed offsets (see layout) and
// writes each successor into the worker's scratch buffer, with no parse and
// no per-successor allocation. A configuration the layout cannot hold was
// not produced by this system, and ExpandInto panics naming it before it
// emits anything. The relation is pinned three ways: TestExpandIntoMatchesSteps
// and TestGraphsMatchTextReference (against the text-encoded reference
// system over the protocols' independent string transition functions),
// engine.Differential in the package tests, and Options.VerifyAliasing.
//
// Contract recap (engine.Ctx): the bytes passed to EmitBytes are consumed
// before the call returns, and nothing emitted may be retained across
// expansions. The only state that outlives one call is the label cache.

// expandScratch is the per-worker scratch of the expansion, carried in
// Ctx.Sys.
type expandScratch struct {
	recs     []uint16 // the delivery's new sends as records, sorted
	sends    []Send   // reusable send slice for the Protocol calls
	stateBuf []byte   // successor local-state render buffer
	// deliver caches the label of each delivery, by record byte and then
	// payload; crash caches "crash pN". A label depends on the record
	// alone, so the cache holds for any protocol.
	deliver [256]*[256]string
	crash   [maxProcs]string
}

var _ core.System = (*system)(nil)

// ExpandInto implements core.System: deliveries in record order (one per
// distinct record whose receiver is alive), then — while the crash budget
// lasts — crashes p0..pn-1.
func (s *system) ExpandInto(c config, x *engine.Ctx) {
	sc, _ := x.Sys.(*expandScratch)
	if sc == nil {
		sc = &expandScratch{}
		x.Sys = sc
	}
	l := s.lay
	if !l.valid(c) {
		notProduced(c)
	}
	crashed := l.crashMask(c)
	for i := l.hdr; i < len(c); i += 2 {
		if i > l.hdr && c[i] == c[i-2] && c[i+1] == c[i-1] {
			continue // identical envelopes lead to identical successors
		}
		from, to := int(c[i]>>4), int(c[i]&15)
		if crashed&(1<<to) != 0 {
			continue // receiver is dead; the message is never delivered
		}
		st := l.state(c, to)
		if c[i+1] == 0 { // the wake message
			sc.stateBuf = append(sc.stateBuf[:0], st...)
			sc.sends = s.p.AppendInitialSends(to, st, sc.sends[:0])
		} else {
			sc.stateBuf, sc.sends = s.p.AppendStep(sc.stateBuf[:0], to, st, from, c[i+1:i+2], sc.sends[:0])
		}
		if len(sc.stateBuf) != l.w {
			s.contractBroken(c, fmt.Sprintf("a %d-byte successor state of process %d, not %d", len(sc.stateBuf), to, l.w))
		}
		sc.recs = sc.recs[:0]
		for _, snd := range sc.sends {
			if snd.To < 0 || snd.To >= l.n || len(snd.Payload) != 1 || snd.Payload[0] == 0 {
				s.contractBroken(c, fmt.Sprintf("a send %+v from process %d", snd, to))
			}
			r := uint16(to<<4|snd.To)<<8 | uint16(snd.Payload[0])
			k := len(sc.recs)
			sc.recs = append(sc.recs, r)
			for ; k > 0 && sc.recs[k-1] > r; k-- {
				sc.recs[k] = sc.recs[k-1]
			}
			sc.recs[k] = r
		}

		buf := append(x.Scratch[:0], c[:l.hdr]...)
		copy(buf[l.cw+to*l.w:], sc.stateBuf)
		recs := sc.recs
		buf, recs = mergeRecords(buf, c[l.hdr:i], recs)
		buf, recs = mergeRecords(buf, c[i+2:], recs)
		for _, r := range recs {
			buf = append(buf, byte(r>>8), byte(r))
		}
		x.Scratch = buf
		x.EmitBytes(buf, sc.deliverLabel(c[i], c[i+1]), to)
	}

	if countBits(crashed) < s.resilience {
		for p := 0; p < l.n; p++ {
			if crashed&(1<<p) != 0 {
				continue
			}
			// A crash changes only the crash field.
			buf := l.appendCrash(x.Scratch[:0], crashed|1<<p)
			buf = append(buf, c[l.cw:]...)
			x.Scratch = buf
			if sc.crash[p] == "" {
				sc.crash[p] = "crash p" + strconv.Itoa(p)
			}
			x.EmitBytes(buf, sc.crash[p], core.EnvironmentActor)
		}
	}
}

// mergeRecords appends the sorted record run seg merged with the sorted
// records recs, and returns the records of recs that sort after all of seg.
func mergeRecords(buf []byte, seg string, recs []uint16) ([]byte, []uint16) {
	for len(recs) > 0 {
		k := 0
		for k < len(seg) && uint16(seg[k])<<8|uint16(seg[k+1]) <= recs[0] {
			k += 2
		}
		if k == len(seg) {
			break
		}
		buf = append(buf, seg[:k]...)
		buf = append(buf, byte(recs[0]>>8), byte(recs[0]))
		seg, recs = seg[k:], recs[1:]
	}
	return append(buf, seg...), recs
}

// deliverLabel returns the cached label "deliver from>to:payload" of the
// record (ft, pay), with the wake payload written "\x00wake" as the text
// encoding wrote it.
func (sc *expandScratch) deliverLabel(ft, pay byte) string {
	row := sc.deliver[ft]
	if row == nil {
		row = new([256]string)
		sc.deliver[ft] = row
	}
	if row[pay] == "" {
		payload := string([]byte{pay})
		if pay == 0 {
			payload = "\x00wake"
		}
		row[pay] = "deliver " + strconv.Itoa(int(ft>>4)) + ">" + strconv.Itoa(int(ft&15)) + ":" + payload
	}
	return row[pay]
}

// notProduced rejects a configuration the layout cannot hold: this system
// never renders one.
func notProduced(c config) {
	panic(fmt.Sprintf("flp: configuration %q was not produced by this system", c))
}

// contractBroken rejects an expansion of c in which the protocol broke the
// Protocol contract.
func (s *system) contractBroken(c config, what string) {
	panic(fmt.Sprintf("flp: protocol %s broke the Protocol contract expanding %q: %s", s.p.Name(), c, what))
}
