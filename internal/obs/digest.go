package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strconv"
	"sync"
)

// Digest folds the deterministic skeleton of an event stream — level
// events, truncation, and final run_end totals — into a short hex
// fingerprint. Two runs of the same system under the same mode produce
// the same digest at any worker count and any snapshot period: the hashed
// fields are exactly the worker-count-invariant counters the engine's
// determinism contract covers, and timer-driven snapshot events (plus
// timing fields like Elapsed and WorkerSteps) are excluded.
//
// That makes digests replay-comparable across machines: when two modes of
// engine.Differential diverge, their digests name which JSONL traces to
// diff, and a digest mismatch across worker counts within one mode is
// itself a determinism violation.
type Digest struct {
	mu sync.Mutex
	h  hash.Hash
	n  int
	// block holds the rendered lines not yet hashed. Publish appends to
	// it and hands it to h once it reaches digestBlock bytes, so sha256
	// gets few large writes rather than one per event; Sum flushes it.
	block []byte
}

// digestBlock is the size at which Publish hands its pending lines to
// the hash.
const digestBlock = 8 << 10

// NewDigest returns an empty digest; it implements Sink.
func NewDigest() *Digest {
	return &Digest{h: sha256.New()}
}

// DigestLine renders ev's contribution to the trace digest, or ("",
// false) for events the digest ignores (timer snapshots, manifest lines,
// payload-less events). The rendered line names exactly the
// worker-count-invariant fields — nothing timing- or scheduling-dependent
// — which is why `hundred trace-diff` can compare two traces line-by-line
// to localize the first structural divergence behind a digest mismatch.
func DigestLine(ev Event) (string, bool) {
	line, ok := AppendDigestLine(nil, ev)
	return string(line), ok
}

// AppendDigestLine appends DigestLine(ev) to dst. The rt_event line, one
// per scheduled live action, is built with strconv so that a warmed
// buffer takes no allocation; it is byte-identical to the format
// "rt_event %d %s actor=%d from=%d to=%d label=%q\n". The once-per-run
// kinds keep their format strings.
func AppendDigestLine(dst []byte, ev Event) ([]byte, bool) {
	switch ev.Kind {
	case KindRunStart:
		// Workers is scheduling, not structure; hash only the mode shape.
		if c := ev.Config; c != nil {
			return fmt.Appendf(dst, "start mode=%s max=%d inits=%d\n", c.Mode(), c.MaxStates, c.Inits), true
		}
	case KindLevel, KindTruncated, KindRunEnd:
		if s := ev.Snapshot; s != nil {
			return fmt.Appendf(dst, "%s states=%d edges=%d depth=%d frontier=%d peak=%d exp=%d dedup=%d canon=%d raw=%d ample=%d defer=%d trunc=%v\n",
				ev.Kind, s.States, s.Edges, s.Depth, s.Frontier, s.PeakFrontier,
				s.Expansions, s.DedupHits, s.CanonHits, s.RawStates,
				s.AmpleStates, s.DeferredActions, s.Truncated), true
		}
	case KindRTStart:
		// Every config field shapes the adversary's RNG stream, so all of
		// them are structure.
		if c := ev.RTConfig; c != nil {
			return fmt.Appendf(dst, "rt_start workload=%s procs=%d seed=%d max=%d batch=%d drop=%g dup=%g delay=%d crash=%g restart=%d\n",
				c.Workload, c.Procs, c.Seed, c.MaxEvents, c.Batch,
				c.Drop, c.Dup, c.Delay, c.Crash, c.RestartAfter), true
		}
	case KindRTEvent:
		// The whole rt_event stream is deterministic under a fixed seed, so
		// every field folds in — this is what makes runtime digests the
		// replay-identity check at any GOMAXPROCS.
		if e := ev.RT; e != nil {
			dst = append(dst, "rt_event "...)
			dst = strconv.AppendInt(dst, int64(e.Event), 10)
			dst = append(dst, ' ')
			dst = append(dst, e.Kind...)
			dst = append(dst, " actor="...)
			dst = strconv.AppendInt(dst, int64(e.Actor), 10)
			dst = append(dst, " from="...)
			dst = strconv.AppendInt(dst, int64(e.From), 10)
			dst = append(dst, " to="...)
			dst = strconv.AppendInt(dst, int64(e.To), 10)
			dst = append(dst, " label="...)
			dst = appendQuote(dst, e.Label)
			return append(dst, '\n'), true
		}
	case KindRTEnd:
		if s := ev.RTSummary; s != nil {
			return fmt.Appendf(dst, "rt_end events=%d deliver=%d local=%d drop=%d dup=%d crash=%d restart=%d pending=%d halted=%d stopped=%v quiesced=%v stalled=%v budget=%v\n",
				s.Events, s.Deliveries, s.LocalSteps, s.Drops, s.Dups,
				s.Crashes, s.Restarts, s.Pending, s.Halted,
				s.Stopped, s.Quiesced, s.Stalled, s.Budget), true
		}
	}
	return dst, false
}

// appendQuote appends s quoted as %q writes it. A label of printable
// ASCII with no '"' or '\', which is every label the live workloads
// produce, needs no escape, so it is copied between quotes without
// strconv.AppendQuote's per-rune scan.
func appendQuote(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < ' ' || b > '~' || b == '"' || b == '\\' {
			return strconv.AppendQuote(dst, s)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// Publish implements Sink, folding in the deterministic events. The line
// is rendered onto the pending block, under the digest's lock.
func (d *Digest) Publish(ev Event) {
	d.mu.Lock()
	defer d.mu.Unlock()
	block, ok := AppendDigestLine(d.block, ev)
	if !ok {
		return
	}
	d.n++
	d.block = block
	if len(block) >= digestBlock {
		d.flush()
	}
}

// flush hashes the pending block. The caller holds d.mu.
func (d *Digest) flush() {
	d.h.Write(d.block)
	d.block = d.block[:0]
}

// Events reports how many events have been folded in.
func (d *Digest) Events() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}

// Sum returns the 16-hex-digit digest of the events folded in so far.
func (d *Digest) Sum() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.flush()
	sum := d.h.Sum(nil)
	return hex.EncodeToString(sum[:8])
}
