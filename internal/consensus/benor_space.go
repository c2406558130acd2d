package consensus

import (
	"fmt"
	"strconv"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/engine"
)

// BenOrSpace is Ben-Or's randomized binary consensus (§2.2.4) recast as a
// finite explorable state space, bounded to a fixed number of phases. It
// is the reference model for the live Ben-Or runtime workload: the
// single-threaded executable in internal/async covers one schedule per
// seed, while this space covers *every* delivery schedule and every coin
// outcome at once, with coin flips encoded as nondeterministic branches
// in the delivery labels.
//
// Protocol (per process): each phase has a report wave (R) and a proposal
// wave (P). A process entering phase ph broadcasts R(ph, value); on
// collecting n−t phase-ph reports it proposes the majority value (2c > n)
// or ⊥ and broadcasts P(ph, prop); on collecting n−t phase-ph proposals
// it decides v if ≥ t+1 carry the same v ≠ ⊥, adopts a proposed v ≠ ⊥ if
// one exists, and otherwise flips a fair coin — then enters phase ph+1.
// After Phases phases the process halts (the bound that makes the space
// finite; unbounded Ben-Or terminates only with probability 1, which is
// exactly how it circumvents FLP).
//
// A configuration packs into 4n + 4·n·Phases bytes: per process
// [value, phase, stage, decided] (phase Phases+1 = halted, decided 0xFF =
// undecided), then per (sender, phase, wave) a [sentValue, deliveredMask]
// pair (sentValue 0xFF = unsent, benOrBot = ⊥; the mask has a bit per
// receiver, with the sender's own bit set at send time). Steps deliver
// one sent-but-undelivered message to one still-running receiver; the
// receiver's entire quorum-advance cascade — possibly several stages,
// possibly several coin flips — runs inside the delivery edge, and the
// coin outcomes are spelled out in the label ("coins=01"), so a live
// trace with concrete flips picks out exactly one branch.
type BenOrSpace struct {
	// Procs is n (2..8 so a delivery mask fits a byte).
	Procs int
	// MaxFaults is t, with 2t < n (the Ben-Or resilience bound).
	MaxFaults int
	// Phases bounds the explored phases (1..8).
	Phases int
	// Inputs are the initial binary values, one per process.
	Inputs []int
}

// Wave kinds and the ⊥ proposal encoding.
const (
	benOrKindR = 0
	benOrKindP = 1
	benOrBot   = 2    // the ⊥ proposal value
	benOrNone  = 0xFF // unsent message / undecided process
)

// NewBenOrSpace validates the parameters.
func NewBenOrSpace(n, t, phases int, inputs []int) (*BenOrSpace, error) {
	if n < 2 || n > 8 {
		return nil, fmt.Errorf("consensus: BenOrSpace needs 2..8 processes, got %d", n)
	}
	if t < 0 || 2*t >= n {
		return nil, fmt.Errorf("consensus: BenOrSpace needs 0 <= 2t < n, got t=%d n=%d", t, n)
	}
	if phases < 1 || phases > 8 {
		return nil, fmt.Errorf("consensus: BenOrSpace needs 1..8 phases, got %d", phases)
	}
	if len(inputs) != n {
		return nil, fmt.Errorf("consensus: BenOrSpace needs %d inputs, got %d", n, len(inputs))
	}
	for p, v := range inputs {
		if v != 0 && v != 1 {
			return nil, fmt.Errorf("consensus: input %d of process %d is not binary", v, p)
		}
	}
	return &BenOrSpace{Procs: n, MaxFaults: t, Phases: phases, Inputs: append([]int(nil), inputs...)}, nil
}

// Byte layout helpers.
func (b *BenOrSpace) procOff(p int) int { return 4 * p }
func (b *BenOrSpace) msgOff(s, ph, kind int) int {
	return 4*b.Procs + 2*((s*b.Phases+(ph-1))*2+kind)
}
func (b *BenOrSpace) stateLen() int { return 4*b.Procs + 4*b.Procs*b.Phases }

// System returns the exploration system over packed configurations.
func (b *BenOrSpace) System() core.System[string] { return benOrSystem{b} }

// Decision decodes process p's decision from a state (-1 if undecided).
func (b *BenOrSpace) Decision(st string, p int) int {
	if d := st[b.procOff(p)+3]; d != benOrNone {
		return int(d)
	}
	return -1
}

// Phase decodes process p's current phase (Phases+1 once halted).
func (b *BenOrSpace) Phase(st string, p int) int { return int(st[b.procOff(p)+1]) }

// CheckAgreement verifies Ben-Or's safety on the whole explored graph: no
// reachable state holds two processes decided on different values.
func (b *BenOrSpace) CheckAgreement(g *core.Graph[string]) error {
	if _, trace, ok := g.CheckInvariant(func(st string) bool {
		seen := -1
		for p := 0; p < b.Procs; p++ {
			d := b.Decision(st, p)
			if d < 0 {
				continue
			}
			if seen >= 0 && d != seen {
				return false
			}
			seen = d
		}
		return true
	}); !ok {
		return fmt.Errorf("consensus: ben-or agreement violated:\n%s", trace)
	}
	return nil
}

// benOrPropose applies the stage-0 rule: propose the strict majority of
// the delivered reports, ⊥ if none.
func benOrPropose(c0, c1, n int) byte {
	switch {
	case 2*c0 > n:
		return 0
	case 2*c1 > n:
		return 1
	default:
		return benOrBot
	}
}

// benOrResolve applies the stage-1 rule to delivered proposal counts
// (non-⊥ proposals within a phase all carry the same value, since two
// strict majorities cannot coexist). coin reports that the caller must
// flip for the next value.
func benOrResolve(c0, c1, t int) (decide bool, value byte, coin bool) {
	switch {
	case c0 > 0:
		return c0 >= t+1, 0, false
	case c1 > 0:
		return c1 >= t+1, 1, false
	default:
		return false, 0, true
	}
}

// benOrView abstracts one process's knowledge so the quorum-advance loop
// is shared verbatim between the explored model (reading the packed
// global state) and the live runtime processes (reading their private
// tables) — the two sides cannot drift.
type benOrView interface {
	// header returns the process's [value, phase, stage, decided] block.
	header() (value, phase, stage, decided byte)
	setHeader(value, phase, stage, decided byte)
	// counts tallies the wave-kind messages of one phase delivered to this
	// process (its own included), split by value (cq counts ⊥).
	counts(ph, kind int) (c0, c1, cq int)
	// send records this process's own (ph, kind, val) message as sent and
	// self-delivered; the model marks the table, the live process
	// broadcasts.
	send(ph, kind int, val byte)
}

// benOrAdvance runs the quorum cascade for one process until a quorum is
// missing or the phase bound is passed. flip supplies coin outcomes (the
// model enumerates both; the live process uses its seeded RNG).
func benOrAdvance(v benOrView, n, t, phases int, flip func() byte) {
	for {
		value, phase, stage, decided := v.header()
		if int(phase) > phases {
			return
		}
		if stage == 0 {
			c0, c1, _ := v.counts(int(phase), benOrKindR)
			if c0+c1 < n-t {
				return
			}
			v.setHeader(value, phase, 1, decided)
			v.send(int(phase), benOrKindP, benOrPropose(c0, c1, n))
			continue
		}
		c0, c1, cq := v.counts(int(phase), benOrKindP)
		if c0+c1+cq < n-t {
			return
		}
		dec, val, coin := benOrResolve(c0, c1, t)
		if coin {
			val = flip()
		}
		if dec && decided == benOrNone {
			decided = val
		}
		phase++
		v.setHeader(val, phase, 0, decided)
		if int(phase) <= phases {
			v.send(int(phase), benOrKindR, val)
		}
	}
}

// appendBenOrLabel appends the delivery edge label shared by model and
// live runs: wave, phase, value, route, and the receiver's coin outcomes,
// "deliver <R|P><ph> v<val|?> p<from>->p<to>[ coins=<bits>]".
func appendBenOrLabel(dst []byte, kind, ph int, val byte, from, to int, coins []byte) []byte {
	dst = append(dst, "deliver "...)
	if kind == benOrKindP {
		dst = append(dst, 'P')
	} else {
		dst = append(dst, 'R')
	}
	dst = strconv.AppendInt(dst, int64(ph), 10)
	dst = append(dst, " v"...)
	if val == benOrBot {
		dst = append(dst, '?')
	} else {
		dst = utf8.AppendRune(dst, rune('0'+val))
	}
	dst = append(dst, " p"...)
	dst = strconv.AppendInt(dst, int64(from), 10)
	dst = append(dst, "->p"...)
	dst = strconv.AppendInt(dst, int64(to), 10)
	if len(coins) > 0 {
		dst = append(dst, " coins="...)
		for _, c := range coins {
			dst = append(dst, '0'+c)
		}
	}
	return dst
}

// benOrSystem adapts BenOrSpace to core.System.
type benOrSystem struct{ b *BenOrSpace }

func (s benOrSystem) Init() []string {
	b := s.b
	st := make([]byte, b.stateLen())
	for i := 4 * b.Procs; i < len(st); i += 2 {
		st[i] = benOrNone
	}
	for p := 0; p < b.Procs; p++ {
		o := b.procOff(p)
		st[o], st[o+1], st[o+2], st[o+3] = byte(b.Inputs[p]), 1, 0, benOrNone
		m := b.msgOff(p, 1, benOrKindR)
		st[m], st[m+1] = byte(b.Inputs[p]), 1<<uint(p)
	}
	return []string{string(st)}
}

func (s benOrSystem) ExpandInto(st string, x *engine.Ctx[string]) {
	b := s.b
	for snd := 0; snd < b.Procs; snd++ {
		for ph := 1; ph <= b.Phases; ph++ {
			for kind := 0; kind < 2; kind++ {
				m := b.msgOff(snd, ph, kind)
				val, mask := st[m], st[m+1]
				if val == benOrNone {
					continue
				}
				for q := 0; q < b.Procs; q++ {
					if mask&(1<<uint(q)) != 0 {
						continue
					}
					if int(st[b.procOff(q)+1]) > b.Phases {
						continue // halted receivers no longer consume
					}
					b.deliveries(st, snd, ph, kind, val, q, x)
				}
			}
		}
	}
}

// deliveries emits the branches of delivering (snd, ph, kind, val) to q:
// one successor per coin-outcome sequence of q's advance cascade.
func (b *BenOrSpace) deliveries(st string, snd, ph, kind int, val byte, q int, x *engine.Ctx[string]) {
	var expand func(tape []byte)
	expand = func(tape []byte) {
		next := []byte(st)
		next[b.msgOff(snd, ph, kind)+1] |= 1 << uint(q)
		v := &benOrModelView{b: b, st: next, p: q}
		pos, starved := 0, false
		benOrAdvance(v, b.Procs, b.MaxFaults, b.Phases, func() byte {
			if pos < len(tape) {
				c := tape[pos]
				pos++
				return c
			}
			starved = true
			return 0
		})
		if starved {
			expand(append(append([]byte(nil), tape...), 0))
			expand(append(append([]byte(nil), tape...), 1))
			return
		}
		x.Scratch = appendBenOrLabel(x.Scratch[:0], kind, ph, val, snd, q, tape)
		x.Emit(string(next), x.Label(x.Scratch), q)
	}
	expand(nil)
}

// benOrModelView implements benOrView over the packed global state.
type benOrModelView struct {
	b  *BenOrSpace
	st []byte
	p  int
}

func (v *benOrModelView) header() (byte, byte, byte, byte) {
	o := v.b.procOff(v.p)
	return v.st[o], v.st[o+1], v.st[o+2], v.st[o+3]
}

func (v *benOrModelView) setHeader(value, phase, stage, decided byte) {
	o := v.b.procOff(v.p)
	v.st[o], v.st[o+1], v.st[o+2], v.st[o+3] = value, phase, stage, decided
}

func (v *benOrModelView) counts(ph, kind int) (c0, c1, cq int) {
	for s := 0; s < v.b.Procs; s++ {
		m := v.b.msgOff(s, ph, kind)
		if v.st[m] == benOrNone || v.st[m+1]&(1<<uint(v.p)) == 0 {
			continue
		}
		switch v.st[m] {
		case 0:
			c0++
		case 1:
			c1++
		default:
			cq++
		}
	}
	return
}

func (v *benOrModelView) send(ph, kind int, val byte) {
	m := v.b.msgOff(v.p, ph, kind)
	v.st[m], v.st[m+1] = val, 1<<uint(v.p)
}
