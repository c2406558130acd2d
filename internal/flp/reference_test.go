package flp

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
)

// This file holds the text reference of the configuration graph: the
// decimal text encoding flp used before the packed layout, a system that
// explores it with the protocols' transition functions written a second,
// independent way (fresh strings and slices instead of the append-style
// Protocol methods), the text permutation canon and the text POR relation,
// plus the renderer and packer between the two encodings. ExpandInto,
// PermutationCanonBytes and DeliveryIndependence are the production forms;
// these are what TestExpandIntoMatchesSteps, TestGraphsMatchTextReference
// and TestPermutationCanonBytesMatchesCanon hold them to. It also holds the
// packed n! permutation search that PermutationCanonBytes's refinement
// replaced, which TestPermutationCanonMatchesSearch and
// FuzzPermutationCanon hold it to.

// refProtocol is the string form of a Protocol's transition functions.
// InitialSends returns the messages p emits before receiving anything;
// Step returns p's new state and emitted messages on a delivery.
type refProtocol interface {
	InitialSends(p int, state string) []Send
	Step(p int, state string, from int, payload string) (string, []Send)
}

// envelope is one in-flight message of the text encoding.
type envelope struct {
	from, to int
	payload  string
}

func (e envelope) String() string {
	return strconv.Itoa(e.from) + ">" + strconv.Itoa(e.to) + ":" + e.payload
}

// wakeText is the text encoding's wake payload.
const wakeText = "\x00wake"

// encodeConfig is the text encoding: the crash mask in decimal, the process
// states joined by \x1e, then the sorted in-flight multiset joined by \x1f,
// the three sections separated by \x1d.
func encodeConfig(crashed int, states []string, flight []envelope) string {
	msgs := make([]string, len(flight))
	for i, e := range flight {
		msgs[i] = e.String()
	}
	sort.Strings(msgs)
	return strconv.Itoa(crashed) + "\x1d" + strings.Join(states, "\x1e") + "\x1d" + strings.Join(msgs, "\x1f")
}

func decodeConfig(c string) (crashed int, states []string, flight []envelope) {
	parts := strings.SplitN(c, "\x1d", 3)
	crashed, _ = strconv.Atoi(parts[0])
	states = strings.Split(parts[1], "\x1e")
	if parts[2] == "" {
		return crashed, states, nil
	}
	for _, m := range strings.Split(parts[2], "\x1f") {
		gt := strings.IndexByte(m, '>')
		colon := strings.IndexByte(m, ':')
		if gt < 0 || colon < gt {
			continue
		}
		from, _ := strconv.Atoi(m[:gt])
		to, _ := strconv.Atoi(m[gt+1 : colon])
		flight = append(flight, envelope{from: from, to: to, payload: m[colon+1:]})
	}
	return crashed, states, flight
}

// render writes a packed configuration in the text encoding, messages in
// record order (for n ≤ 10 that is the text encoding's sorted order).
func render(l *layout, c config) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(l.crashMask(c)))
	b.WriteByte('\x1d')
	for q := 0; q < l.n; q++ {
		if q > 0 {
			b.WriteByte('\x1e')
		}
		b.WriteString(l.state(c, q))
	}
	b.WriteByte('\x1d')
	for i := l.hdr; i < len(c); i += 2 {
		if i > l.hdr {
			b.WriteByte('\x1f')
		}
		payload := c[i+1 : i+2]
		if payload[0] == 0 {
			payload = wakeText
		}
		b.WriteString(envelope{from: int(c[i] >> 4), to: int(c[i] & 15), payload: payload}.String())
	}
	return b.String()
}

// pack is render's inverse: it reads the text encoding field by field,
// states at the layout's width and messages in the order given, and
// reports false for anything render cannot have written.
func pack(l *layout, t string) (config, bool) {
	num := func(s string) (int, bool) {
		v, err := strconv.Atoi(s)
		return v, err == nil && strconv.Itoa(v) == s
	}
	i := strings.IndexByte(t, '\x1d')
	if i < 0 {
		return "", false
	}
	mask, ok := num(t[:i])
	if !ok || mask >= 1<<l.n {
		return "", false
	}
	buf := l.appendCrash(nil, mask)
	t = t[i+1:]
	for q := 0; q < l.n; q++ {
		sep := byte('\x1e')
		if q == l.n-1 {
			sep = '\x1d'
		}
		if len(t) < l.w+1 || t[l.w] != sep {
			return "", false
		}
		buf = append(buf, t[:l.w]...)
		t = t[l.w+1:]
	}
	for len(t) > 0 {
		gt := strings.IndexByte(t, '>')
		colon := strings.IndexByte(t, ':')
		if gt < 0 || colon < gt {
			return "", false
		}
		from, okF := num(t[:gt])
		to, okT := num(t[gt+1 : colon])
		if !okF || !okT || from >= l.n || to >= l.n {
			return "", false
		}
		t = t[colon+1:]
		var pay byte
		switch {
		case strings.HasPrefix(t, wakeText) && from == to:
			t = t[len(wakeText):]
		case len(t) > 0 && t[0] != 0:
			pay, t = t[0], t[1:]
		default:
			return "", false
		}
		buf = append(buf, byte(from<<4|to), pay)
		if len(t) > 0 {
			if t[0] != '\x1f' || len(t) == 1 {
				return "", false
			}
			t = t[1:]
		}
	}
	return string(buf), true
}

// textSystem is the reference configuration graph over the text encoding.
type textSystem struct {
	p            Protocol
	inputVectors [][]int
	resilience   int
}

var _ core.System = (*textSystem)(nil)

// Init implements core.System.
func (s *textSystem) Init() []string {
	n := s.p.NumProcs()
	out := make([]string, 0, len(s.inputVectors))
	for _, in := range s.inputVectors {
		states := make([]string, n)
		flight := make([]envelope, 0, n)
		for p := 0; p < n; p++ {
			states[p] = s.p.Init(p, in[p])
			flight = append(flight, envelope{from: p, to: p, payload: wakeText})
		}
		out = append(out, encodeConfig(0, states, flight))
	}
	return out
}

// ExpandInto implements core.System by emitting Steps.
func (s *textSystem) ExpandInto(c string, x *engine.Ctx) {
	for _, st := range s.Steps(c) {
		x.Emit(st.To, st.Label, st.Actor)
	}
}

// Steps is the hand-written reference transition relation of the
// configuration graph: decode, dedup with a map, re-encode every successor,
// all over the protocol's string transition functions.
func (s *textSystem) Steps(c string) []core.Step {
	ref := s.p.(refProtocol)
	n := s.p.NumProcs()
	crashed, states, flight := decodeConfig(c)
	steps := make([]core.Step, 0, len(flight)+n)
	seen := map[string]bool{}
	for i, env := range flight {
		if crashed&(1<<uint(env.to)) != 0 {
			continue // receiver is dead; the message is never delivered
		}
		key := env.String()
		if seen[key] {
			continue // identical envelopes lead to identical successors
		}
		seen[key] = true
		var newState string
		var sends []Send
		if env.payload == wakeText && env.from == env.to {
			newState = states[env.to]
			sends = ref.InitialSends(env.to, newState)
		} else {
			newState, sends = ref.Step(env.to, states[env.to], env.from, env.payload)
		}
		newStates := make([]string, n)
		copy(newStates, states)
		newStates[env.to] = newState
		newFlight := make([]envelope, 0, len(flight)+len(sends)-1)
		newFlight = append(newFlight, flight[:i]...)
		newFlight = append(newFlight, flight[i+1:]...)
		for _, snd := range sends {
			newFlight = append(newFlight, envelope{from: env.to, to: snd.To, payload: snd.Payload})
		}
		steps = append(steps, core.Step{
			To:    encodeConfig(crashed, newStates, newFlight),
			Label: "deliver " + key,
			Actor: env.to,
		})
	}
	if countBits(crashed) < s.resilience {
		for p := 0; p < n; p++ {
			if crashed&(1<<uint(p)) != 0 {
				continue
			}
			steps = append(steps, core.Step{
				To:    encodeConfig(crashed|1<<uint(p), states, flight),
				Label: "crash p" + strconv.Itoa(p),
				Actor: core.EnvironmentActor,
			})
		}
	}
	return steps
}

// textPermuter is the string form of ProcessSymmetric.
type textPermuter interface {
	PermuteState(state string, perm []int) string
	PermutePayload(payload string, perm []int) string
}

// textPermutationCanon is the text encoding's process-permutation canon:
// decode, relabel the processes, re-encode, keep the least encoding.
func textPermutationCanon(p Protocol) func(string) string {
	ps := p.(textPermuter)
	n := p.NumProcs()
	perms := permutations(n)
	return func(c string) string {
		crashed, states, flight := decodeConfig(c)
		best := c
		for _, pi := range perms[1:] {
			newStates := make([]string, n)
			newCrashed := 0
			for q := 0; q < n; q++ {
				newStates[pi[q]] = ps.PermuteState(states[q], pi)
				if crashed&(1<<uint(q)) != 0 {
					newCrashed |= 1 << uint(pi[q])
				}
			}
			newFlight := make([]envelope, len(flight))
			for i, env := range flight {
				payload := env.payload
				if payload != wakeText {
					payload = ps.PermutePayload(payload, pi)
				}
				newFlight[i] = envelope{from: pi[env.from], to: pi[env.to], payload: payload}
			}
			if enc := encodeConfig(newCrashed, newStates, newFlight); enc < best {
				best = enc
			}
		}
		return best
	}
}

// PermuteState implements textPermuter.
func (w *waitProto) PermuteState(state string, perm []int) string {
	out := []byte(state)
	for j := 0; j < w.n; j++ {
		out[perm[j]] = state[j]
	}
	return string(out)
}

// PermutePayload implements textPermuter.
func (w *waitProto) PermutePayload(payload string, _ []int) string { return payload }

// textLocalState extracts process t's local state from a text
// configuration without decoding the rest.
func textLocalState(c string, t int) string {
	i := strings.IndexByte(c, '\x1d') + 1
	part := c[i:strings.LastIndexByte(c, '\x1d')]
	for ; t > 0; t-- {
		part = part[strings.IndexByte(part, '\x1e')+1:]
	}
	if j := strings.IndexByte(part, '\x1e'); j >= 0 {
		part = part[:j]
	}
	return part
}

// textMsgCount counts a text configuration's in-flight messages.
func textMsgCount(c string) int {
	flight := c[strings.LastIndexByte(c, '\x1d')+1:]
	if flight == "" {
		return 0
	}
	return strings.Count(flight, "\x1f") + 1
}

// textIndependence is DeliveryIndependence over the text encoding.
func textIndependence(p Protocol) func(string, engine.Action, engine.Action) bool {
	preserves := func(c string, d engine.Action) bool {
		before, bok := p.Decide(d.Actor, textLocalState(c, d.Actor))
		after, aok := p.Decide(d.Actor, textLocalState(d.To, d.Actor))
		return bok == aok && before == after
	}
	quiet := func(c string, d engine.Action) bool {
		return textMsgCount(d.To) == textMsgCount(c)-1
	}
	return func(c string, a, b engine.Action) bool {
		aCrash := a.Actor == core.EnvironmentActor
		bCrash := b.Actor == core.EnvironmentActor
		if aCrash && bCrash {
			return false
		}
		if aCrash || bCrash {
			crash, del := a, b
			if bCrash {
				crash, del = b, a
			}
			return crashTarget(crash.Label) != del.Actor
		}
		if a.Actor != b.Actor {
			return true
		}
		return quiet(c, a) && quiet(c, b) && preserves(c, a) && preserves(c, b) &&
			sender(a.Label) != sender(b.Label)
	}
}

// textVisibility is DecisionVisibility over the text encoding.
func textVisibility(p Protocol) func(string, engine.Action) bool {
	return func(c string, a engine.Action) bool {
		if a.Actor == core.EnvironmentActor {
			return false
		}
		before, bok := p.Decide(a.Actor, textLocalState(c, a.Actor))
		after, aok := p.Decide(a.Actor, textLocalState(a.To, a.Actor))
		return bok != aok || before != after
	}
}

// InitialSends implements refProtocol: broadcast own value.
func (w *waitProto) InitialSends(p int, state string) []Send {
	out := make([]Send, 0, w.n-1)
	for q := 0; q < w.n; q++ {
		if q != p {
			out = append(out, Send{To: q, Payload: string([]byte{state[p]})})
		}
	}
	return out
}

// Step implements refProtocol. The two early returns cover deliveries
// that cannot change the state: every reachable state is a fixed point of
// maybeDecide (Init and Step both apply it before returning), so an
// unchanged value vector means an unchanged state.
func (w *waitProto) Step(_ int, state string, from int, payload string) (string, []Send) {
	if payload != "0" && payload != "1" {
		return state, nil // junk payload: absorbed without recording
	}
	if state[from] == payload[0] {
		return state, nil // redelivery of an already-recorded value
	}
	vals := []byte(state[:w.n])
	vals[from] = payload[0]
	return w.maybeDecide(string(vals) + state[w.n:]), nil
}

// InitialSends implements refProtocol: the test protocols send nothing.
func (constProto) InitialSends(int, string) []Send { return nil }

// Step implements refProtocol: the test protocols absorb every delivery.
func (constProto) Step(_ int, state string, _ int, _ string) (string, []Send) { return state, nil }

// InitialSends implements refProtocol.
func (flipProto) InitialSends(int, string) []Send { return nil }

// Step implements refProtocol.
func (flipProto) Step(_ int, state string, _ int, _ string) (string, []Send) { return state, nil }

// InitialSends implements refProtocol: send own value to the ring successor.
func (a *adoptSwap) InitialSends(p int, state string) []Send {
	return []Send{{To: (p + 1) % a.n, Payload: state[:1]}}
}

// Step implements refProtocol.
func (a *adoptSwap) Step(p int, state string, _ int, payload string) (string, []Send) {
	if state[1] != '-' || (payload != "0" && payload != "1") {
		return state, nil // decided or junk: absorb
	}
	if payload == state[:1] {
		return state[:1] + payload, nil // match: decide
	}
	// Mismatch: adopt and forward around the ring.
	return payload + "-", []Send{{To: (p + 1) % a.n, Payload: payload}}
}

// bytePermuter is the opaque, per-state form of ProcessSymmetric that the
// n! search relabels through: AppendPermutedState appends state with every
// embedded process index j rewritten to perm[j], at the same width;
// AppendPermutedPayload does the same for a one-byte message payload.
type bytePermuter interface {
	AppendPermutedState(dst, state []byte, perm []int) []byte
	AppendPermutedPayload(dst, payload []byte, perm []int) []byte
}

// AppendPermutedState implements bytePermuter: the collected-values prefix
// is indexed by process, so slot j moves to slot perm[j]; the decision
// suffix is index-free.
func (w *waitProto) AppendPermutedState(dst, state []byte, perm []int) []byte {
	off := len(dst)
	dst = append(dst, state...)
	for j := 0; j < w.n; j++ {
		dst[off+perm[j]] = state[j]
	}
	return dst
}

// AppendPermutedPayload implements bytePermuter; payloads are bare value
// characters.
func (w *waitProto) AppendPermutedPayload(dst, payload []byte, _ []int) []byte {
	return append(dst, payload...)
}

// permutations returns all permutations of [0, n) in a deterministic
// order, identity first.
func permutations(n int) [][]int {
	cur := make([]int, n)
	for i := range cur {
		cur[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := k; i < n; i++ {
			cur[k], cur[i] = cur[i], cur[k]
			rec(k + 1)
			cur[k], cur[i] = cur[i], cur[k]
		}
	}
	rec(0)
	return out
}

// relabel appends the packed configuration c relabeled by pi: process q
// becomes pi[q] in the crash mask, its state moves to slot pi[q] and is
// rewritten by bytePermuter, and every message record is rewritten and
// the records re-sorted.
func relabel(dst []byte, l *layout, ps bytePermuter, c config, pi []int) []byte {
	crashed, newCrashed := l.crashMask(c), 0
	inv := make([]int, l.n)
	for q, r := range pi {
		inv[r] = q
		if crashed&(1<<q) != 0 {
			newCrashed |= 1 << r
		}
	}
	dst = l.appendCrash(dst, newCrashed)
	for r := 0; r < l.n; r++ {
		start := len(dst)
		dst = ps.AppendPermutedState(dst, []byte(l.state(c, inv[r])), pi)
		if len(dst) != start+l.w {
			panic(fmt.Sprintf("a permuted state of %q changed width", c))
		}
	}
	recs := make([]uint16, 0, (len(c)-l.hdr)/2)
	for i := l.hdr; i < len(c); i += 2 {
		ft, py := c[i], c[i+1]
		if py != 0 {
			pay := ps.AppendPermutedPayload(nil, []byte{py}, pi)
			if len(pay) != 1 || pay[0] == 0 {
				panic(fmt.Sprintf("permuted payload %q is not one non-zero byte", pay))
			}
			py = pay[0]
		}
		recs = append(recs, uint16(pi[ft>>4]<<4|pi[ft&15])<<8|uint16(py))
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i] < recs[j] })
	for _, r := range recs {
		dst = append(dst, byte(r>>8), byte(r))
	}
	return dst
}

// searchPermutationCanonBytes is the n! search, a per-worker factory of
// byte canonicalizers: every relabeling of the processes is rendered
// through bytePermuter and the least is kept. A candidate whose crash
// field and states already sort after the best's is dropped before its
// records are rendered.
func searchPermutationCanonBytes(p Protocol) func() engine.BytesCanonicalizer {
	ps := p.(bytePermuter)
	l := mustLayout(p)
	n := l.n
	perms := permutations(n)
	// invs[k][r] is the process whose state lands in slot r under perms[k].
	invs := make([][]int, len(perms))
	for k, pi := range perms {
		inv := make([]int, n)
		for q, r := range pi {
			inv[r] = q
		}
		invs[k] = inv
	}
	return func() engine.BytesCanonicalizer {
		var cand, pay []byte
		var recs []uint16
		return func(dst, src []byte) []byte {
			c := string(src)
			if !l.valid(c) {
				panic(fmt.Sprintf("%q is not a valid configuration", c))
			}
			best := append(dst[:0], src...)
			crashed := l.crashMask(c)
			for k, pi := range perms[1:] { // perms[0] is the identity
				inv := invs[k+1]
				newCrashed := 0
				for q := 0; q < n; q++ {
					if crashed&(1<<q) != 0 {
						newCrashed |= 1 << pi[q]
					}
				}
				cand = l.appendCrash(cand[:0], newCrashed)
				cmp := bytes.Compare(cand, best[:l.cw])
				for r := 0; r < n && cmp <= 0; r++ {
					o, start := l.cw+inv[r]*l.w, len(cand)
					cand = ps.AppendPermutedState(cand, src[o:o+l.w], pi)
					if len(cand) != start+l.w {
						panic(fmt.Sprintf("a permuted state of %q changed width", c))
					}
					if cmp == 0 {
						cmp = bytes.Compare(cand[start:], best[start:start+l.w])
					}
				}
				if cmp > 0 {
					continue
				}
				recs = recs[:0]
				for i := l.hdr; i < len(src); i += 2 {
					ft, py := src[i], src[i+1]
					if py != 0 {
						pay = ps.AppendPermutedPayload(pay[:0], src[i+1:i+2], pi)
						if len(pay) != 1 || pay[0] == 0 {
							panic(fmt.Sprintf("permuted payload %q is not one non-zero byte", pay))
						}
						py = pay[0]
					}
					r := uint16(pi[ft>>4]<<4|pi[ft&15])<<8 | uint16(py)
					j := len(recs)
					recs = append(recs, r)
					for ; j > 0 && recs[j-1] > r; j-- {
						recs[j] = recs[j-1]
					}
					recs[j] = r
				}
				for j := 0; cmp == 0 && j < len(recs); j++ {
					b := uint16(best[l.hdr+2*j])<<8 | uint16(best[l.hdr+2*j+1])
					switch {
					case recs[j] < b:
						cmp = -1
					case recs[j] > b:
						cmp = 1
					}
				}
				if cmp < 0 {
					best = append(best[:0], cand...)
					for _, r := range recs {
						best = append(best, byte(r>>8), byte(r))
					}
				}
			}
			return best
		}
	}
}
