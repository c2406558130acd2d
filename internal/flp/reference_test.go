package flp

import (
	"strconv"

	"repro/internal/core"
)

// This file holds the reference form of the configuration graph's
// transition relation: the protocols' transition functions written a
// second, independent way (fresh strings and slices instead of the
// append-style Protocol methods), and the allocating Steps that runs on
// them. ExpandInto is the one production relation; these are what
// TestExpandIntoMatchesSteps compares it against.

// refProtocol is the string form of a Protocol's transition functions.
// InitialSends returns the messages p emits before receiving anything;
// Step returns p's new state and emitted messages on a delivery.
type refProtocol interface {
	InitialSends(p int, state string) []Send
	Step(p int, state string, from int, payload string) (string, []Send)
}

// Steps is the hand-written reference transition relation of the
// configuration graph: decode, dedup with a map, re-encode every successor,
// all over the protocol's string transition functions.
// TestExpandIntoMatchesSteps holds ExpandInto to it.
func (s *system) Steps(c config) []core.Step[config] {
	ref := s.p.(refProtocol)
	n := s.p.NumProcs()
	crashed, states, flight := decodeConfig(c)
	steps := make([]core.Step[config], 0, len(flight)+n)
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
		if env.payload == wakePayload && env.from == env.to {
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
		steps = append(steps, core.Step[config]{
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
			steps = append(steps, core.Step[config]{
				To:    encodeConfig(crashed|1<<uint(p), states, flight),
				Label: "crash p" + strconv.Itoa(p),
				Actor: core.EnvironmentActor,
			})
		}
	}
	return steps
}

// InitialSends implements refProtocol: broadcast own value.
func (w *waitProto) InitialSends(p int, state string) []Send {
	out := make([]Send, 0, w.n-1)
	for q := 0; q < w.n; q++ {
		if q != p {
			out = append(out, Send{To: q, Payload: string(state[p])})
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
