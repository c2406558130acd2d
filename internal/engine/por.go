package engine

import (
	"errors"
	"fmt"
	"sort"
)

// Action is one transition out of a state, as emitted by ExpandFunc: the
// successor state together with the label/actor pair that identifies the
// event. Independence relations and the VerifyPOR falsifier both speak in
// Actions; To is the raw successor (pre-canonicalization), because
// independence is a property of the system's transition relation, not of
// the symmetry quotient layered on top of it.
type Action struct {
	To    string
	Label string
	Actor int
}

// Independence declares when two actions enabled at the same state commute.
// When a relation is supplied via Options.Independent, the engine performs
// ample-set partial-order reduction: at each state it partitions the enabled
// actions into dependence-connected components and, when a proper-subset
// component also satisfies the cycle proviso, explores only that component —
// the deferred actions are guaranteed (by the contract below) to remain
// enabled and to lead to the same states along the explored orders.
//
// indep(s, a, b) may be called for any two distinct actions a, b enabled at
// a reachable state s, in either order; it must be symmetric, concurrency
// safe, and a pure function of its arguments. Returning true asserts the
// full commuting-diamond package:
//
//   - forward diamond: from s, taking a then b's event reaches the same
//     state as taking b then a's event (and both second steps exist, i.e.
//     neither action disables the other);
//   - persistence: no action dependent on a ∈ ample can be reached from s
//     without first taking an action of the ample set (equivalently: events
//     independent of the ample set cannot, over any number of steps outside
//     it, enable an event dependent on it);
//   - invisibility: a and b do not toggle any predicate the downstream
//     analysis checks (visible actions must be declared dependent on
//     everything, which forces full expansion where they occur).
//
// Returning false is always sound — it only reduces the reduction. See
// DESIGN.md's "Independence contract" for the per-system proof obligations
// and for what the sampled VerifyPOR check does and does not catch.
type Independence func(s string, a, b Action) bool

// ErrPORUnsound is wrapped by the error Explore returns when the VerifyPOR
// safety check catches an independence relation declaring a non-commuting
// (or disabling) pair of actions independent.
var ErrPORUnsound = errors.New("engine: independence relation failed soundness check")

// Visibility marks the actions the downstream analysis can observe — those
// that may change the truth of a checked predicate (a decision, an election,
// a delivery acknowledgment). Ample-set theory's C2 condition: a
// proper ample set must contain only invisible actions, because the reduced
// graph realizes the deferred actions in fewer interleavings and a visible
// action's orderings are exactly what the predicates can tell apart.
// Visible actions may still be DEFERRED (they stay enabled and are explored
// from later states); they just force their own dependence component to be
// passed over. A nil visibility treats every action as invisible, leaving
// the entire obligation on the independence relation (e.g. by declaring
// visible actions dependent on everything, which forces full expansion
// where they occur — sound, but coarser).
type Visibility func(s string, a Action) bool

// porAction is one collected transition during a POR expansion: the raw
// action (for the independence relation and the falsifier) plus the
// canonical successor actually interned.
type porAction struct {
	act Action
	to  string // canonical successor; == act.To when no canonicalizer is set
}

// ampleSet partitions the actions enabled at s into dependence-connected
// components (two actions are connected when the relation does NOT declare
// them independent) and returns the member indices of the best component,
// in first-occurrence order, that is a proper subset of the enabled set and
// passes the cycle proviso. It returns nil when no component qualifies, in
// which case the caller expands fully.
//
// Candidate components are ranked by (fewest members, smallest member
// Actor, first occurrence). Fewest members defers the most work; the
// stable actor tiebreak is what turns local deferrals into global state
// savings: when every state defers the same processes' actions, the
// product-of-interleavings lattice collapses to a staircase, whereas a
// per-state arbitrary choice re-reaches the deferred orderings from
// neighboring states and saves almost nothing. Any deterministic rule is
// equally sound; this one is also deterministic across worker counts
// because it is a pure function of the state's action list.
//
// The proviso (C3) rejects a candidate component if any member's successor
// is already interned with a provisional id < hi — that is, discovered
// before the current BFS level began. Every cycle of the reduced graph must
// contain a non-depth-increasing edge, whose destination was necessarily
// interned on an earlier level, so the proviso guarantees each cycle
// contains at least one fully expanded state: no action is deferred forever
// around a cycle. The predicate "interned with id < hi" depends only on
// which states exist at the previous level barrier — a schedule-independent
// set — so the reduced graph stays byte-identical at any worker count.
func (e *explorer) ampleSet(s string, acts []porAction, uf []int32, hi int) []int32 {
	k := len(acts)
	for i := range uf {
		uf[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for uf[x] != x {
			uf[x] = uf[uf[x]]
			x = uf[x]
		}
		return x
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			ri, rj := find(int32(i)), find(int32(j))
			if ri == rj {
				continue
			}
			if !e.indep(s, acts[i].act, acts[j].act) {
				// Union by smaller root so a component's root is always its
				// first-occurring member.
				if ri < rj {
					uf[rj] = ri
				} else {
					uf[ri] = rj
				}
			}
		}
	}
	// Rank component roots by (smallest member actor, first occurrence);
	// roots are minimal members by construction, so ascending root order is
	// first-occurrence order and the sort below is stable across schedules.
	type cand struct {
		root     int32
		size     int
		minActor int
	}
	cands := make([]cand, 0, k)
	for i := 0; i < k; i++ {
		if find(int32(i)) != int32(i) {
			continue
		}
		size, minActor := 1, acts[i].act.Actor
		for j := i + 1; j < k; j++ {
			if find(int32(j)) == int32(i) {
				size++
				if acts[j].act.Actor < minActor {
					minActor = acts[j].act.Actor
				}
			}
		}
		cands = append(cands, cand{root: int32(i), size: size, minActor: minActor})
	}
	if len(cands) < 2 {
		return nil // single component: no reduction possible
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].size != cands[b].size {
			return cands[a].size < cands[b].size
		}
		if cands[a].minActor != cands[b].minActor {
			return cands[a].minActor < cands[b].minActor
		}
		return cands[a].root < cands[b].root
	})
	for _, c := range cands {
		members := make([]int32, 0, k)
		for j := c.root; j < int32(k); j++ {
			if find(j) == c.root {
				members = append(members, j)
			}
		}
		ok := true
		for _, m := range members {
			// C2: a proper ample set must be invisible. C3: it must not
			// close a cycle back into an already-discovered level.
			if (e.visible != nil && e.visible(s, acts[m].act)) || e.probeOld(acts[m].to, hi) {
				ok = false
				break
			}
		}
		if ok {
			return members
		}
	}
	return nil
}

// probeOld reports whether state s is already interned with a provisional id
// assigned before the current level began (id < hi). States interned during
// the current level always receive ids ≥ hi, so the answer is independent of
// how this level's work is scheduled across workers.
func (e *explorer) probeOld(s string, hi int) bool {
	id, ok := e.store.Probe(s)
	return ok && id < int32(hi)
}

// checkPOR verifies the commuting-diamond half of the independence contract
// at one sampled state: for every pair of enabled actions the relation
// declares independent, executing them in both orders must be possible and
// must land in the same state (compared after canonicalization when a
// canonicalizer is installed, since POR over a quotient needs the diamond to
// close in the quotient). Matching "the same event after the other action"
// goes by (Label, Actor), which is how the engine identifies events across
// states.
//
// Like VerifyCanon this is a falsifier, not a proof: it catches broken
// diamonds on sampled reachable states, but the persistence and visibility
// obligations quantify over futures and predicates it cannot see. Those
// remain per-system arguments (see DESIGN.md).
func (e *explorer) checkPOR(s string, acts []porAction) error {
	type key struct {
		label string
		actor int
	}
	// succ lazily expands the raw successor of one enabled action, bucketing
	// that state's own successors by event key. Canonicalization (when
	// installed) is applied directly, bypassing worker telemetry: these are
	// probe expansions, not exploration.
	cache := make([]map[key][]string, len(acts))
	succ := func(i int) map[key][]string {
		if cache[i] == nil {
			m := make(map[key][]string)
			e.expand(acts[i].act.To, CollectCtx(func(to, label string, actor int) {
				if e.canon != nil {
					to = e.canon(to)
				}
				m[key{label, actor}] = append(m[key{label, actor}], to)
			}))
			cache[i] = m
		}
		return cache[i]
	}
	for i := 0; i < len(acts); i++ {
		for j := i + 1; j < len(acts); j++ {
			a, b := acts[i].act, acts[j].act
			if !e.indep(s, a, b) {
				continue
			}
			ab := succ(i)[key{b.Label, b.Actor}] // a first, then b's event
			ba := succ(j)[key{a.Label, a.Actor}] // b first, then a's event
			if len(ab) == 0 || len(ba) == 0 {
				return fmt.Errorf("%w: at %v, actions (%q,%d) and (%q,%d) declared independent but one disables the other",
					ErrPORUnsound, s, a.Label, a.Actor, b.Label, b.Actor)
			}
			if !sameMultiset(ab, ba) {
				return fmt.Errorf("%w: at %v, actions (%q,%d) and (%q,%d) declared independent but the diamond does not close: %v vs %v",
					ErrPORUnsound, s, a.Label, a.Actor, b.Label, b.Actor, ab, ba)
			}
		}
	}
	return nil
}

// sameMultiset reports whether xs and ys contain the same states with the
// same multiplicities.
func sameMultiset(xs, ys []string) bool {
	if len(xs) != len(ys) {
		return false
	}
	counts := make(map[string]int, len(xs))
	for _, x := range xs {
		counts[x]++
	}
	for _, y := range ys {
		if counts[y] == 0 {
			return false
		}
		counts[y]--
	}
	return true
}
