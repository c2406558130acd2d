package ring

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/engine"
)

// AsyncLCR is the LCR election recast as an asynchronous state space: every
// process has launched its id clockwise, and the adversary (the scheduler)
// picks which in-flight token to deliver next. Exploring the induced
// core.System covers every interleaving at once — the exhaustive
// counterpart to RunLCR's single synchronous schedule, and the workload
// behind ringbench's -parallel/-stats exploration sweep.
//
// Each id is in flight at most once (a token is forwarded or swallowed, and
// ids are unique), so a link's content is a subset of the id space and a
// configuration packs into n+1 bytes: one in-flight bitmask per link plus
// the elected leader's position (0xFF while the election is open).
type AsyncLCR struct {
	ids []int
}

// NewAsyncLCR validates ids (distinct, in [0, 8) so each link mask is one
// byte) and returns the async election system factory.
func NewAsyncLCR(ids []int) (*AsyncLCR, error) {
	if err := validateIDs(ids); err != nil {
		return nil, err
	}
	if len(ids) > 8 {
		return nil, fmt.Errorf("ring: AsyncLCR supports at most 8 processes, got %d", len(ids))
	}
	for _, id := range ids {
		if id >= 8 {
			return nil, fmt.Errorf("ring: AsyncLCR needs ids < 8, got %d", id)
		}
	}
	return &AsyncLCR{ids: append([]int(nil), ids...)}, nil
}

const noLeader = 0xFF

// System returns the exploration system: states are the packed
// configurations, steps deliver one pending token across one link.
func (a *AsyncLCR) System() core.System { return asyncLCRSystem{a} }

// Leader decodes the elected position from a state, or -1 while open.
func (a *AsyncLCR) Leader(s string) int {
	if b := s[len(a.ids)]; b != noLeader {
		return int(b)
	}
	return -1
}

// MaxIDPosition returns the position holding the largest id — the only
// legal election outcome.
func (a *AsyncLCR) MaxIDPosition() int {
	best := 0
	for i, id := range a.ids {
		if id > a.ids[best] {
			best = i
		}
	}
	return best
}

type asyncLCRSystem struct{ a *AsyncLCR }

func (s asyncLCRSystem) Init() []string {
	n := len(s.a.ids)
	st := make([]byte, n+1)
	for i, id := range s.a.ids {
		st[i] = 1 << uint(id) // each process's own id is on its outgoing link
	}
	st[n] = noLeader
	return []string{string(st)}
}

// lcrScratch is ExpandInto's per-worker label render buffer.
type lcrScratch struct {
	lbl []byte
}

// ExpandInto implements core.System: one delivery per in-flight token, in
// link-then-id order, each rendered into the worker's scratch buffer.
func (s asyncLCRSystem) ExpandInto(st string, x *engine.Ctx) {
	n := len(s.a.ids)
	if len(st) != n+1 {
		panic(fmt.Sprintf("ring: AsyncLCR state %q was not produced by this system", st))
	}
	if st[n] != noLeader {
		return // election decided; the space is a DAG to the leaders
	}
	sc, _ := x.Sys.(*lcrScratch)
	if sc == nil {
		sc = &lcrScratch{}
		x.Sys = sc
	}
	for link := 0; link < n; link++ {
		mask := st[link]
		for id := 0; id < 8; id++ {
			if mask&(1<<uint(id)) == 0 {
				continue
			}
			dst := (link + 1) % n
			buf := append(x.Scratch[:0], st...)
			buf[link] &^= 1 << uint(id)
			switch {
			case id == s.a.ids[dst]:
				buf[n] = byte(dst) // token came home: dst wins
			case id > s.a.ids[dst]:
				buf[dst] |= 1 << uint(id) // forward
			}
			// Smaller ids are swallowed: the token just disappears.
			x.Scratch = buf
			sc.lbl = appendDeliverLabel(sc.lbl[:0], id, dst)
			x.EmitBytes(buf, x.Label(sc.lbl), dst)
		}
	}
}

// appendDeliverLabel appends "deliver id <id> to p<to>", the label of
// delivering id to position to. The explored system and LiveLCR both
// label through it.
func appendDeliverLabel(dst []byte, id, to int) []byte {
	dst = append(dst, "deliver id "...)
	if uint(id) < 10 {
		dst = append(dst, byte('0'+id)) // the explored system's ids are < 8
	} else {
		dst = strconv.AppendInt(dst, int64(id), 10)
	}
	dst = append(dst, " to p"...)
	return strconv.AppendInt(dst, int64(to), 10)
}

// Independence returns the ample-set independence relation of the async
// election space (engine.Independence, for core.ExploreOptions.Independent):
// two deliveries commute when they ride disjoint links — different receivers
// means each step touches only its own link byte and receiver byte, and
// distinct ids occupy distinct mask bits even when one delivery forwards
// onto the other's link. Deliveries that declare a leader are visible (they
// decide the election and make the state terminal, disabling everything
// else), so they are dependent on every other event, which forces full
// expansion wherever an election could complete. Election reachability
// survives the reduction because every ample set still delivers some token
// and tokens make monotone progress toward the max-id home; CheckElection
// pins that end to end.
func (a *AsyncLCR) Independence() engine.Independence {
	n := len(a.ids)
	return func(_ string, x, y engine.Action) bool {
		return x.Actor != y.Actor && x.To[n] == noLeader && y.To[n] == noLeader
	}
}

// CheckElection explores every delivery schedule and verifies the election
// invariant: whenever a leader is declared it is the maximum-id position,
// and some schedule does elect it. It returns the explored graph for
// further inspection along with the number of states.
func (a *AsyncLCR) CheckElection(opts core.ExploreOptions) (*core.Graph[string], error) {
	g, err := core.Explore[string](a.System(), opts)
	if err != nil {
		return nil, err
	}
	want := a.MaxIDPosition()
	elected := false
	for i := 0; i < g.Len(); i++ {
		switch l := a.Leader(g.State(i)); {
		case l == want:
			elected = true
		case l >= 0:
			return nil, fmt.Errorf("ring: some schedule elected position %d, want the max-id position %d", l, want)
		}
	}
	if !elected {
		return nil, ErrNoElection
	}
	return g, nil
}
