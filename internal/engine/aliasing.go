package engine

import (
	"errors"
	"fmt"
)

// ErrAliasUnsound is wrapped by the error Explore returns when the
// VerifyAliasing falsifier catches an expansion whose emissions change on
// re-expansion with poisoned scratch — a system illegally retaining
// emitted slices or scratch-buffer contents across expansions, or one
// that is not a pure function of its state.
var ErrAliasUnsound = errors.New("engine: expansion failed buffer-aliasing check")

// poisonByte overwrites reused scratch between the recorded expansion and
// the verification re-expansion: stale views read garbage instead of
// accidentally-still-valid data, turning latent aliasing bugs into loud,
// deterministic divergences.
const poisonByte = 0xDB

// poisonScratch fills the worker's reusable buffers with poisonByte. Only
// the engine-owned buffers can be poisoned here; the system's private
// scratch (Ctx.Sys) is instead exercised by the re-expansion itself, which
// must reproduce the original emissions while reusing it.
func poisonScratch(ws *worker) {
	for i := range ws.ctx.Scratch {
		ws.ctx.Scratch[i] = poisonByte
	}
	for i := range ws.canonBuf {
		ws.canonBuf[i] = poisonByte
	}
}

// aliasEdge is one transition as the aliasing check compares it. On the
// full path that is the recorded edge, with the successor as its store id
// (id); under POR it is the collected action, with the raw successor
// itself (to), because the arena holds only the ample subset and deferred
// successors need not be interned.
type aliasEdge struct {
	id    int32
	to    string
	label string
	actor int32
}

// checkAliasing re-expands s after poisoning the reusable scratch buffers
// and compares the emitted (successor, label, actor) sequence against the
// transitions just recorded for s: the arena span sp on the full path
// (successors resolved by Probe — the recorded pass interned every one of
// them, so a missing probe is itself a divergence), or the whole collected
// action set ws.acts under POR. Runs on the worker's own Ctx so the
// system's retained scratch (Ctx.Sys) is reused, exactly as it will be on
// the next real expansion.
func (e *explorer) checkAliasing(s string, ws *worker, sp span) {
	por := e.indep != nil
	want := ws.aliasWant[:0]
	if por {
		for _, pa := range ws.acts {
			want = append(want, aliasEdge{to: pa.act.To, label: pa.act.Label, actor: int32(pa.act.Actor)})
		}
	} else {
		_, row := e.row(sp)
		for _, r := range row {
			want = append(want, aliasEdge{id: r.To, label: ws.labels[r.Label], actor: r.Actor})
		}
	}
	ws.aliasWant = want
	poisonScratch(ws)
	got := ws.aliasGot[:0]
	missing := false
	x := &ws.ctx
	x.sink = func(to, label string, actor int) {
		a := aliasEdge{label: label, actor: int32(actor)}
		if por {
			a.to = to
		} else {
			if e.canon != nil {
				to = e.canon(to)
			}
			var ok bool
			if a.id, ok = e.store.Probe(to); !ok {
				missing = true
				a.id = -1
			}
		}
		got = append(got, a)
	}
	e.expand(s, x)
	x.sink = nil
	ws.aliasGot = got
	if missing || len(got) != len(want) {
		e.noteVerifyErr(fmt.Errorf("%w: state %v emitted %d transitions on poisoned re-expansion, want %d (system retains emitted or scratch buffers?)",
			ErrAliasUnsound, s, len(got), len(want)))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			e.noteVerifyErr(fmt.Errorf("%w: state %v transition %d diverged on poisoned re-expansion: got %s, want %s",
				ErrAliasUnsound, s, i, got[i].describe(por), want[i].describe(por)))
			return
		}
	}
}

// describe renders a for a divergence report: the successor as its store
// id on the full path, as the raw state under POR.
func (a aliasEdge) describe(por bool) string {
	if por {
		return fmt.Sprintf("(to=%v label=%q actor=%d)", a.to, a.label, a.actor)
	}
	return fmt.Sprintf("(to=%d label=%q actor=%d)", a.id, a.label, a.actor)
}
