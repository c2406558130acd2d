package ring

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/runtime"
)

// LiveLCR runs LCR election as a real concurrent system under
// internal/runtime: one goroutine per ring position, each id launched
// clockwise as a live message, the adversary choosing delivery order (and
// optionally delaying or crash-starving processes). Its reference model
// is AsyncLCR, available when the ring is small enough to explore (n ≤ 8,
// ids < 8); larger rings run live-only.
//
// The live protocol is exactly the model's: on receiving id v, position p
// elects itself if v is its own id, forwards if v exceeds its id, and
// swallows otherwise. The Buggy variant forwards its own returning id
// instead of electing — the election edge the model takes makes the model
// state terminal, so the buggy implementation's next delivery falls off
// the explored graph and the refinement oracle rejects it.
type LiveLCR struct {
	ids   []int
	buggy bool

	// Live verdict state, written by the electing process and read by
	// Check after the run has joined its goroutines.
	elected  bool
	leader   int
	leaderID int
}

// NewLiveLCR validates ids (distinct, nonnegative — no magnitude bound:
// large rings just have no model) and returns the live workload.
func NewLiveLCR(ids []int) (*LiveLCR, error) {
	if err := validateIDs(ids); err != nil {
		return nil, err
	}
	return &LiveLCR{ids: append([]int(nil), ids...)}, nil
}

// NewBuggyLiveLCR returns the deliberately broken variant: a process
// receiving its own id forwards it instead of electing itself. The ring
// then circulates the maximum id forever; the refinement oracle catches
// the first delivery after the missed election.
func NewBuggyLiveLCR(ids []int) (*LiveLCR, error) {
	w, err := NewLiveLCR(ids)
	if err != nil {
		return nil, err
	}
	w.buggy = true
	return w, nil
}

// Name implements runtime.Workload.
func (l *LiveLCR) Name() string {
	if l.buggy {
		return "async-lcr-buggy"
	}
	return "async-lcr"
}

// NumProcs implements runtime.Workload.
func (l *LiveLCR) NumProcs() int { return len(l.ids) }

// Supports implements runtime.Workload: delay and crash only. The model
// has no loss or duplication edges — a dropped token would end the
// election, which LCR's channels do not do.
func (l *LiveLCR) Supports() runtime.Faults {
	return runtime.FaultDelay | runtime.FaultCrash
}

// Spawn implements runtime.Workload.
func (l *LiveLCR) Spawn(int64) []runtime.Proc {
	l.elected, l.leader, l.leaderID = false, -1, -1
	out := make([]runtime.Proc, len(l.ids))
	for p := range out {
		out[p] = &liveLCRProc{w: l, pos: p}
	}
	return out
}

// Model implements runtime.Workload: the explored AsyncLCR graph, or nil
// at live-only scale.
func (l *LiveLCR) Model() (*core.Graph[string], error) {
	if len(l.ids) > 8 {
		return nil, nil
	}
	for _, id := range l.ids {
		if id >= 8 {
			return nil, nil
		}
	}
	a, err := NewAsyncLCR(l.ids)
	if err != nil {
		return nil, err
	}
	return core.Explore[string](a.System(), core.ExploreOptions{})
}

// Check implements runtime.Workload: election uniqueness and agreement
// with the model. If the live run elected, the leader must be the max-id
// position and every consistent model end state must name the same
// leader; if it did not, no end state may have a leader either.
func (l *LiveLCR) Check(_ *runtime.Result, g *core.Graph[string], ends []int) error {
	a, err := NewAsyncLCR(l.ids)
	if err != nil {
		return err
	}
	if l.elected && l.leader != a.MaxIDPosition() {
		return fmt.Errorf("ring: live run elected position %d, want the max-id position %d",
			l.leader, a.MaxIDPosition())
	}
	for _, e := range ends {
		ml := a.Leader(g.State(e))
		switch {
		case l.elected && ml != l.leader:
			return fmt.Errorf("ring: live leader %d but consistent model state %d has leader %d",
				l.leader, e, ml)
		case !l.elected && ml >= 0:
			return fmt.Errorf("ring: live run elected nobody but consistent model state %d has leader %d", e, ml)
		}
	}
	return nil
}

// liveLCRProc is one live ring position.
type liveLCRProc struct {
	w      *LiveLCR
	pos    int
	labels runtime.Labels
}

// Start implements runtime.Proc: launch the own id clockwise. The model's
// initial state has every id already in flight, so initial sends are part
// of the initial configuration, not model steps.
func (p *liveLCRProc) Start() []runtime.Action {
	return []runtime.Action{{
		Kind:    runtime.ActDeliver,
		From:    p.pos,
		To:      (p.pos + 1) % len(p.w.ids),
		Payload: p.w.ids[p.pos],
	}}
}

// Handle implements runtime.Proc.
func (p *liveLCRProc) Handle(a runtime.Action) runtime.Outcome {
	id := a.Payload.(int)
	own := p.w.ids[p.pos]
	out := runtime.Outcome{
		Label: p.labels.Intern(appendDeliverLabel(p.labels.Buf(), id, p.pos)),
		Actor: p.pos,
	}
	forward := func() {
		out.Effects = []runtime.Action{{
			Kind:    runtime.ActDeliver,
			To:      (p.pos + 1) % len(p.w.ids),
			Payload: id,
		}}
	}
	switch {
	case id == own:
		if p.w.buggy {
			forward() // the bug: the returning id should elect, not travel on
			break
		}
		p.w.elected, p.w.leader, p.w.leaderID = true, p.pos, id
		out.Halt, out.Stop = true, true
	case id > own:
		forward()
		// Smaller ids are swallowed: no effects.
	}
	return out
}
