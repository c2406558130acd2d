package consensus

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/runtime"
)

// LiveBenOr runs phase-bounded Ben-Or as a real concurrent system under
// internal/runtime: one goroutine per process, report and proposal waves
// as live broadcasts, the adversary choosing delivery order. The quorum
// cascade is benOrAdvance — the same function the explored BenOrSpace
// model runs inside its delivery edges — so live labels and model labels
// agree by construction; only the coin source differs (a per-process
// seeded RNG live, both branches in the model).
//
// The model is explorable only at the smallest configuration (n ≤ 3,
// one phase — larger spaces exceed millions of states); bigger live runs
// are legitimate but carry no refinement verdict.
type LiveBenOr struct {
	// Procs, MaxFaults, Phases mirror BenOrSpace (but without the model's
	// n ≤ 8 mask bound: big rings simply have no model).
	Procs     int
	MaxFaults int
	Phases    int
	// Inputs are the initial binary values.
	Inputs []int

	procs []*liveBenOrProc
}

// benOrMsg is the live wire payload for one wave message.
type benOrMsg struct {
	kind byte // benOrKindR or benOrKindP
	ph   byte
	from byte
	val  byte // 0, 1, or benOrBot for a ⊥ proposal
}

// NewLiveBenOr validates the configuration.
func NewLiveBenOr(n, t, phases int, inputs []int) (*LiveBenOr, error) {
	if n < 2 || n > 255 {
		return nil, fmt.Errorf("consensus: LiveBenOr needs 2..255 processes, got %d", n)
	}
	if t < 0 || 2*t >= n {
		return nil, fmt.Errorf("consensus: LiveBenOr needs 0 <= 2t < n, got t=%d n=%d", t, n)
	}
	if phases < 1 || phases > 64 {
		return nil, fmt.Errorf("consensus: LiveBenOr needs 1..64 phases, got %d", phases)
	}
	if len(inputs) != n {
		return nil, fmt.Errorf("consensus: LiveBenOr needs %d inputs, got %d", n, len(inputs))
	}
	for p, v := range inputs {
		if v != 0 && v != 1 {
			return nil, fmt.Errorf("consensus: input %d of process %d is not binary", v, p)
		}
	}
	return &LiveBenOr{Procs: n, MaxFaults: t, Phases: phases, Inputs: append([]int(nil), inputs...)}, nil
}

// Name implements runtime.Workload.
func (l *LiveBenOr) Name() string { return "ben-or" }

// NumProcs implements runtime.Workload.
func (l *LiveBenOr) NumProcs() int { return l.Procs }

// Supports implements runtime.Workload: delay and crash. No drop — the
// model has no loss edges, so a silently dropped wave message would make
// the refinement oracle's quiescence rule fire spuriously (Ben-Or
// tolerates loss through quorums, but the bounded model delivers
// everything). No duplication — delivery is recorded per (sender, phase,
// wave) and the model has no re-delivery edge.
func (l *LiveBenOr) Supports() runtime.Faults {
	return runtime.FaultDelay | runtime.FaultCrash
}

// Spawn implements runtime.Workload, deriving one RNG per process from
// the run seed for the live coin flips.
func (l *LiveBenOr) Spawn(seed int64) []runtime.Proc {
	l.procs = make([]*liveBenOrProc, l.Procs)
	out := make([]runtime.Proc, l.Procs)
	for p := range out {
		pr := &liveBenOrProc{
			w: l, p: p,
			rng:     rand.New(rand.NewSource(seed ^ (int64(p+1) * 0x9E3779B97F4A7C1))),
			value:   byte(l.Inputs[p]),
			phase:   1,
			decided: benOrNone,
		}
		pr.got[0] = make([]byte, l.Phases*l.Procs)
		pr.got[1] = make([]byte, l.Phases*l.Procs)
		for i := range pr.got[0] {
			pr.got[0][i] = benOrNone
			pr.got[1][i] = benOrNone
		}
		l.procs[p] = pr
		out[p] = pr
	}
	return out
}

// Model implements runtime.Workload: the explored BenOrSpace at the
// smallest configurations, nil at live-only scale.
func (l *LiveBenOr) Model() (*core.Graph[string], error) {
	if l.Procs > 3 || l.Phases > 1 {
		return nil, nil
	}
	b, err := NewBenOrSpace(l.Procs, l.MaxFaults, l.Phases, l.Inputs)
	if err != nil {
		return nil, err
	}
	return core.Explore[string](b.System(), core.ExploreOptions{})
}

// Check implements runtime.Workload: live agreement (no two processes
// decided differently), and exact agreement of every process's
// [value, phase, stage, decided] block with every consistent model end
// state — the live run must be *the* execution the trace describes.
func (l *LiveBenOr) Check(_ *runtime.Result, g *core.Graph[string], ends []int) error {
	seen, seenBy := -1, -1
	for _, pr := range l.procs {
		if pr.decided == benOrNone {
			continue
		}
		if seen >= 0 && int(pr.decided) != seen {
			return fmt.Errorf("consensus: live agreement violated: p%d decided %d, p%d decided %d",
				seenBy, seen, pr.p, pr.decided)
		}
		seen, seenBy = int(pr.decided), pr.p
	}
	b, err := NewBenOrSpace(l.Procs, l.MaxFaults, l.Phases, l.Inputs)
	if err != nil {
		return err
	}
	for _, e := range ends {
		st := g.State(e)
		for _, pr := range l.procs {
			o := b.procOff(pr.p)
			if st[o] != pr.value || st[o+1] != pr.phase || st[o+2] != pr.stage || st[o+3] != pr.decided {
				return fmt.Errorf("consensus: live p%d is [v%d ph%d st%d d%d] but consistent model state %d has [v%d ph%d st%d d%d]",
					pr.p, pr.value, pr.phase, pr.stage, pr.decided,
					e, st[o], st[o+1], st[o+2], st[o+3])
			}
		}
	}
	return nil
}

// liveBenOrProc is one live Ben-Or process. It implements benOrView over
// its private delivery tables.
type liveBenOrProc struct {
	w   *LiveBenOr
	p   int
	rng *rand.Rand

	value, phase, stage, decided byte
	// got[kind][(ph-1)*n + sender] is the delivered value (benOrNone if
	// not yet received); first write wins.
	got [2][]byte

	outbox []runtime.Action // broadcasts accumulated by send()
	coins  []byte           // the coin outcomes of the step in Handle
	labels runtime.Labels
}

func (pr *liveBenOrProc) header() (byte, byte, byte, byte) {
	return pr.value, pr.phase, pr.stage, pr.decided
}

func (pr *liveBenOrProc) setHeader(value, phase, stage, decided byte) {
	pr.value, pr.phase, pr.stage, pr.decided = value, phase, stage, decided
}

func (pr *liveBenOrProc) counts(ph, kind int) (c0, c1, cq int) {
	row := pr.got[kind][(ph-1)*pr.w.Procs : ph*pr.w.Procs]
	for _, v := range row {
		switch v {
		case benOrNone:
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

// send records the own message and broadcasts it to every other process.
func (pr *liveBenOrProc) send(ph, kind int, val byte) {
	pr.got[kind][(ph-1)*pr.w.Procs+pr.p] = val
	for q := 0; q < pr.w.Procs; q++ {
		if q == pr.p {
			continue
		}
		pr.outbox = append(pr.outbox, runtime.Action{
			Kind: runtime.ActDeliver, From: pr.p, To: q,
			Payload: benOrMsg{kind: byte(kind), ph: byte(ph), from: byte(pr.p), val: val},
		})
	}
}

// Start implements runtime.Proc: broadcast the phase-1 report, exactly
// the model's initial configuration.
func (pr *liveBenOrProc) Start() []runtime.Action {
	pr.outbox = nil
	pr.send(1, benOrKindR, pr.value)
	out := pr.outbox
	pr.outbox = nil
	return out
}

// Handle implements runtime.Proc: record the wave message, run the shared
// quorum cascade with the live coin, and broadcast whatever it sent.
func (pr *liveBenOrProc) Handle(a runtime.Action) runtime.Outcome {
	msg := a.Payload.(benOrMsg)
	if int(pr.phase) > pr.w.Phases {
		// Finished processes no longer consume: the model suppresses these
		// delivery edges, so the live run records no step either.
		return runtime.Outcome{Actor: pr.p}
	}
	slot := &pr.got[msg.kind][(int(msg.ph)-1)*pr.w.Procs+int(msg.from)]
	if *slot == benOrNone {
		*slot = msg.val
	}
	pr.outbox = nil
	pr.coins = pr.coins[:0]
	benOrAdvance(pr, pr.w.Procs, pr.w.MaxFaults, pr.w.Phases, func() byte {
		c := byte(pr.rng.Intn(2))
		pr.coins = append(pr.coins, c)
		return c
	})
	lbl := appendBenOrLabel(pr.labels.Buf(), int(msg.kind), int(msg.ph), msg.val, int(msg.from), pr.p, pr.coins)
	out := runtime.Outcome{
		Label:   pr.labels.Intern(lbl),
		Actor:   pr.p,
		Effects: pr.outbox,
		Halt:    int(pr.phase) > pr.w.Phases,
	}
	pr.outbox = nil
	return out
}
