package runtime

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// DefaultMaxEvents bounds a run when Options.MaxEvents is zero.
const DefaultMaxEvents = 1 << 20

// DefaultBatch is the concurrent dispatch width when Options.Batch is
// zero. It is a constant, never derived from GOMAXPROCS: batch
// composition shapes the adversary's RNG stream and therefore the trace.
const DefaultBatch = 16

// Options configure one adversarial run. The determinism contract: a
// fixed (Workload, Options) pair produces a byte-identical rt_event
// stream — and therefore Result.Digest — at any GOMAXPROCS. All
// randomness lives in a single rand.Rand owned by the scheduler goroutine
// (plus per-process RNGs derived from Seed that see a deterministic
// action sequence), and every scheduling decision is made before the
// batch is dispatched to the process goroutines.
type Options struct {
	// Seed drives the adversary and every process RNG.
	Seed int64
	// MaxEvents is the scheduling budget (0 = DefaultMaxEvents). The run
	// may overshoot by at most one batch: budget is checked at batch
	// boundaries so a batch's events are never split.
	MaxEvents int
	// Batch is the concurrent dispatch width (0 = DefaultBatch, capped by
	// the workload's BatchLimiter).
	Batch int
	// Delay is the maximum per-action scheduling skew, in scheduling
	// rounds: each enqueued action is due rng.Intn(Delay+1) rounds in the
	// future. Requires FaultDelay when positive.
	Delay int
	// Drop and Dup are per-delivery loss and duplication probabilities.
	// They require FaultDrop (plus a Dropper) and FaultDup respectively.
	Drop float64
	Dup  float64
	// Crash is the per-process probability of a fail-stop crash at a
	// seeded point in the run; RestartAfter, when positive, revives a
	// crashed process after that many events. Requires FaultCrash.
	Crash        float64
	RestartAfter int
	// Sink, when non-nil, additionally receives the run's rt_start /
	// rt_event / rt_end stream (a Digest sink is always attached).
	Sink obs.Sink
}

// Result reports one live run.
type Result struct {
	// Workload, Procs, Seed echo the configuration.
	Workload string
	Procs    int
	Seed     int64
	// Trace is the sequence of model steps observed (rt events with
	// non-empty labels, in recorded order) — the input to Refine.
	Trace core.Trace
	// Events counts every scheduled action; the remaining counters split
	// it by kind.
	Events     int
	Deliveries int
	LocalSteps int
	Drops      int
	Dups       int
	Crashes    int
	Restarts   int
	// Pending is the number of actions still queued when the run ended;
	// Halted the number of processes that reached terminal protocol state.
	Pending int
	Halted  int
	// Exactly one of the end conditions holds.
	Stopped  bool
	Quiesced bool
	Stalled  bool
	Budget   bool
	// Digest is the deterministic trace digest (obs.Digest over the rt
	// stream): identical seeds yield identical digests at any GOMAXPROCS.
	Digest string
	// BatchLat is the concurrent-dispatch latency histogram: one
	// observation per scheduler round that dispatches two or more actions,
	// fan-out to last reply; a round of one action is not timed, so a run
	// with MaxBatch 1 has an empty histogram. Pure timing
	// (machine-dependent), excluded from Digest.
	BatchLat obs.HistSnap
}

// pending is one queued action with its scheduling metadata.
type pending struct {
	a        Action
	seq      uint64
	due      int
	consumed bool
}

// Run executes one adversarial run of w. It spawns one goroutine per
// process and drives them with a deterministic scheduler: each round the
// adversary picks a batch of due actions targeting distinct processes,
// rolls its drop/dup dice, dispatches the survivors concurrently, then
// merges outcomes and effects in pick order.
func Run(w Workload, opts Options) (*Result, error) {
	n := w.NumProcs()
	if n <= 0 {
		return nil, fmt.Errorf("runtime: workload %q has %d processes", w.Name(), n)
	}
	if err := validate(w, &opts); err != nil {
		return nil, err
	}
	batch := opts.Batch
	if bl, ok := w.(BatchLimiter); ok && batch > bl.MaxBatch() {
		batch = bl.MaxBatch()
	}
	guarded, _ := w.(Guarded)
	dropper, _ := w.(Dropper)

	rng := rand.New(rand.NewSource(opts.Seed))
	res := &Result{Workload: w.Name(), Procs: n, Seed: opts.Seed}
	var batchLat obs.Hist

	dig := obs.NewDigest()
	var sink obs.Sink = dig
	if opts.Sink != nil {
		sink = obs.MultiSink{dig, opts.Sink}
	}
	sink.Publish(obs.Event{Kind: obs.KindRTStart, RTConfig: &obs.RuntimeConfig{
		Workload: w.Name(), Procs: n, Seed: opts.Seed,
		MaxEvents: opts.MaxEvents, Batch: batch,
		Drop: opts.Drop, Dup: opts.Dup, Delay: opts.Delay,
		Crash: opts.Crash, RestartAfter: opts.RestartAfter,
	}})

	// Pre-draw the crash schedule: each process either never crashes or
	// crashes once the event counter passes a seeded threshold.
	crashAt := make([]int, n)
	restartAt := make([]int, n)
	for p := range crashAt {
		crashAt[p], restartAt[p] = -1, -1
	}
	if opts.Crash > 0 {
		for p := 0; p < n; p++ {
			if rng.Float64() < opts.Crash {
				crashAt[p] = 1 + rng.Intn(opts.MaxEvents)
			}
		}
	}

	var (
		queue   []pending
		nextSeq uint64
		clock   int
	)
	enqueue := func(a Action) error {
		if a.To < 0 || a.To >= n {
			return fmt.Errorf("runtime: action targets process %d outside [0,%d)", a.To, n)
		}
		if a.Kind == ActLocal {
			for i := range queue {
				if !queue[i].consumed && queue[i].a.Kind == ActLocal &&
					queue[i].a.To == a.To && queue[i].a.Key == a.Key {
					return nil // already armed
				}
			}
			a.From = a.To
		}
		due := clock
		if opts.Delay > 0 {
			due += rng.Intn(opts.Delay + 1)
		}
		queue = append(queue, pending{a: a, seq: nextSeq, due: due})
		nextSeq++
		return nil
	}

	procs := w.Spawn(opts.Seed)
	if len(procs) != n {
		return nil, fmt.Errorf("runtime: Spawn returned %d procs, want %d", len(procs), n)
	}
	for p, pr := range procs {
		for _, a := range pr.Start() {
			if a.Kind == ActDeliver && a.From != core.EnvironmentActor && a.From != p {
				return nil, fmt.Errorf("runtime: p%d's initial send claims sender %d", p, a.From)
			}
			if err := enqueue(a); err != nil {
				return nil, err
			}
		}
	}

	// One goroutine per process; actions arrive over its request channel
	// and each outcome goes back over its reply channel, both made once per
	// run (a round sends each process at most one action). Channel
	// sends/receives are the happens-before edges that order all
	// cross-goroutine state access.
	reqs := make([]chan Action, n)
	replies := make([]chan Outcome, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		reqs[p] = make(chan Action)
		replies[p] = make(chan Outcome, 1)
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for a := range reqs[p] {
				replies[p] <- procs[p].Handle(a)
			}
		}(p)
	}
	stopProcs := func() {
		for _, c := range reqs {
			close(c)
		}
		wg.Wait()
	}

	crashed := make([]bool, n)
	halted := make([]bool, n)
	// One RuntimeEvent serves the whole run: a sink is done with an event
	// when Publish returns (see obs.Sink).
	var rte obs.RuntimeEvent
	record := func(kind string, actor, from, to int, label string) {
		res.Events++
		rte = obs.RuntimeEvent{Kind: kind, Event: res.Events, Actor: actor, From: from, To: to, Label: label}
		sink.Publish(obs.Event{Kind: obs.KindRTEvent, RT: &rte})
		if label != "" {
			res.Trace = append(res.Trace, core.TraceEvent{Label: label, Actor: actor})
		}
	}
	disarm := func(p int) {
		for i := range queue {
			if !queue[i].consumed && queue[i].a.Kind == ActLocal && queue[i].a.To == p {
				queue[i].consumed = true
			}
		}
	}

	// Per-round buffers, reused across rounds.
	var (
		snapshot     []Action
		cands, picks []int
		exec, order  []int
		outs         []Outcome
		taken        = make([]bool, n)
		stopped      bool
		runErr       error
	)
loop:
	for {
		if res.Events >= opts.MaxEvents {
			res.Budget = true
			break
		}
		// Fire due crash/restart injections at the batch boundary.
		for p := 0; p < n; p++ {
			switch {
			case crashAt[p] >= 0 && res.Events >= crashAt[p] && !crashed[p]:
				crashAt[p] = -1
				crashed[p] = true
				if opts.RestartAfter > 0 {
					restartAt[p] = res.Events + opts.RestartAfter
				}
				record(obs.RTCrash, core.EnvironmentActor, core.EnvironmentActor, p, "")
				res.Crashes++
			case restartAt[p] >= 0 && res.Events >= restartAt[p] && crashed[p]:
				restartAt[p] = -1
				crashed[p] = false
				record(obs.RTRestart, core.EnvironmentActor, core.EnvironmentActor, p, "")
				res.Restarts++
			}
		}

		// Candidate selection: due, destination alive, guard satisfied.
		snapshot = snapshot[:0]
		if guarded != nil {
			for i := range queue {
				if !queue[i].consumed {
					snapshot = append(snapshot, queue[i].a)
				}
			}
		}
		cands = cands[:0]
		live := 0
		for i := range queue {
			pd := &queue[i]
			if pd.consumed || crashed[pd.a.To] {
				continue
			}
			live++
			if pd.due > clock {
				continue
			}
			if guarded != nil && pd.a.Kind == ActLocal && !guarded.Guard(pd.a, snapshot) {
				continue
			}
			cands = append(cands, i)
		}
		if len(cands) == 0 {
			total := 0
			minDue := -1
			for i := range queue {
				if queue[i].consumed {
					continue
				}
				total++
				if !crashed[queue[i].a.To] && queue[i].due > clock &&
					(minDue < 0 || queue[i].due < minDue) {
					minDue = queue[i].due
				}
			}
			if total == 0 {
				res.Quiesced = true
				break
			}
			if minDue >= 0 {
				clock = minDue // fast-forward past the delay gap
				continue
			}
			// Everything schedulable is frozen under a crash. Force the
			// earliest scheduled restart rather than deadlocking on an
			// event counter that can no longer advance.
			rp := -1
			for p := 0; p < n; p++ {
				if crashed[p] && restartAt[p] >= 0 && (rp < 0 || restartAt[p] < restartAt[rp]) {
					rp = p
				}
			}
			if rp < 0 {
				res.Stalled = true
				break
			}
			restartAt[rp] = -1
			crashed[rp] = false
			record(obs.RTRestart, core.EnvironmentActor, core.EnvironmentActor, rp, "")
			res.Restarts++
			continue
		}

		// Adversarial pick: up to batch actions with distinct destinations,
		// drawn uniformly without replacement.
		picks = picks[:0]
		clear(taken)
		for len(picks) < batch && len(cands) > 0 {
			k := rng.Intn(len(cands))
			c := cands[k]
			cands[k] = cands[len(cands)-1]
			cands = cands[:len(cands)-1]
			if taken[queue[c].a.To] {
				continue
			}
			taken[queue[c].a.To] = true
			picks = append(picks, c)
		}

		// Adversary dice, in pick order: drop removes the delivery, dup
		// re-enqueues a copy under a fresh delay.
		exec = exec[:0]
		for _, c := range picks {
			a := queue[c].a
			if a.Kind == ActDeliver {
				if opts.Drop > 0 && rng.Float64() < opts.Drop {
					lbl, actor := dropper.DropLabel(a)
					queue[c].consumed = true
					record(obs.RTDrop, actor, a.From, a.To, lbl)
					res.Drops++
					continue
				}
				if opts.Dup > 0 && rng.Float64() < opts.Dup {
					record(obs.RTDup, core.EnvironmentActor, a.From, a.To, "")
					res.Dups++
					if err := enqueue(a); err != nil {
						runErr = err
						break loop
					}
				}
			}
			exec = append(exec, c)
		}

		// Concurrent dispatch: every surviving pick targets a distinct
		// process, so the batch really runs in parallel. The latency of a
		// concurrent batch, two or more actions from fan-out to last reply,
		// feeds the BatchLat histogram: two clock reads per such round,
		// none on a round of one action, the only kind a MaxBatch of 1
		// schedules.
		timed := len(exec) >= 2
		var batchT time.Time
		if timed {
			batchT = time.Now()
		}
		for _, c := range exec {
			reqs[queue[c].a.To] <- queue[c].a
		}
		outs = outs[:0]
		for _, c := range exec {
			outs = append(outs, <-replies[queue[c].a.To])
		}
		if timed {
			batchLat.Observe(int64(time.Since(batchT)))
		}

		// Record in pick order, any Stop outcome last: a batch's steps
		// commuted live, so any serialization embeds, and putting the
		// terminal model step last keeps its batch-mates on the path.
		order = order[:0]
		for i := range exec {
			if !outs[i].Stop {
				order = append(order, i)
			}
		}
		for i := range exec {
			if outs[i].Stop {
				order = append(order, i)
			}
		}
		for _, i := range order {
			c, out := exec[i], outs[i]
			a := queue[c].a
			queue[c].consumed = true
			kind := obs.RTDeliver
			if a.Kind == ActLocal {
				kind = obs.RTLocal
				res.LocalSteps++
			} else {
				res.Deliveries++
			}
			record(kind, out.Actor, a.From, a.To, out.Label)
			for _, eff := range out.Effects {
				if eff.Kind == ActDeliver && eff.From != core.EnvironmentActor {
					eff.From = a.To
				}
				if err := enqueue(eff); err != nil {
					runErr = err
					break loop
				}
			}
			if out.Halt && !halted[a.To] {
				halted[a.To] = true
				res.Halted++
				disarm(a.To)
			}
			if out.Stop {
				stopped = true
			}
		}
		if stopped {
			res.Stopped = true
			break
		}

		// Compact consumed entries and advance the scheduling clock.
		kept := queue[:0]
		for _, pd := range queue {
			if !pd.consumed {
				kept = append(kept, pd)
			}
		}
		queue = kept
		clock++
	}

	stopProcs()
	if runErr != nil {
		return nil, runErr
	}
	for _, pd := range queue {
		if !pd.consumed {
			res.Pending++
		}
	}
	res.BatchLat = batchLat.Snapshot()
	summary := &obs.RuntimeSummary{
		Events: res.Events, Deliveries: res.Deliveries, LocalSteps: res.LocalSteps,
		Drops: res.Drops, Dups: res.Dups, Crashes: res.Crashes, Restarts: res.Restarts,
		Pending: res.Pending, Halted: res.Halted,
		Stopped: res.Stopped, Quiesced: res.Quiesced, Stalled: res.Stalled, Budget: res.Budget,
	}
	if res.BatchLat.Count > 0 {
		bl := res.BatchLat
		summary.BatchLat = &bl
	}
	sink.Publish(obs.Event{Kind: obs.KindRTEnd, RTSummary: summary})
	res.Digest = dig.Sum()
	return res, nil
}

// validate checks the options against the workload's declared fault
// support and normalizes defaults in place.
func validate(w Workload, opts *Options) error {
	if opts.MaxEvents <= 0 {
		opts.MaxEvents = DefaultMaxEvents
	}
	if opts.Batch <= 0 {
		opts.Batch = DefaultBatch
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"drop", opts.Drop}, {"dup", opts.Dup}, {"crash", opts.Crash}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("runtime: %s probability %g outside [0,1]", p.name, p.v)
		}
	}
	if opts.Delay < 0 || opts.RestartAfter < 0 {
		return fmt.Errorf("runtime: negative delay/restart-after")
	}
	sup := w.Supports()
	check := func(on bool, f Faults, name string) error {
		if on && sup&f == 0 {
			return fmt.Errorf("runtime: workload %q does not support the %s fault", w.Name(), name)
		}
		return nil
	}
	for _, c := range []struct {
		on   bool
		f    Faults
		name string
	}{
		{opts.Delay > 0, FaultDelay, "delay"},
		{opts.Drop > 0, FaultDrop, "drop"},
		{opts.Dup > 0, FaultDup, "dup"},
		{opts.Crash > 0, FaultCrash, "crash"},
	} {
		if err := check(c.on, c.f, c.name); err != nil {
			return err
		}
	}
	if _, ok := w.(Dropper); opts.Drop > 0 && !ok {
		return fmt.Errorf("runtime: workload %q supports drop but implements no Dropper", w.Name())
	}
	return nil
}
