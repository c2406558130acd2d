package datalink

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/runtime"
)

func TestNewLiveABPValidation(t *testing.T) {
	for _, msgs := range []int{0, -1, 17} {
		if _, err := NewLiveABP(msgs); err == nil {
			t.Errorf("NewLiveABP(%d) accepted an out-of-range transfer length", msgs)
		}
		if _, err := NewNoRetransmitABP(msgs); err == nil {
			t.Errorf("NewNoRetransmitABP(%d) accepted an out-of-range transfer length", msgs)
		}
	}
	w, err := NewLiveABP(2)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "async-abp" || w.NumProcs() != 2 {
		t.Fatalf("Name/NumProcs = %q/%d", w.Name(), w.NumProcs())
	}
	if w.Supports()&runtime.FaultDrop == 0 {
		t.Fatal("ABP must support the drop fault; it is the lossy-channel workload")
	}
	b, err := NewNoRetransmitABP(2)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "async-abp-noretransmit" {
		t.Fatalf("buggy variant Name = %q", b.Name())
	}
}

func TestLiveABPGuardAndDropLabel(t *testing.T) {
	w, _ := NewLiveABP(1)
	send := runtime.Action{Kind: runtime.ActLocal, To: 0, Key: abpKeySend}
	sendAck := runtime.Action{Kind: runtime.ActLocal, To: 1, Key: abpKeySendAck}
	dataInFlight := runtime.Action{Kind: runtime.ActDeliver, From: 0, To: 1, Payload: abpData{}}
	ackInFlight := runtime.Action{Kind: runtime.ActDeliver, From: 1, To: 0, Payload: abpAck{}}

	if w.Guard(send, []runtime.Action{dataInFlight}) {
		t.Error("retransmission enabled while a data packet is in flight")
	}
	if !w.Guard(send, []runtime.Action{ackInFlight}) {
		t.Error("retransmission blocked by an in-flight ack (wrong channel)")
	}
	if w.Guard(sendAck, []runtime.Action{ackInFlight}) {
		t.Error("ack send enabled while an ack is in flight")
	}
	if !w.Guard(sendAck, nil) {
		t.Error("ack send blocked on an empty channel")
	}

	if lbl, actor := w.DropLabel(dataInFlight); lbl != kindLabels[kindDropData] || actor != core.EnvironmentActor {
		t.Errorf("DropLabel(data) = (%q,%d)", lbl, actor)
	}
	if lbl, _ := w.DropLabel(ackInFlight); lbl != kindLabels[kindDropAck] {
		t.Errorf("DropLabel(ack) = %q", lbl)
	}
}

// TestLiveABPRefines runs the live protocol under a lossy adversary and
// replays the trace into the explored model.
func TestLiveABPRefines(t *testing.T) {
	w, err := NewLiveABP(2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := w.Model()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 4; seed++ {
		res, err := runtime.Run(w, runtime.Options{Seed: seed, Drop: 0.3, Delay: 2})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := runtime.Refine(w, res, g); err != nil {
			t.Fatalf("seed %d: refinement failed: %v", seed, err)
		}
	}
}

// TestNoRetransmitABPStallsRejected: once the adversary drops a packet the
// buggy sender goes silent, and the quiescence rule must reject the run.
func TestNoRetransmitABPStallsRejected(t *testing.T) {
	g, err := (&LiveABP{Messages: 2}).Model()
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for seed := int64(0); seed < 12; seed++ {
		w, err := NewNoRetransmitABP(2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runtime.Run(w, runtime.Options{Seed: seed, Drop: 0.5, Delay: 2})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Drops == 0 {
			continue // lucky schedule: nothing dropped, the bug is latent
		}
		if _, err := runtime.Refine(w, res, g); errors.Is(err, runtime.ErrNotQuiescent) {
			rejected++
		} else if err != nil {
			t.Fatalf("seed %d: wrong rejection: %v", seed, err)
		}
	}
	if rejected == 0 {
		t.Fatal("no lossy schedule rejected the no-retransmit sender")
	}
}

func TestProgressVisibility(t *testing.T) {
	a, err := NewAsyncABP(1)
	if err != nil {
		t.Fatal(err)
	}
	vis := a.ProgressVisibility()
	g, err := a.CheckDelivery(core.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	visible, hidden := 0, 0
	for i := 0; i < g.Len(); i++ {
		st := g.State(i)
		for _, e := range g.Successors(i) {
			if vis(st, engine.Action{To: e.To, Label: e.Label, Actor: e.Actor}) {
				visible++
			} else {
				hidden++
			}
		}
	}
	if visible == 0 || hidden == 0 {
		t.Fatalf("visibility predicate is degenerate: %d visible, %d hidden edges", visible, hidden)
	}
}
