package datalink

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/runtime"
)

// LiveABP runs the alternating-bit protocol as two real processes — a
// sender goroutine and a receiver goroutine — over the adversary's lossy
// channels. Its reference model is AsyncABP; the channel-slot discipline
// maps onto live scheduling exactly: the model's "send data is enabled
// iff the data slot is empty" becomes a guarded local retransmission
// action whose guard is "no data packet currently in flight".
//
// The NoRetransmit variant arms the send action only once per message
// instead of persistently: after the adversary drops a packet, the sender
// goes silent. The live run then quiesces while every consistent model
// state still has "send data" enabled, and the refinement oracle's
// quiescence rule rejects it.
type LiveABP struct {
	// Messages is the transfer length, 1..16 (the model's bound).
	Messages     int
	noRetransmit bool

	snd *liveABPSender
	rcv *liveABPReceiver
}

// NewLiveABP validates the message count and returns the live workload.
func NewLiveABP(messages int) (*LiveABP, error) {
	if _, err := NewAsyncABP(messages); err != nil {
		return nil, err
	}
	return &LiveABP{Messages: messages}, nil
}

// NewNoRetransmitABP returns the deliberately broken variant whose sender
// never retransmits a lost packet.
func NewNoRetransmitABP(messages int) (*LiveABP, error) {
	w, err := NewLiveABP(messages)
	if err != nil {
		return nil, err
	}
	w.noRetransmit = true
	return w, nil
}

// abpData and abpAck are the live wire payloads.
type abpData struct{ bit, idx byte }
type abpAck struct{ bit byte }

// Local action keys.
const (
	abpKeySend    = "send"
	abpKeySendAck = "sendack"
)

// Name implements runtime.Workload.
func (l *LiveABP) Name() string {
	if l.noRetransmit {
		return "async-abp-noretransmit"
	}
	return "async-abp"
}

// NumProcs implements runtime.Workload: the sender is process 0, the
// receiver process 1 — matching the model's actor numbering.
func (l *LiveABP) NumProcs() int { return 2 }

// Supports implements runtime.Workload: ABP is the workload built for
// lossy channels, so drop joins delay and crash. No duplication — the
// model's channels hold at most one packet and never duplicate (§2.5).
func (l *LiveABP) Supports() runtime.Faults {
	return runtime.FaultDelay | runtime.FaultDrop | runtime.FaultCrash
}

// Spawn implements runtime.Workload.
func (l *LiveABP) Spawn(int64) []runtime.Proc {
	l.snd = &liveABPSender{w: l}
	l.rcv = &liveABPReceiver{w: l}
	return []runtime.Proc{l.snd, l.rcv}
}

// Model implements runtime.Workload.
func (l *LiveABP) Model() (*core.Graph[string], error) {
	a, err := NewAsyncABP(l.Messages)
	if err != nil {
		return nil, err
	}
	return core.Explore[string](a.System(), core.ExploreOptions{})
}

// Guard implements runtime.Guarded: a (re)transmission is enabled iff its
// channel is empty, i.e. no packet of that direction is pending.
func (l *LiveABP) Guard(a runtime.Action, pending []runtime.Action) bool {
	for _, pa := range pending {
		if pa.Kind != runtime.ActDeliver {
			continue
		}
		switch pa.Payload.(type) {
		case abpData:
			if a.Key == abpKeySend {
				return false
			}
		case abpAck:
			if a.Key == abpKeySendAck {
				return false
			}
		}
	}
	return true
}

// DropLabel implements runtime.Dropper with the model's loss edges.
func (l *LiveABP) DropLabel(a runtime.Action) (string, int) {
	if _, ok := a.Payload.(abpData); ok {
		return kindLabels[kindDropData], core.EnvironmentActor
	}
	return kindLabels[kindDropAck], core.EnvironmentActor
}

// Check implements runtime.Workload: exactly-once in-order delivery live,
// and agreement with every consistent model end state on the delivered
// and acknowledged counts.
func (l *LiveABP) Check(_ *runtime.Result, g *core.Graph[string], ends []int) error {
	for i, idx := range l.rcv.deliveredSeq {
		if int(idx) != i {
			return fmt.Errorf("datalink: live receiver delivered message %d in position %d (duplicate, loss, or reorder)", idx, i)
		}
	}
	if l.snd.done && len(l.rcv.deliveredSeq) != l.Messages {
		return fmt.Errorf("datalink: live transfer completed with %d of %d messages delivered",
			len(l.rcv.deliveredSeq), l.Messages)
	}
	for _, e := range ends {
		st := g.State(e)
		if int(st[offDelivered]) != len(l.rcv.deliveredSeq) {
			return fmt.Errorf("datalink: live delivered %d but consistent model state %d has %d",
				len(l.rcv.deliveredSeq), e, st[offDelivered])
		}
		if int(st[offNext]) != int(l.snd.next) {
			return fmt.Errorf("datalink: live sender acknowledged %d but consistent model state %d has %d",
				l.snd.next, e, st[offNext])
		}
	}
	return nil
}

// liveABPSender is process 0.
type liveABPSender struct {
	w      *LiveABP
	next   byte // index of the message being sent
	bit    byte
	done   bool
	labels runtime.Labels
}

// Start implements runtime.Proc: arm the (guarded) transmission action.
func (s *liveABPSender) Start() []runtime.Action {
	return []runtime.Action{{Kind: runtime.ActLocal, To: 0, Key: abpKeySend}}
}

// Handle implements runtime.Proc.
func (s *liveABPSender) Handle(a runtime.Action) runtime.Outcome {
	if a.Kind == runtime.ActLocal {
		if s.done {
			return runtime.Outcome{Actor: 0} // stale timer after completion
		}
		out := runtime.Outcome{
			Label: liveLabel(&s.labels, kindSendData, s.bit, s.next),
			Actor: 0,
			Effects: []runtime.Action{{
				Kind: runtime.ActDeliver, From: 0, To: 1,
				Payload: abpData{bit: s.bit, idx: s.next},
			}},
		}
		if !s.w.noRetransmit {
			// Persistent retransmission: re-arm, guard-blocked until the
			// packet leaves the channel (delivered or dropped).
			out.Effects = append(out.Effects,
				runtime.Action{Kind: runtime.ActLocal, To: 0, Key: abpKeySend})
		}
		return out
	}
	ack := a.Payload.(abpAck)
	out := runtime.Outcome{
		Label: liveLabel(&s.labels, kindDeliverAck, ack.bit, 0),
		Actor: 0,
	}
	if ack.bit == s.bit {
		s.next++
		s.bit ^= 1
		if int(s.next) == s.w.Messages {
			s.done = true
			out.Halt, out.Stop = true, true
		} else if s.w.noRetransmit {
			// The buggy sender arms one transmission per acknowledged
			// message instead of keeping the timer armed.
			out.Effects = []runtime.Action{{Kind: runtime.ActLocal, To: 0, Key: abpKeySend}}
		}
	}
	return out
}

// liveABPReceiver is process 1.
type liveABPReceiver struct {
	w            *LiveABP
	expected     byte
	owed         byte
	owedSet      bool
	deliveredSeq []byte // message indexes handed to the client, in order
	labels       runtime.Labels
}

// Start implements runtime.Proc.
func (r *liveABPReceiver) Start() []runtime.Action { return nil }

// Handle implements runtime.Proc.
func (r *liveABPReceiver) Handle(a runtime.Action) runtime.Outcome {
	if a.Kind == runtime.ActLocal {
		if !r.owedSet {
			return runtime.Outcome{Actor: 1} // stale timer: nothing owed
		}
		bit := r.owed
		r.owedSet = false
		return runtime.Outcome{
			Label: liveLabel(&r.labels, kindSendAck, bit, 0),
			Actor: 1,
			Effects: []runtime.Action{{
				Kind: runtime.ActDeliver, From: 1, To: 0,
				Payload: abpAck{bit: bit},
			}},
		}
	}
	data := a.Payload.(abpData)
	out := runtime.Outcome{
		Label: liveLabel(&r.labels, kindDeliverData, data.bit, data.idx),
		Actor: 1,
	}
	if data.bit == r.expected {
		r.deliveredSeq = append(r.deliveredSeq, data.idx)
		r.expected ^= 1
	}
	// Ack every packet's bit, fresh or stale; overwriting a still-unsent
	// older owed bit mirrors the model (equivalent to losing that ack).
	r.owed, r.owedSet = data.bit, true
	out.Effects = []runtime.Action{{Kind: runtime.ActLocal, To: 1, Key: abpKeySendAck}}
	return out
}

// liveLabel interns the label of an action of kind through a process's
// labels.
func liveLabel(l *runtime.Labels, kind int, bit, idx byte) string {
	return l.Intern(appendLabel(l.Buf(), kind, bit, idx))
}
