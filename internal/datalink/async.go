package datalink

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/engine"
)

// AsyncABP recasts the alternating-bit protocol as an asynchronous state
// space: instead of RunABP's scripted single schedule, the adversary (the
// scheduler) freely interleaves the sender, the receiver, and a lossy
// channel in each direction. Exploring the induced core.System covers every
// loss/retransmission/delivery schedule at once, which is the exhaustive
// form of the §2.5 claim that ABP delivers each message exactly once, in
// order, over channels that lose but do not duplicate or reorder.
//
// Unlike the FLP and ring spaces — leveled DAGs where every event consumes
// a unit of a finite measure — this space has real cycles: send data →
// drop data → send data retransmits forever. That makes it the workload
// that exercises the exploration engine's C3 cycle proviso: an ample set
// must not be deferrable around a retransmission loop, or the deferred
// direction's packet would be starved out of the reduced graph.
//
// A configuration packs into 7 bytes:
//
//	[ next, senderBit, expected, delivered, dataSlot, owed, ackSlot ]
//
// next is the index of the message being sent (next == Messages is the
// terminal "all acknowledged" state), senderBit/expected are the
// alternating bits, delivered counts messages the receiver handed to its
// client, dataSlot is the in-flight data packet (slotEmpty or bit<<4|index),
// owed is the ack the receiver owes (slotEmpty or a bit), and ackSlot is
// the in-flight ack. Each channel holds at most one packet — the sender
// retransmits only into an empty channel — so the space is finite.
type AsyncABP struct {
	// Messages is the number of messages to transfer (payloads are their
	// indices); at most 16 so a data packet packs into one byte.
	Messages int
}

// NewAsyncABP validates the message count and returns the system factory.
func NewAsyncABP(messages int) (*AsyncABP, error) {
	if messages < 1 || messages > 16 {
		return nil, fmt.Errorf("datalink: AsyncABP needs 1..16 messages, got %d", messages)
	}
	return &AsyncABP{Messages: messages}, nil
}

const slotEmpty = 0xFF

// Byte offsets into the packed configuration.
const (
	offNext = iota
	offSenderBit
	offExpected
	offDelivered
	offDataSlot
	offOwed
	offAckSlot
	stateLen
)

// Action kinds, recovered from labels by kindOf. The sender owns the data
// direction (actor 0), the receiver the ack direction (actor 1), and the
// channel adversary drops (core.EnvironmentActor).
const (
	kindSendData = iota
	kindDeliverData
	kindDropData
	kindSendAck
	kindDeliverAck
	kindDropAck
	numKinds
)

var kindLabels = [numKinds]string{
	"send data", "deliver data", "drop data",
	"send ack", "deliver ack", "drop ack",
}

// kindOf maps an action label back to its kind; -1 for foreign labels.
func kindOf(label string) int {
	for k, prefix := range kindLabels {
		if len(label) >= len(prefix) && label[:len(prefix)] == prefix {
			return k
		}
	}
	return -1
}

// System returns the exploration system over packed configurations.
func (a *AsyncABP) System() core.System[string] { return asyncABPSystem{a} }

type asyncABPSystem struct{ a *AsyncABP }

func (s asyncABPSystem) Init() []string {
	st := make([]byte, stateLen)
	st[offDataSlot], st[offOwed], st[offAckSlot] = slotEmpty, slotEmpty, slotEmpty
	return []string{string(st)}
}

// Done reports whether every message has been acknowledged in state st.
func (a *AsyncABP) Done(st string) bool { return int(st[offNext]) == a.Messages }

// Delivered reports how many messages the receiver has handed up in st.
func (a *AsyncABP) Delivered(st string) int { return int(st[offDelivered]) }

func (s asyncABPSystem) ExpandInto(st string, x *engine.Ctx[string]) {
	if s.a.Done(st) {
		return // all acknowledged: terminal
	}
	var lbl [24]byte
	// Each successor is st with a few bytes patched, built in the worker's
	// scratch buffer, which EmitBytes consumes before the next one.
	scratch := func() []byte {
		x.Scratch = append(x.Scratch[:0], st...)
		return x.Scratch
	}
	emit := func(next []byte, kind, actor int, bit, idx byte) {
		x.EmitBytes(next, x.Label(appendLabel(lbl[:0], kind, bit, idx)), actor)
	}
	if st[offDataSlot] == slotEmpty {
		// The sender (re)transmits its current packet into the empty
		// channel. This is the retransmission cycle: drop data returns here.
		next := scratch()
		next[offDataSlot] = st[offSenderBit]<<4 | st[offNext]
		emit(next, kindSendData, 0, st[offSenderBit], st[offNext])
	} else {
		pkt := st[offDataSlot]
		bit, idx := pkt>>4, pkt&0x0F
		next := scratch()
		next[offDataSlot] = slotEmpty
		if bit == st[offExpected] {
			next[offDelivered]++
			next[offExpected] ^= 1
		}
		// The receiver acks every packet's bit, fresh or stale; a still
		// unsent older ack is overwritten (equivalent to the channel
		// losing it).
		next[offOwed] = bit
		emit(next, kindDeliverData, 1, bit, idx)

		drop := scratch()
		drop[offDataSlot] = slotEmpty
		emit(drop, kindDropData, core.EnvironmentActor, 0, 0)
	}
	if st[offOwed] != slotEmpty && st[offAckSlot] == slotEmpty {
		next := scratch()
		next[offAckSlot] = st[offOwed]
		next[offOwed] = slotEmpty
		emit(next, kindSendAck, 1, st[offOwed], 0)
	}
	if st[offAckSlot] != slotEmpty {
		bit := st[offAckSlot]
		next := scratch()
		next[offAckSlot] = slotEmpty
		if bit == st[offSenderBit] {
			next[offNext]++
			next[offSenderBit] ^= 1
		}
		emit(next, kindDeliverAck, 0, bit, 0)

		drop := scratch()
		drop[offAckSlot] = slotEmpty
		emit(drop, kindDropAck, core.EnvironmentActor, 0, 0)
	}
}

// appendLabel appends the label of an action of kind: the kind's name,
// then " b<bit>" for every kind but the drops, then " m<idx>" for sending
// and delivering data. The explored system and LiveABP both label through
// it.
func appendLabel(dst []byte, kind int, bit, idx byte) []byte {
	dst = append(dst, kindLabels[kind]...)
	if kind == kindDropData || kind == kindDropAck {
		return dst
	}
	dst = append(dst, " b"...)
	dst = strconv.AppendUint(dst, uint64(bit), 10)
	if kind == kindSendData || kind == kindDeliverData {
		dst = append(dst, " m"...)
		dst = strconv.AppendUint(dst, uint64(idx), 10)
	}
	return dst
}

// Independence returns the ample-set independence relation of the async
// ABP space (engine.Independence, for core.ExploreOptions.Independent).
// Each action kind reads and writes a fixed set of configuration fields,
// so dependence is a relation on kinds: two co-enabled actions conflict
// exactly when their field footprints intersect.
//
//   - deliver data ↔ drop data and deliver ack ↔ drop ack race for the
//     packet in the slot: each disables the other.
//   - deliver data ↔ send ack both touch the owed-ack slot (delivery
//     overwrites the owed bit).
//   - send data ↔ deliver ack both touch next/senderBit (the ack delivery
//     advances the packet the sender would transmit).
//   - an ack delivery that acknowledges the final message makes the state
//     terminal, disabling every other action, so it is dependent on
//     everything (the analogue of AsyncLCR's electing deliveries).
//
// Every other pair touches disjoint fields and commutes — in particular
// the two channel directions interleave freely, which is where the
// reduction comes from. Both deliver kinds change the analyzer-visible
// progress counters (delivered, next), so CheckDelivery passes
// ProgressVisibility alongside this relation to keep them out of proper
// ample sets (the C2 obligation); the send/drop cycles are then the C3
// proviso's problem, and the proviso is exactly what stops the reduced
// graph from spinning a retransmission loop while an ack waits forever.
func (a *AsyncABP) Independence() engine.Independence {
	var dep [numKinds][numKinds]bool
	conflict := func(x, y int) { dep[x][y], dep[y][x] = true, true }
	conflict(kindDeliverData, kindDropData)
	conflict(kindDeliverAck, kindDropAck)
	conflict(kindDeliverData, kindSendAck)
	conflict(kindSendData, kindDeliverAck)
	return func(_ string, x, y engine.Action) bool {
		if a.Done(x.To) || a.Done(y.To) {
			return false // completing the transfer disables everything
		}
		kx, ky := kindOf(x.Label), kindOf(y.Label)
		if kx < 0 || ky < 0 || kx == ky {
			return false
		}
		return !dep[kx][ky]
	}
}

// ProgressVisibility returns the visibility predicate paired with
// Independence (engine.Visibility, for core.ExploreOptions.Visible): an
// action is visible iff it changes a progress counter CheckDelivery reads —
// the receiver's delivered count or the sender's acknowledged count.
func (a *AsyncABP) ProgressVisibility() engine.Visibility {
	return func(s string, x engine.Action) bool {
		return x.To[offDelivered] != s[offDelivered] || x.To[offNext] != s[offNext]
	}
}

// CheckDelivery explores every loss/retransmission schedule and verifies
// the §2.5 delivery properties on each reachable configuration: the
// receiver never duplicates, drops, or reorders (delivered always equals
// the sender's acknowledged count or leads it by exactly the packet in
// flight), and some schedule completes the transfer with every message
// delivered exactly once. It returns the explored graph for inspection.
func (a *AsyncABP) CheckDelivery(opts core.ExploreOptions) (*core.Graph[string], error) {
	g, err := core.Explore[string](a.System(), opts)
	if err != nil {
		return nil, err
	}
	completed := false
	for i := 0; i < g.Len(); i++ {
		st := g.State(i)
		next, delivered := int(st[offNext]), int(st[offDelivered])
		if delivered != next && delivered != next+1 {
			return nil, fmt.Errorf("datalink: schedule reached delivered=%d with %d acknowledged: duplicate or lost delivery", delivered, next)
		}
		if a.Done(st) {
			if delivered != a.Messages {
				return nil, fmt.Errorf("datalink: transfer completed with %d of %d messages delivered", delivered, a.Messages)
			}
			completed = true
		}
	}
	if !completed {
		return nil, fmt.Errorf("%w: no schedule completes the %d-message transfer", ErrStalled, a.Messages)
	}
	return g, nil
}
