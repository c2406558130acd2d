package datalink

import (
	"fmt"
	"testing"
)

// TestLabelMatchesFormat holds appendLabel to the format strings it
// replaced, in the live processes ("%s b%d m%d", "%s b%d") and in the
// explored system (the kind's name plus " b%d m%d", " b%d" or nothing),
// over every byte value of the bit and the message index.
func TestLabelMatchesFormat(t *testing.T) {
	for kind := 0; kind < numKinds; kind++ {
		for bit := 0; bit < 256; bit++ {
			for idx := 0; idx < 256; idx++ {
				var want string
				switch kind {
				case kindSendData, kindDeliverData:
					want = fmt.Sprintf("%s b%d m%d", kindLabels[kind], byte(bit), byte(idx))
				case kindSendAck, kindDeliverAck:
					want = fmt.Sprintf("%s b%d", kindLabels[kind], byte(bit))
				default:
					want = kindLabels[kind]
				}
				if got := string(appendLabel(nil, kind, byte(bit), byte(idx))); got != want {
					t.Fatalf("kind %d bit %d idx %d: label %q, want %q", kind, bit, idx, got, want)
				}
			}
		}
	}
}
