package ring

import (
	"fmt"
	"testing"
)

// TestDeliverLabelMatchesFormat holds appendDeliverLabel to the format
// string it replaced, over ids and positions from 0 to 255 and a few
// beyond (live-only rings may carry any int id).
func TestDeliverLabelMatchesFormat(t *testing.T) {
	for _, x := range append(seq(256), -1, 1000, 1<<40) {
		for _, c := range [][2]int{{x, 3}, {5, x}} {
			if got, want := string(appendDeliverLabel(nil, c[0], c[1])), fmt.Sprintf("deliver id %d to p%d", c[0], c[1]); got != want {
				t.Fatalf("label %q, want %q", got, want)
			}
		}
	}
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
