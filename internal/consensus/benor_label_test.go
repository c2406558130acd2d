package consensus

import (
	"fmt"
	"testing"
)

// fmtBenOrLabel is the fmt rendering appendBenOrLabel replaced.
func fmtBenOrLabel(kind, ph int, val byte, from, to int, coins []byte) string {
	k := byte('R')
	if kind == benOrKindP {
		k = 'P'
	}
	v := "?"
	if val != benOrBot {
		v = string('0' + val)
	}
	lbl := fmt.Sprintf("deliver %c%d v%s p%d->p%d", k, ph, v, from, to)
	if len(coins) > 0 {
		buf := make([]byte, len(coins))
		for i, c := range coins {
			buf[i] = '0' + c
		}
		lbl += " coins=" + string(buf)
	}
	return lbl
}

// TestBenOrLabelMatchesFormat holds appendBenOrLabel to fmtBenOrLabel
// over both waves, phases 1..64, every byte value, processes 0..255 and
// every coin sequence up to six flips.
func TestBenOrLabelMatchesFormat(t *testing.T) {
	check := func(kind, ph int, val byte, from, to int, coins []byte) {
		t.Helper()
		if got, want := string(appendBenOrLabel(nil, kind, ph, val, from, to, coins)), fmtBenOrLabel(kind, ph, val, from, to, coins); got != want {
			t.Fatalf("label %q, want %q", got, want)
		}
	}
	for kind := 0; kind < 2; kind++ {
		for ph := 1; ph <= 64; ph++ {
			check(kind, ph, 1, 0, 2, nil)
		}
		for val := 0; val < 256; val++ {
			check(kind, 3, byte(val), 1, 0, nil)
		}
		for p := 0; p < 256; p++ {
			check(kind, 2, 0, p, 1, nil)
			check(kind, 2, benOrBot, 1, p, nil)
		}
		for n := 1; n <= 6; n++ {
			for bits := 0; bits < 1<<n; bits++ {
				coins := make([]byte, n)
				for i := range coins {
					coins[i] = byte(bits >> i & 1)
				}
				check(kind, 1, benOrBot, 2, 0, coins)
			}
		}
	}
}
