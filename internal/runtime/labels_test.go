package runtime

import (
	"strconv"
	"testing"
	"unsafe"
)

// TestLabelsIntern checks that Labels returns the bytes it was given,
// shares one string between equal labels, allocates nothing once warm,
// and stays bounded when labels never repeat.
func TestLabelsIntern(t *testing.T) {
	var l Labels
	label := func(i int) string {
		b := append(l.Buf(), "p0: v"...)
		return l.Intern(strconv.AppendInt(b, int64(i), 10))
	}
	a := label(7)
	if a != "p0: v7" {
		t.Fatalf("interned %q, want %q", a, "p0: v7")
	}
	if b := label(8); b != "p0: v8" || a != "p0: v7" {
		t.Fatalf("second label %q changed the first to %q", b, a)
	}
	if b := label(7); b != a || unsafe.StringData(b) != unsafe.StringData(a) {
		t.Fatalf("re-interned %q does not share the first %q", b, a)
	}
	if n := testing.AllocsPerRun(100, func() { label(7) }); n != 0 {
		t.Fatalf("a warmed label allocates %v times, want 0", n)
	}
	for i := 0; i < 3*maxLabels; i++ {
		if got, want := label(i), "p0: v"+strconv.Itoa(i); got != want {
			t.Fatalf("label %d: %q, want %q", i, got, want)
		}
		if len(l.m) > maxLabels {
			t.Fatalf("interner holds %d labels, bound is %d", len(l.m), maxLabels)
		}
	}
}
