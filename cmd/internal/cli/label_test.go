package cli

import (
	"testing"

	"repro/internal/core"
)

func TestPrintableLabel(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"", ""},
		{"p0: v1 0->1", "p0: v1 0->1"},
		{`send "x" \ y`, `send "x" \ y`},
		{"deliver 0>0:\x00wake", `deliver 0>0:\x00wake`},
		{"a\tb\x7f", `a\tb\x7f`},
		{"\xff\u00e9\u2028", `\xffé\u2028`},
	} {
		if got := PrintableLabel(c.in); got != c.want {
			t.Errorf("PrintableLabel(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestPrintableTrace checks that a trace of printable labels renders as
// core.Trace's String does, and that a NUL never reaches the output.
func TestPrintableTrace(t *testing.T) {
	tr := core.Trace{{Label: "deliver 0>1:1", Actor: 1}, {Label: "crash p2", Actor: core.EnvironmentActor}}
	if got, want := PrintableTrace(tr), tr.String(); got != want {
		t.Errorf("printable trace\n%s\nwant\n%s", got, want)
	}
	tr = append(tr, core.TraceEvent{Label: "deliver 0>0:\x00wake", Actor: 0})
	if got, want := PrintableTrace(tr), tr[:2].String()+"\n  3. p0   deliver 0>0:\\x00wake"; got != want {
		t.Errorf("printable trace\n%s\nwant\n%s", got, want)
	}
	if tr[2].Label != "deliver 0>0:\x00wake" {
		t.Errorf("PrintableTrace rewrote the trace's own label to %q", tr[2].Label)
	}
}
