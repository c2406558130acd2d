package cli

import (
	"strconv"
	"unicode/utf8"

	"repro/internal/core"
)

// PrintableTrace renders t as core.Trace's String does, with each label
// passed through PrintableLabel. Labels are the bytes that digests hash,
// so they stay as the systems emit them; this is the rendering for
// people at the output edge.
func PrintableTrace(t core.Trace) string {
	out := make(core.Trace, len(t))
	for i, ev := range t {
		ev.Label = PrintableLabel(ev.Label)
		out[i] = ev
	}
	return out.String()
}

// PrintableLabel returns label with every rune that is not printable, and
// every byte that is not UTF-8, written as a Go escape: the flp wake
// delivery "deliver 0>0:\x00wake" comes out with a literal `\x00` where it
// holds a NUL. A label of printable text comes back unchanged.
func PrintableLabel(label string) string {
	var out []byte
	for i := 0; i < len(label); {
		r, size := utf8.DecodeRuneInString(label[i:])
		bad := r == utf8.RuneError && size == 1
		if !bad && strconv.IsPrint(r) {
			if out != nil {
				out = append(out, label[i:i+size]...)
			}
			i += size
			continue
		}
		if out == nil {
			out = append([]byte(nil), label[:i]...)
		}
		if bad {
			out = append(out, `\x`...)
			out = append(out, "0123456789abcdef"[label[i]>>4], "0123456789abcdef"[label[i]&15])
		} else {
			q := strconv.QuoteRune(r)
			out = append(out, q[1:len(q)-1]...)
		}
		i += size
	}
	if out == nil {
		return label
	}
	return string(out)
}
