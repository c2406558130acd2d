package sharedmem

import (
	"fmt"
	"testing"

	"repro/internal/runtime"
)

// TestStepLabelMatchesFormat holds appendStepLabel to the format strings
// it replaced, over every byte value of each argument (locals and
// variable values are bytes in the state encoding).
func TestStepLabelMatchesFormat(t *testing.T) {
	check := func(p, v, old, nv int) {
		t.Helper()
		if got, want := string(appendStepLabel(nil, p, v, old, nv, false)), fmt.Sprintf("p%d: v%d %d->%d", p, v, old, nv); got != want {
			t.Fatalf("step label %q, want %q", got, want)
		}
		if got, want := string(appendStepLabel(nil, p, v, old, nv, true)), fmt.Sprintf("p%d requests", p); got != want {
			t.Fatalf("request label %q, want %q", got, want)
		}
	}
	for x := 0; x < 256; x++ {
		check(x, 1, 2, 3)
		check(2, x, 1, 0)
		check(0, 1, x, 9)
		check(7, 0, 10, x)
	}
}

// warmMutex spawns a ticket-lock LiveMutex and steps its processes round
// robin until every label of the run has been interned once.
func warmMutex() []runtime.Proc {
	procs := NewLiveMutex(NewTicketLock(3)).Spawn(1)
	for i := 0; i < 4096; i++ {
		procs[i%len(procs)].Handle(runtime.Action{})
	}
	return procs
}

// TestLiveMutexStepAllocs pins a warmed LiveMutex step, label included,
// at zero allocations.
func TestLiveMutexStepAllocs(t *testing.T) {
	procs := warmMutex()
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		procs[i%len(procs)].Handle(runtime.Action{})
		i++
	}); n != 0 {
		t.Fatalf("a warmed step allocates %v times, want 0", n)
	}
}

// BenchmarkLiveMutexStep is one warmed ticket-lock step (n=3), the
// Handle that the live-refine ticket case runs 16,384 times a run. It
// must read 0 allocs/op.
func BenchmarkLiveMutexStep(b *testing.B) {
	procs := warmMutex()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		procs[i%len(procs)].Handle(runtime.Action{})
	}
}
