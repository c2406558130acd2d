package engine

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
)

// pointerFree reports the first field path of t whose kind the garbage
// collector must scan (pointer, string, slice, map, interface, channel,
// func), or "" when t holds plain data only.
func pointerFree(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if bad := pointerFree(f.Type, path+"."+f.Name); bad != "" {
				return bad
			}
		}
		return ""
	case reflect.Array:
		return pointerFree(t.Elem(), path+"[]")
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	}
	return path + " (" + t.Kind().String() + ")"
}

// TestEdgeLayoutIsPointerFree: every edge is stored once, in a worker
// arena that becomes the Result's storage, and every state has a span
// locating its row, so a pointer in either type (a label string, say, or a
// chunk pointer) makes the garbage collector scan every edge or state of
// the graph on every cycle.
func TestEdgeLayoutIsPointerFree(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(Edge{}), reflect.TypeOf(span{})} {
		if bad := pointerFree(typ, typ.Name()); bad != "" {
			t.Errorf("%s holds a GC-scanned field: %s", typ.Name(), bad)
		}
		if size := typ.Size(); size != 12 {
			t.Errorf("%s is %d bytes, want 12", typ.Name(), size)
		}
	}
}

// TestEdgeOverflowIsAnError: an edge count past what the 32-bit edge
// indices address must fail the run, never wrap.
func TestEdgeOverflowIsAnError(t *testing.T) {
	// The 6×6 grid has 2·6·5 = 60 edges.
	if _, err := Explore([]string{"0,0"}, gridExpand(6), Options{maxEdges: 60}); err != nil {
		t.Fatalf("60 edges under a bound of 60: %v", err)
	}
	for _, par := range []int{1, 2} {
		res, err := Explore([]string{"0,0"}, gridExpand(6), Options{Parallelism: par, maxEdges: 59})
		if !errors.Is(err, ErrEdgeOverflow) || res != nil {
			t.Fatalf("par %d: err = %v, result %v; want ErrEdgeOverflow and no result", par, err, res != nil)
		}
	}
}

// TestGraphBytes: the byte accounting covers at least the arrays the
// layout holds for the 30×30 grid (900 states, 1,740 edges).
func TestGraphBytes(t *testing.T) {
	var st Stats
	res, err := Explore([]string{"0,0"}, gridExpand(30), Options{Parallelism: 2, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	n, e := int64(len(res.States)), int64(res.NumEdges())
	if min := 4*(n+1) + 12*e + 4*n + 4*n; st.GraphBytes < min {
		t.Fatalf("GraphBytes = %d, want at least %d", st.GraphBytes, min)
	}
	if st.ArenaBytes < 12*e {
		t.Fatalf("ArenaBytes = %d, want at least %d", st.ArenaBytes, 12*e)
	}
	if snap := st.Snapshot(); snap.GraphBytes != st.GraphBytes || snap.ArenaBytes != st.ArenaBytes {
		t.Fatalf("snapshot bytes %d/%d, stats %d/%d", snap.GraphBytes, snap.ArenaBytes, st.GraphBytes, st.ArenaBytes)
	}
}

// TestReplayKeepsOneCopyOfTheEdges bounds what an exploration whose bytes
// are nearly all edges allocates per edge: the long-row system over 2,000
// states, which allocates nothing per edge, records about 390,000 edges.
// Each edge is 12 B in its worker's arena, and replay rewrites it there
// instead of copying it into a second array; chunk slack, the row
// prefixes chunk ends moved and the span pages take about 5 B more. The
// measured 17.2 B/edge, with 10% headroom, is the bound; a replay that
// copies the edges into a second array measured 29.2.
func TestReplayKeepsOneCopyOfTheEdges(t *testing.T) {
	const n = 2000
	var least float64
	for k := range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := Explore([]string{"0"}, longRowExpand(n), Options{Parallelism: 2})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		b := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.NumEdges())
		if k == 0 || b < least {
			least = b
		}
	}
	t.Logf("%.1f B/edge", least)
	if bound := 1.1 * 17.2; least > bound {
		t.Fatalf("exploration allocates %.1f B/edge, want at most %.1f", least, bound)
	}
}
