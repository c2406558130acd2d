package engine

import (
	"errors"
	"math"
	"slices"
	"strconv"
	"testing"
)

// longRowExpand is a system over the decimal strings of [0, n) whose rows
// are longer than a worker's first edge chunk and of irregular length, so
// rows keep crossing chunk ends; state 0's row is longer than the largest
// regular chunk. Successors repeat within a row, so a row records
// duplicate edges as well. They are emitted as bytes from the scratch
// buffer, so the system allocates nothing per edge.
func longRowExpand(n int) ExpandFunc {
	labels := make([]string, 7)
	for i := range labels {
		labels[i] = "l" + strconv.Itoa(i)
	}
	return func(state string, x *Ctx) {
		s := atoi(state)
		deg := firstChunkEdges + 1 + s*7919%(3*firstChunkEdges)
		if s == 0 {
			deg = maxChunkEdges + 100
		}
		for j := 0; j < deg; j++ {
			x.Scratch = strconv.AppendInt(x.Scratch[:0], int64((s*13+j*31+1)%n), 10)
			x.EmitBytes(x.Scratch, labels[j%len(labels)], j%3)
		}
	}
}

// TestLongRowsMatchReference: rows longer than the first chunk and rows
// that cross chunk ends replay to the reference BFS's graph, labels and
// parent edges at 1, 2 and 8 workers, with every row re-read by the
// aliasing check.
func TestLongRowsMatchReference(t *testing.T) {
	const n = 2000
	rep, err := Differential(DiffSpec{
		Name:           "long-rows",
		Inits:          []string{"0"},
		Expand:         longRowExpand(n),
		VerifyAliasing: 1,
		Workers:        []int{1, 2, 8},
		Truth:          &DiffTruth{States: n},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Modes[0].Stats
	if st.Edges < 100*n || st.ArenaBytes < int64(st.Edges)*edgeBytes {
		t.Fatalf("%d edges in %d arena bytes: want long rows, all held by the arena", st.Edges, st.ArenaBytes)
	}
}

// TestEdgeArenaRows records rows of many lengths, including one longer
// than the largest regular chunk, and reads each back whole through its
// span; rows that cross a chunk end must have moved, and the count of
// recorded edges must exclude the moved prefixes.
func TestEdgeArenaRows(t *testing.T) {
	e := &explorer{wbits: workerBits(3)}
	for range 3 {
		e.workers = append(e.workers, &worker{arena: edgeArena{lastChunk: math.MaxInt32 >> e.wbits}})
	}
	const w = 2
	a := &e.workers[w].arena
	var rows [][]Edge
	var spans []span
	total := 0
	for i := 0; i < 600; i++ {
		n := i * 37 % 150
		if i == 300 {
			n = maxChunkEdges + 5
		}
		row := make([]Edge, n)
		a.beginRow()
		for j := range row {
			row[j] = Edge{To: int32(i), Actor: int32(j), Label: uint32(n)}
			a.add(row[j])
		}
		rows = append(rows, row)
		spans = append(spans, a.endRow(w, e.wbits))
		total += n
	}
	if a.edges() != total {
		t.Fatalf("arena counts %d edges, recorded %d", a.edges(), total)
	}
	moved := 0
	for i, sp := range spans {
		gotW, got := e.row(sp)
		if len(rows[i]) > 0 && gotW != w {
			t.Fatalf("row %d reads as worker %d's, want %d", i, gotW, w)
		}
		if !slices.Equal(got, rows[i]) {
			t.Fatalf("row %d (%d edges) reads back %d edges, or different ones", i, len(rows[i]), len(got))
		}
		if sp.n > 0 && sp.off == 0 && i > 0 {
			moved++
		}
	}
	if moved < 5 || len(a.chunks) < 8 {
		t.Fatalf("%d rows started a chunk across %d chunks; want rows crossing chunk ends", moved, len(a.chunks))
	}
	if a.bytes() < int64(total)*edgeBytes {
		t.Fatalf("arena accounts %d bytes for %d edges", a.bytes(), total)
	}
}

// TestEdgeArenaOverflowIsAnError: a chunk index past what span.loc can
// address fails the arena with ErrEdgeOverflow instead of wrapping.
func TestEdgeArenaOverflowIsAnError(t *testing.T) {
	a := edgeArena{lastChunk: 1}
	a.beginRow()
	for i := 0; i < 3*firstChunkEdges; i++ {
		a.add(Edge{To: int32(i)})
	}
	if !errors.Is(a.err, ErrEdgeOverflow) || len(a.chunks) != 2 {
		t.Fatalf("err = %v with %d chunks, want ErrEdgeOverflow at 2", a.err, len(a.chunks))
	}
}

// TestSpanTableRampCoversIDsOnce: the span table's pages ramp from
// 2^firstSpanBits to 2^spanPageBits spans, grow only to cover the ids
// asked for, and give every id its own slot.
func TestSpanTableRampCoversIDsOnce(t *testing.T) {
	var tab spanTable
	const n = 3<<spanPageBits + 5
	tab.grow(n)
	for k, pg := range tab.pages {
		want := 1 << spanPageBits
		if k < spanPageBits-firstSpanBits {
			want = 1 << (firstSpanBits + k)
		}
		if len(pg) != want {
			t.Fatalf("page %d holds %d spans, want %d", k, len(pg), want)
		}
	}
	if last := len(tab.pages[len(tab.pages)-1]); tab.n < n || tab.n-last >= n {
		t.Fatalf("%d pages hold %d spans for %d ids", len(tab.pages), tab.n, n)
	}
	for id := int32(0); id < n; id++ {
		*tab.at(id) = span{off: id}
	}
	for id := int32(0); id < n; id++ {
		if got := tab.at(id).off; got != id {
			t.Fatalf("id %d reads span of id %d", id, got)
		}
	}
}
