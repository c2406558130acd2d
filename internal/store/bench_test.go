package store

import (
	"encoding/binary"
	"testing"
)

// BenchmarkIntern times one intern per op on every backend: "hit"
// re-interns a state already in the store, "fresh" interns a new one (on
// a store restarted, untimed, every internBenchStates ops, so the
// fingerprint index grows as in a run). Each goes through Intern and
// through InternBytes with the fingerprint precomputed, as the engine's
// EmitBytes path hands it over. The spill store keeps every payload
// resident (no Maintain), so its hits confirm in RAM. Hits allocate
// nothing; run with -benchmem to see it.
func BenchmarkIntern(b *testing.B) {
	const internBenchStates = 1 << 16
	states := testStates(internBenchStates)
	bufs := make([][]byte, len(states))
	hs := make([]uint64, len(states))
	for i, s := range states {
		bufs[i], hs[i] = []byte(s), stringFP(s)
	}
	for _, kind := range []Kind{Mem, Spill, Bitstate} {
		for _, mode := range []string{"hit", "fresh"} {
			for _, path := range []string{"Intern", "InternBytes"} {
				b.Run(string(kind)+"/"+mode+"/"+path, func(b *testing.B) {
					fill := func() *Store {
						st, err := New(Config{Kind: kind, Dir: b.TempDir()}, 32, stringFP)
						if err != nil {
							b.Fatal(err)
						}
						if mode == "hit" {
							for _, s := range states {
								st.Intern(s)
							}
						}
						return st
					}
					st := fill()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						j := i % internBenchStates
						if mode == "fresh" && j == 0 && i > 0 {
							b.StopTimer()
							st.Close()
							st = fill()
							b.StartTimer()
						}
						if path == "Intern" {
							st.Intern(states[j])
						} else {
							st.InternBytes(hs[j], bufs[j])
						}
					}
					b.StopTimer()
					st.Close()
				})
			}
		}
	}
}

// BenchmarkPageEncode is the satellite-fix evidence: the spill write path
// encodes a whole page of states into one reused scratch buffer
// (encodePage), replacing the naive per-state allocation a first cut would
// make. The "naive" variant below is that first cut, kept as the
// before/after baseline quoted in EXPERIMENTS.md.
func BenchmarkPageEncode(b *testing.B) {
	st, err := New(Config{Kind: Spill, Dir: b.TempDir()}, 1, stringFP)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	pageSize := st.pages.size
	pg := &page{slots: testStates(pageSize)}

	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var raw []byte
			raw = binary.LittleEndian.AppendUint32(raw, uint32(pageSize))
			offs := make([]uint32, 0, pageSize+1)
			offs = append(offs, 0)
			var payload []byte
			for j := range pg.slots {
				enc := make([]byte, 0, len(pg.slots[j]))
				enc = append(enc, pg.slots[j]...)
				payload = append(payload, enc...)
				offs = append(offs, uint32(len(payload)))
			}
			for _, o := range offs {
				raw = binary.LittleEndian.AppendUint32(raw, o)
			}
			raw = append(raw, payload...)
			if len(raw) == 0 {
				b.Fatal("empty page image")
			}
		}
	})

	b.Run("scratch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			raw, _ := st.spill.encodePage(pg, pageSize)
			if len(raw) == 0 {
				b.Fatal("empty page image")
			}
		}
	})
}

// BenchmarkSpillReadBack times one read-back of a spilled page the cache
// does not hold: the segment read, decompression, checksum and decode. It
// cycles through more pages than the cache holds, so every op misses. The
// pages are full (2^defaultPageBits states), so besides the slot array and
// the payload block, allocs/op counts the link tables flate's Huffman
// decoder makes for every block whose codes are longer than 9 bits.
func BenchmarkSpillReadBack(b *testing.B) {
	st, _ := spilledStore(b, defaultPageBits, 4*pageCacheSize<<defaultPageBits)
	pages := int(st.spill.spilledTo.Load())
	read := func(k int) { st.State(int32((k % pages) << defaultPageBits)) }
	for k := 0; k < pages; k++ {
		read(k)
	}
	reads := st.spill.segReads.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read(i)
	}
	b.StopTimer()
	if got := st.spill.segReads.Load() - reads; got != uint64(b.N) {
		b.Fatalf("%d segment reads in %d ops, want one per op", got, b.N)
	}
	if err := st.Err(); err != nil {
		b.Fatal(err)
	}
}
