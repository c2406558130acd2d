package synth

import (
	"sync"
	"sync/atomic"
)

// This file holds the two pieces every table search shares: the dense
// reachability walk a pair checker runs, and the parallel loop that
// feeds table pairs to per-worker checkers. The mutex searches here and
// the consensus search in package registers both run on them.

// Walk is a reusable depth-first reachability walk over dense state
// indices 0..n-1. Reached states are a bitset and pending ones an
// explicit stack; both keep their storage across Reset, so a warmed walk
// allocates nothing.
type Walk struct {
	seen    []uint64
	stack   []int32
	reached int
}

// Reset empties the walk for a space of n states.
func (w *Walk) Reset(n int) {
	words := (n + 63) >> 6
	if cap(w.seen) < words {
		w.seen = make([]uint64, words)
	} else {
		w.seen = w.seen[:words]
		clear(w.seen)
	}
	w.stack = w.stack[:0]
	w.reached = 0
}

// Add marks state s reached and queues it for Next, reporting whether s
// was new.
func (w *Walk) Add(s int) bool {
	word, bit := s>>6, uint64(1)<<(s&63)
	if w.seen[word]&bit != 0 {
		return false
	}
	w.seen[word] |= bit
	w.stack = append(w.stack, int32(s))
	w.reached++
	return true
}

// Next pops a queued state; ok is false once no state is pending.
func (w *Walk) Next() (s int, ok bool) {
	if len(w.stack) == 0 {
		return 0, false
	}
	s = int(w.stack[len(w.stack)-1])
	w.stack = w.stack[:len(w.stack)-1]
	return s, true
}

// Has reports whether state s has been reached.
func (w *Walk) Has(s int) bool { return w.seen[s>>6]&(uint64(1)<<(s&63)) != 0 }

// Reached is the number of distinct states reached since Reset.
func (w *Walk) Reached() int { return w.reached }

// pairSearchChunk is how many table rows a worker claims from the shared
// cursor at a time: large enough to amortize the atomic add, small enough
// to balance the wildly uneven row costs (in the asymmetric searches row i
// covers len(tables)-i pairs).
const pairSearchChunk = 16

// SearchPairs checks table pairs in parallel, one worker per element of
// scratch. Row i covers the pairs (i, j) for j in [lo, hi) = cols(i).
// Workers claim chunks of rows from a shared cursor and call check with
// their own scratch; check reports whether the pair is a witness, or an
// error that ends the search.
//
// The witness returned is deterministic at any worker count: a CAS-min
// over the packed (i, j) key keeps the one with the smallest enumeration
// index, whichever worker found it first. With stopAtFirst, a row ends at
// its first witness and no row past the best witness's row is checked, so
// how many pairs were checked then depends on scheduling; the witness does
// not. found is false when no pair passed.
func SearchPairs[S any](scratch []S, rows int, cols func(i int) (lo, hi int), stopAtFirst bool,
	check func(sc S, i, j int) (bool, error)) (wi, wj int, found bool, err error) {
	const noWitness = ^uint64(0)
	var best atomic.Uint64
	best.Store(noWitness)
	// pastBest reports whether row i lies after the best witness's row;
	// with no witness yet the packed row is 0xffffffff and nothing does.
	pastBest := func(i int) bool { return stopAtFirst && uint64(i) > best.Load()>>32 }

	var (
		cursor   atomic.Int64
		failed   atomic.Bool
		mu       sync.Mutex // guards firstErr
		firstErr error
		wg       sync.WaitGroup
	)
	for _, sc := range scratch {
		wg.Add(1)
		go func(sc S) {
			defer wg.Done()
			for {
				lo := int(cursor.Add(pairSearchChunk)) - pairSearchChunk
				if lo >= rows || failed.Load() || pastBest(lo) {
					return
				}
				hi := min(lo+pairSearchChunk, rows)
				for i := lo; i < hi; i++ {
					jlo, jhi := cols(i)
					for j := jlo; j < jhi; j++ {
						if failed.Load() || pastBest(i) {
							return
						}
						ok, err := check(sc, i, j)
						if err != nil {
							mu.Lock()
							if firstErr == nil {
								firstErr = err
							}
							mu.Unlock()
							failed.Store(true)
							return
						}
						if !ok {
							continue
						}
						storeMin(&best, uint64(i)<<32|uint64(j))
						if stopAtFirst {
							break
						}
					}
				}
			}
		}(sc)
	}
	wg.Wait()
	if firstErr != nil {
		return 0, 0, false, firstErr
	}
	if key := best.Load(); key != noWitness {
		return int(key >> 32), int(key & 0xffffffff), true, nil
	}
	return 0, 0, false, nil
}

// storeMin lowers *a to key unless it already holds a smaller value.
func storeMin(a *atomic.Uint64, key uint64) {
	for {
		cur := a.Load()
		if key >= cur || a.CompareAndSwap(cur, key) {
			return
		}
	}
}
