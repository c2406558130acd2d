package engine

// Ctx is the expansion context the engine hands to an ExpandFunc: the
// revised expand API that makes the hot path allocation-free. A worker
// owns one Ctx for the whole run and passes the same pointer to every
// expansion it performs, so everything reachable from it — the scratch
// buffer, the system's private scratch, the label interner — is reused
// across states without synchronization.
//
// Buffer-ownership contract (the aliasing rules VerifyAliasing falsifies):
//
//   - Scratch and any system-owned buffers may be freely overwritten
//     during an expansion, but their contents are garbage once ExpandFunc
//     returns: the next expansion (of an arbitrary state, possibly after a
//     level barrier) reuses them.
//   - Bytes passed to EmitBytes are fully consumed before EmitBytes
//     returns; the system may overwrite them immediately afterwards.
//     Conversely the system must NOT retain them either — the engine may
//     hand the same backing array back as Scratch later.
//   - Label strings passed to Emit/EmitBytes/Label are immutable Go
//     strings and may be retained by the engine indefinitely (each
//     distinct label lands once in Result.Labels; edges refer to it by
//     id), so systems must not build them over reused backing arrays via
//     unsafe.
type Ctx[S ~string] struct {
	// Scratch is a reusable byte buffer owned by the expanding worker.
	// Systems may slice, grow and overwrite it freely during one expansion
	// (writing the grown slice back so capacity accumulates); its contents
	// do not survive across expansions, and under Options.VerifyAliasing
	// they are actively poisoned in between.
	Scratch []byte
	// Sys is system-owned per-worker scratch storage: a system that needs
	// typed buffers (parsed state, successor assembly, …) lazily installs
	// its scratch struct here on first use and finds it again on every
	// later expansion by the same worker. The engine never touches it.
	Sys any

	e *explorer[S]
	w *worker[S]
	// sink, when non-nil, switches the context to collect mode: Emit
	// routes transitions to it instead of interning, and EmitBytes
	// materializes the raw successor for it (the POR relations read
	// Action.To). Used by the POR action-collection pass, whose sink
	// canonicalizes through the worker's byte canonicalizer when one is
	// installed, the sampled soundness checks, and CollectCtx (where e
	// and w stay nil).
	sink func(to S, label string, actor int)
	// bytesSink, when non-nil alongside sink, receives EmitBytes'
	// successors as the raw bytes, unmaterialized (CollectBytesCtx).
	bytesSink func(to []byte, label string, actor int)
	// labels is the per-context label interner backing Label.
	labels map[string]string
}

// Emit records one successor of the state being expanded. The label
// string is retained by the engine (its first occurrence becomes an entry
// of Result.Labels, which the edge then refers to by id); use Label to
// build it allocation-free from scratch bytes.
func (x *Ctx[S]) Emit(to S, label string, actor int) {
	if x.sink != nil {
		x.sink(to, label, actor)
		return
	}
	e, ws := x.e, x.w
	if e.canon != nil {
		to = e.canonicalize(to, ws)
	}
	e.intern(ws, to, label, actor)
}

// EmitBytes is Emit for a successor handed over as its raw encoded bytes:
// the successor state is S(to), but on the direct path the engine
// fingerprints, canonicalizes and interns the bytes without ever
// materializing that string — a dedup hit (the common case) allocates
// nothing at all. The bytes are fully consumed before EmitBytes returns.
//
// Under a canonicalizer the direct path requires Options.CanonBytes;
// without it EmitBytes transparently falls back to materializing the
// string and calling Emit, so systems can use it unconditionally. Either
// way a canonicalizer runs in its byte form when CanonBytes is set; only
// the direct path keeps the raw→id memo.
//
// On a fine-sampled state the canonicalization section (memo lookup, raw
// fingerprint bookkeeping, representative render) and the hash+intern
// section are timed separately; a memo hit records its true near-zero
// canon cost rather than re-paying the pipeline.
func (x *Ctx[S]) EmitBytes(to []byte, label string, actor int) {
	if x.sink != nil || !x.e.bytesDirect {
		if x.bytesSink != nil {
			x.bytesSink(to, label, actor)
			return
		}
		x.Emit(S(to), label, actor)
		return
	}
	e, ws := x.e, x.w
	t := ws.clock()
	if e.canon == nil {
		h := e.fp(stringOf(to))
		tid, fresh := e.store.InternBytes(h, to)
		ws.lap(sampleIntern, t)
		ws.record(tid, fresh, label, actor)
		return
	}
	if ent, ok := ws.canonMemo[string(to)]; ok {
		// Memo hit: this worker already canonicalized these exact raw
		// bytes, so the id, the remap bit, and the rawSeen entry are all
		// known — no hashing, no candidate renders. The successor is
		// necessarily already interned, hence the unconditional dedup.
		ws.lap(sampleCanon, t)
		if ent.remapped {
			ws.canonHits++
		}
		ws.record(ent.id, false, label, actor)
		return
	}
	// With the memo, the sampled check inside canonBytes runs on each
	// worker's first emission of a given raw encoding.
	h := e.fp(stringOf(to))
	rep, remapped := e.canonBytes(ws, to, h)
	rawKey := string(to) // the one allocation per distinct raw encoding
	if remapped {
		h = e.fp(stringOf(rep))
	}
	t = ws.lap(sampleCanon, t)
	tid, fresh := e.store.InternBytes(h, rep)
	ws.lap(sampleIntern, t)
	if len(ws.canonMemo) >= canonMemoCap || ws.canonMemo == nil {
		ws.canonMemo = make(map[string]canonMemoEntry)
	}
	ws.canonMemo[rawKey] = canonMemoEntry{id: tid, remapped: remapped}
	ws.record(tid, fresh, label, actor)
}

// Label interns a label string built in a scratch buffer: the first
// expansion to produce a given byte sequence pays one string allocation,
// every later occurrence is an allocation-free map hit. State spaces have
// a tiny label alphabet relative to their edge count, so the map stays
// small while the hot path stops concatenating label strings per edge.
func (x *Ctx[S]) Label(b []byte) string {
	if s, ok := x.labels[string(b)]; ok {
		return s
	}
	s := string(b)
	if x.labels == nil {
		x.labels = make(map[string]string)
	}
	x.labels[s] = s
	return s
}

// CollectCtx builds a standalone collect-mode context outside any run:
// Emit and EmitBytes route every transition to sink (EmitBytes by
// materializing the state), and Scratch, Sys and Label behave as on a
// real context, so reusing one CollectCtx across expansions reuses the
// system's scratch exactly as an engine worker does. It allocates only the
// Ctx itself. Differential's reference BFS expands every state through
// one; core.StepsOf and the equivalence tests use it to materialize a
// single state's transitions.
func CollectCtx[S ~string](sink func(to S, label string, actor int)) *Ctx[S] {
	return &Ctx[S]{sink: sink}
}

// CollectBytesCtx is CollectCtx that hands EmitBytes' successors to sink
// as the raw bytes, valid only until sink returns, without materializing
// them (Emit's strings are converted). A per-system ExpandInto
// microbenchmark expands through one, so its allocation count is the
// system's own.
func CollectBytesCtx(sink func(to []byte, label string, actor int)) *Ctx[string] {
	return &Ctx[string]{
		sink:      func(to, label string, actor int) { sink([]byte(to), label, actor) },
		bytesSink: sink,
	}
}
