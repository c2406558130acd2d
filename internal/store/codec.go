package store

// stringHeaderBytes is a resident payload's slot in the page table: its
// 16-byte string header, whose bytes live in the shard's slab.
const stringHeaderBytes = 16

// sizeOf is the spill backend's per-state resident-byte estimate: the
// payload's slab bytes plus its page-table slot. It only shades the
// reported BytesInRAM, never correctness.
func sizeOf(s string) int64 { return int64(len(s)) + stringHeaderBytes }
