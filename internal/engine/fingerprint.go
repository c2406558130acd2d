package engine

import "unsafe"

// fingerprint maps a state's bytes to the 64-bit key used to pick a
// visited-set shard and to index within it: FNV-1a with a splitmix64
// finalizer for avalanche. Collisions are tolerated (every hit is
// confirmed against the full state), so the only requirements are
// determinism and reasonable spread. It is the one hash of every route:
// a state is a string, and an EmitBytes successor is hashed through a
// zero-copy view of its bytes (stringOf), so both hash identically.
func fingerprint(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return mix64(h)
}

// stringOf views b as a string without copying it. The view must not
// outlive b's next write: the engine uses it only to hash b.
func stringOf(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler that
// spreads the FNV state across the full 64-bit range.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
