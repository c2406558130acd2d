package engine

import "fmt"

// fingerprint maps a state to the 64-bit key used to pick a visited-set
// shard and to index within it. Collisions are tolerated (every hit is
// confirmed against the full state), so the only requirements are
// determinism and reasonable spread.
//
// The state is taken by value: callers reach it through a func value
// (the store's fp), and a pointer argument there would heap-box every
// caller's state. The interface conversion of the type switch does not
// escape, so the string and integer paths stay allocation-free. Exotic
// comparable state types fall back to their fmt rendering — slow but
// correct, and unused by any system in this repository (whose canonical
// states are strings and small ints).
func fingerprint[S comparable](s S) uint64 {
	switch p := any(s).(type) {
	case string:
		return hashString(p)
	case int:
		return mix64(uint64(p))
	case int8:
		return mix64(uint64(p))
	case int16:
		return mix64(uint64(p))
	case int32:
		return mix64(uint64(p))
	case int64:
		return mix64(uint64(p))
	case uint:
		return mix64(uint64(p))
	case uint8:
		return mix64(uint64(p))
	case uint16:
		return mix64(uint64(p))
	case uint32:
		return mix64(uint64(p))
	case uint64:
		return mix64(p)
	case uintptr:
		return mix64(uint64(p))
	default:
		return hashString(fmt.Sprint(s))
	}
}

// hashString is FNV-1a with a splitmix64 finalizer for avalanche.
func hashString(s string) uint64 {
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

// hashBytes is hashString over raw bytes: hashBytes(b) == hashString(
// string(b)) by construction, which is what lets the EmitBytes path
// fingerprint a successor without materializing it.
func hashBytes(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= prime64
	}
	return mix64(h)
}

// fromBytes materializes an EmitBytes successor as the state type, which
// must be string (EmitBytes is a string-state API).
func fromBytes[S comparable](b []byte) S {
	s, ok := any(string(b)).(S)
	if !ok {
		panic("engine: EmitBytes on a non-string state type")
	}
	return s
}

// isStringState reports whether S is string, the precondition of the
// EmitBytes direct path.
func isStringState[S comparable]() bool {
	_, ok := any(*new(S)).(string)
	return ok
}

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler that
// spreads small integers (the typical encoded-state ids) across the full
// 64-bit range.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
