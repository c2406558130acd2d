package store

import (
	"encoding/binary"
	"unsafe"
)

// codec serializes state payloads for segment files. enc appends the
// encoding of s to dst and returns the grown slice — the append form is
// what lets the spill path reuse one scratch buffer per page instead of
// allocating per state. dec decodes one fixed-width state: it may assume
// len(b) == width, which the page decoder checks before calling it. The
// string codec has no dec; the page decoder slices string states out of
// one copy of the page's payload section instead of allocating each.
type codec[S comparable] struct {
	enc   func(dst []byte, s *S) []byte
	dec   func(b []byte) S
	width int
}

// codecFor resolves the payload codec for S: strings encode as their raw
// bytes, integers as 8-byte little-endian. Every canonical state type in
// this repository (encoded protocol strings, small-int toy systems) is
// covered; exotic comparable types return nil and make the spill backend
// fail with ErrNoCodec rather than silently mis-serialize.
func codecFor[S comparable]() *codec[S] {
	var zero S
	switch any(zero).(type) {
	case string:
		return &codec[S]{
			enc: func(dst []byte, s *S) []byte { return append(dst, *any(s).(*string)...) },
		}
	case int:
		return intCodec(func(s *S) uint64 { return uint64(*any(s).(*int)) },
			func(v uint64, s *S) { *any(s).(*int) = int(v) })
	case int8:
		return intCodec(func(s *S) uint64 { return uint64(*any(s).(*int8)) },
			func(v uint64, s *S) { *any(s).(*int8) = int8(v) })
	case int16:
		return intCodec(func(s *S) uint64 { return uint64(*any(s).(*int16)) },
			func(v uint64, s *S) { *any(s).(*int16) = int16(v) })
	case int32:
		return intCodec(func(s *S) uint64 { return uint64(*any(s).(*int32)) },
			func(v uint64, s *S) { *any(s).(*int32) = int32(v) })
	case int64:
		return intCodec(func(s *S) uint64 { return uint64(*any(s).(*int64)) },
			func(v uint64, s *S) { *any(s).(*int64) = int64(v) })
	case uint:
		return intCodec(func(s *S) uint64 { return uint64(*any(s).(*uint)) },
			func(v uint64, s *S) { *any(s).(*uint) = uint(v) })
	case uint8:
		return intCodec(func(s *S) uint64 { return uint64(*any(s).(*uint8)) },
			func(v uint64, s *S) { *any(s).(*uint8) = uint8(v) })
	case uint16:
		return intCodec(func(s *S) uint64 { return uint64(*any(s).(*uint16)) },
			func(v uint64, s *S) { *any(s).(*uint16) = uint16(v) })
	case uint32:
		return intCodec(func(s *S) uint64 { return uint64(*any(s).(*uint32)) },
			func(v uint64, s *S) { *any(s).(*uint32) = uint32(v) })
	case uint64:
		return intCodec(func(s *S) uint64 { return *any(s).(*uint64) },
			func(v uint64, s *S) { *any(s).(*uint64) = v })
	case uintptr:
		return intCodec(func(s *S) uint64 { return uint64(*any(s).(*uintptr)) },
			func(v uint64, s *S) { *any(s).(*uintptr) = uintptr(v) })
	default:
		return nil
	}
}

// intCodec builds a fixed-width codec from the raw-bits accessors of one
// integer state type.
func intCodec[S comparable](get func(*S) uint64, set func(uint64, *S)) *codec[S] {
	return &codec[S]{
		enc: func(dst []byte, s *S) []byte {
			return binary.LittleEndian.AppendUint64(dst, get(s))
		},
		dec: func(b []byte) S {
			var s S
			set(binary.LittleEndian.Uint64(b), &s)
			return s
		},
		width: 8,
	}
}

// stringHeaderBytes is a resident string's slot in the page table: its
// 16-byte header, whose bytes live in the shard's slab.
const stringHeaderBytes = 16

// sizeOf is the spill backend's per-state resident-byte estimate: a
// string's slab bytes plus its page-table slot, or an integer state's size
// (spill refuses every other type, see codecFor). It only shades the
// reported BytesInRAM, never correctness.
func sizeOf[S comparable](s S) int64 {
	if v, ok := any(s).(string); ok {
		return int64(len(v)) + stringHeaderBytes
	}
	return int64(unsafe.Sizeof(s))
}
