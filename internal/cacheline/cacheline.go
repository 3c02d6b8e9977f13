// Package cacheline keeps memory that different goroutines write off
// each other's cache lines. The sweep executors simulate neighbouring
// configurations on different cores; without padding, two small
// predictor tables allocated back to back share a 64-byte line, and
// every counter write on one core invalidates the line in the other
// core's cache (false sharing).
package cacheline

import "unsafe"

// Size is the cache-line size assumed: 64 bytes on x86-64 and on the
// common arm64 cores.
const Size = 64

// Pad is one cache line of padding. A struct whose fields are written
// per branch puts a Pad first and a Pad last, so no other allocation's
// bytes share a line with those fields, wherever the allocator places
// the struct.
type Pad [Size]byte

// Make returns a zeroed slice of n elements with at least Size bytes
// of padding on either side, inside the same allocation: every cache
// line the elements touch belongs to that allocation alone. The
// capacity is n, so an append reallocates rather than spilling into
// the padding.
func Make[T any](n int) []T {
	var zero T
	size := max(int(unsafe.Sizeof(zero)), 1)
	pad := (Size + size - 1) / size
	s := make([]T, n+2*pad)
	return s[pad : pad+n : pad+n]
}
