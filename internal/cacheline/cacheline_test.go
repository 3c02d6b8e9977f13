package cacheline

import (
	"testing"
	"unsafe"
)

// lines returns the first and last cache line a slice's elements touch.
func lines[T any](s []T) (lo, hi uintptr) {
	var zero T
	first := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	last := first + uintptr(len(s))*unsafe.Sizeof(zero) - 1
	return first / Size, last / Size
}

// checkDisjoint allocates slices back to back, as a sweep builds its
// configurations, and fails if any two share a cache line.
func checkDisjoint[T any](t *testing.T, name string, n int) {
	t.Helper()
	const count = 64
	type span struct{ lo, hi uintptr }
	spans := make([]span, count)
	for i := range spans {
		s := Make[T](n)
		if len(s) != n || cap(s) != n {
			t.Fatalf("%s n=%d: len %d cap %d, want %d", name, n, len(s), cap(s), n)
		}
		spans[i].lo, spans[i].hi = lines(s)
	}
	for i := range spans {
		for j := i + 1; j < count; j++ {
			a, b := spans[i], spans[j]
			if a.lo <= b.hi && b.lo <= a.hi {
				t.Fatalf("%s n=%d: slices %d and %d share cache lines %v and %v", name, n, i, j, a, b)
			}
		}
	}
}

func TestMakeNoSharedLines(t *testing.T) {
	for _, n := range []int{1, 3, 16, 63, 64, 65, 1000} {
		checkDisjoint[uint8](t, "uint8", n)
		checkDisjoint[uint32](t, "uint32", n)
		checkDisjoint[uint64](t, "uint64", n)
		checkDisjoint[[3]byte](t, "[3]byte", n)
	}
	if s := Make[uint64](0); len(s) != 0 || cap(s) != 0 {
		t.Fatalf("Make(0): len %d cap %d", len(s), cap(s))
	}
}
