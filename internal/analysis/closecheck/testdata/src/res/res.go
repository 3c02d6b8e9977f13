// Package res exercises closecheck: Acquire/Release,
// trace.OpenFile/Close, and CreateTemp/Rename-or-Remove pairs must
// balance.
package res

import (
	"os"
	"trace"
)

// Handle is a pinned resource.
type Handle struct{ pinned bool }

// Release unpins.
func (h *Handle) Release() {}

// Store hands out handles.
type Store struct{}

// Acquire pins a resource.
func (st *Store) Acquire(name string) (*Handle, error) { return &Handle{pinned: true}, nil }

// Good defers the release right after the error check.
func Good(st *Store) error {
	h, err := st.Acquire("t")
	if err != nil {
		return err
	}
	defer h.Release()
	return nil
}

// Leak holds the handle and drops it.
func Leak(st *Store) {
	h, err := st.Acquire("t") // want `Acquire result is never Released`
	if err != nil {
		return
	}
	h.pinned = true
}

// Discard never even binds the handle.
func Discard(st *Store) {
	_, _ = st.Acquire("t") // want `result of Acquire is discarded`
}

// EarlyReturn leaves between the acquire and the defer.
func EarlyReturn(st *Store, flip bool) error {
	h, err := st.Acquire("t")
	if err != nil {
		return err
	}
	if flip {
		return nil // want `return between Acquire and its deferred Release leaks`
	}
	defer h.Release()
	return nil
}

// Escapes transfers ownership to the caller.
func Escapes(st *Store) (*Handle, error) {
	h, err := st.Acquire("t")
	if err != nil {
		return nil, err
	}
	return h, nil
}

// Stored transfers ownership into a structure.
func Stored(st *Store, sink map[string]*Handle) {
	h, err := st.Acquire("t")
	if err != nil {
		return
	}
	sink["t"] = h
}

// Manual releases directly on the straight path.
func Manual(st *Store) {
	h, err := st.Acquire("t")
	if err != nil {
		return
	}
	h.pinned = true
	h.Release()
}

// StreamGood pairs trace.OpenFile with a deferred Close.
func StreamGood(path string) error {
	fr, err := trace.OpenFile(path)
	if err != nil {
		return err
	}
	defer fr.Close()
	fr.Next()
	return nil
}

// StreamLeak opens and walks away.
func StreamLeak(path string) {
	fr, err := trace.OpenFile(path) // want `OpenFile result is never Closed`
	if err != nil {
		return
	}
	fr.Next()
}

// TempGood removes the temp file on the way out.
func TempGood(dir string) error {
	tmp, err := os.CreateTemp(dir, "x")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	return tmp.Close()
}

// TempRenamed commits the temp file into place.
func TempRenamed(dir, dst string) error {
	tmp, err := os.CreateTemp(dir, "x")
	if err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), dst)
}

// TempLeak neither renames nor removes.
func TempLeak(dir string) error {
	tmp, err := os.CreateTemp(dir, "x") // want `temp file is neither renamed into place nor removed`
	if err != nil {
		return err
	}
	return tmp.Close()
}
