package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"bpred/internal/sim"
)

// TestStoreConcurrentSameKey hammers one Store with concurrent
// writers and readers of the SAME cache entry — the access pattern of
// bpserved's worker pool, where overlapping jobs add, look up, and
// flush one (trace, warmup)-bound store from many goroutines at once.
// Run under -race this pins the Store's concurrency contract: no data
// races, no lost entries, and a final flush that round-trips every
// fingerprint.
func TestStoreConcurrentSameKey(t *testing.T) {
	dir := t.TempDir()
	var digest [32]byte
	digest[0] = 0xA7
	path := PathFor(dir, digest, 100)
	s, err := Open(path, digest, 100)
	if err != nil {
		t.Fatal(err)
	}

	// Deterministic simulation means re-adding a fingerprint always
	// carries the same metrics, so concurrent same-key writes are
	// idempotent by construction; the store only has to not race.
	metricsFor := func(i int) sim.Metrics {
		return sim.Metrics{Name: fmt.Sprintf("cfg-%d", i), Branches: uint64(1000 + i), Mispredicts: uint64(i)}
	}

	const (
		workers  = 16
		rounds   = 50
		hotKey   = "cfg1|hot"
		distinct = 8 // distinct cold fingerprints per worker
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Same-key contention: everyone writes and reads the
				// hot fingerprint.
				s.Add(hotKey, metricsFor(0))
				if m, ok := s.Lookup(hotKey); ok && m.Branches != 1000 {
					t.Errorf("hot entry corrupted: %+v", m)
					return
				}
				// Plus a per-worker key, so the entry map grows while
				// others iterate it inside Flush.
				k := fmt.Sprintf("cfg1|w%d-%d", w, r%distinct)
				s.Add(k, metricsFor(w*distinct+r%distinct))
				if r%7 == 0 {
					if err := s.Flush(); err != nil {
						t.Errorf("concurrent flush: %v", err)
						return
					}
				}
				// Concurrent re-open of the path a Flush may be
				// renaming over: readers must always see either the
				// old or the new complete file, never a torn one.
				if r%13 == 0 {
					if _, err := os.Stat(path); err == nil {
						if _, err := Open(path, digest, 100); err != nil {
							t.Errorf("concurrent open: %v", err)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	reloaded, err := Open(path, digest, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + workers*distinct
	if reloaded.Len() != want {
		t.Errorf("reloaded %d entries, want %d", reloaded.Len(), want)
	}
	if m, ok := reloaded.Lookup(hotKey); !ok || m.Branches != 1000 {
		t.Errorf("hot entry after reload: %+v ok=%v", m, ok)
	}
}

// TestPathForStable pins the on-disk naming shared by bpsweep -resume
// and bpserved: if this changes, existing caches silently stop
// resuming.
func TestPathForStable(t *testing.T) {
	var digest [32]byte
	for i := range digest {
		digest[i] = byte(i)
	}
	got := PathFor("ckpt", digest, 1000)
	want := filepath.Join("ckpt", "sweep-000102030405060708090a0b-w1000.bpc")
	if got != want {
		t.Errorf("PathFor = %q, want %q", got, want)
	}
}

// TestStoresForSharesOneStore checks the registry's one-Store-per-
// binding rule under concurrent first use (run it under -race): every
// caller of one binding gets the same *Store, and distinct bindings
// get distinct ones.
func TestStoresForSharesOneStore(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		r := NewStores(dir)
		var d1, d2 [32]byte
		d1[0], d2[0] = 1, 2
		bindings := []struct {
			digest [32]byte
			warmup uint64
		}{{d1, 0}, {d1, 100}, {d2, 0}}
		const callers = 16
		got := make([][]*Store, len(bindings))
		for i := range got {
			got[i] = make([]*Store, callers)
		}
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			for i, b := range bindings {
				wg.Add(1)
				go func(i, c int, digest [32]byte, warmup uint64) {
					defer wg.Done()
					s, err := r.For(digest, warmup)
					if err != nil {
						t.Errorf("For: %v", err)
						return
					}
					s.Add(fmt.Sprintf("cfg|%d", c), sim.Metrics{Branches: uint64(c)})
					got[i][c] = s
				}(i, c, b.digest, b.warmup)
			}
		}
		wg.Wait()
		seen := map[*Store]bool{}
		for i, b := range bindings {
			s := got[i][0]
			for c, other := range got[i] {
				if other != s {
					t.Fatalf("dir %q binding %d: caller %d got a second Store", dir, i, c)
				}
			}
			if seen[s] {
				t.Fatalf("dir %q: binding %d shares a Store with another binding", dir, i)
			}
			seen[s] = true
			if s.Len() != callers {
				t.Fatalf("dir %q binding %d: %d entries, want %d", dir, i, s.Len(), callers)
			}
			wantPath := ""
			if dir != "" {
				wantPath = PathFor(dir, b.digest, b.warmup)
			}
			if s.Path() != wantPath {
				t.Fatalf("dir %q binding %d: path %q, want %q", dir, i, s.Path(), wantPath)
			}
		}
		if err := r.FlushAll(); err != nil {
			t.Fatalf("dir %q: FlushAll: %v", dir, err)
		}
	}
}

// TestStoresFlushAll checks FlushAll writes every dirty store, keeps
// going past a failing one, and returns the first error in (digest,
// warmup) order.
func TestStoresFlushAll(t *testing.T) {
	dir := t.TempDir()
	r := NewStores(dir)
	var digests [4][32]byte
	for i := range digests {
		digests[i][0] = byte(i + 1)
		s, err := r.For(digests[i], 7)
		if err != nil {
			t.Fatal(err)
		}
		s.Add("cfg|x", sim.Metrics{Name: "x", Branches: uint64(i)})
	}
	// A non-empty directory where stores 1 and 3 keep their files makes
	// their commits fail at the rename.
	for _, i := range []int{3, 1} {
		if err := os.MkdirAll(filepath.Join(PathFor(dir, digests[i], 7), "keep"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	err := r.FlushAll()
	if err == nil {
		t.Fatal("FlushAll reported no error")
	}
	if want := PathFor(dir, digests[1], 7); !strings.Contains(err.Error(), want) {
		t.Fatalf("FlushAll error %q does not name the first failing store %s", err, want)
	}
	for _, i := range []int{0, 2} {
		s, err := Open(PathFor(dir, digests[i], 7), digests[i], 7)
		if err != nil {
			t.Fatal(err)
		}
		if m, ok := s.Lookup("cfg|x"); !ok || m.Branches != uint64(i) {
			t.Fatalf("store %d after FlushAll: %+v ok=%v", i, m, ok)
		}
	}
}
