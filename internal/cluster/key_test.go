package cluster

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"bpred/internal/core"
)

func testDigest(seed byte) [32]byte {
	return sha256.Sum256([]byte{seed})
}

// testFingerprints returns real core.Config fingerprints spanning the
// scheme families (they contain '|' separators, the tricky case for
// the key codec).
func testFingerprints(t *testing.T) []string {
	t.Helper()
	cfgs := []core.Config{
		{Scheme: core.SchemeAddress, RowBits: 0, ColBits: 10},
		{Scheme: core.SchemeGShare, RowBits: 8, ColBits: 12},
		{Scheme: core.SchemePath, RowBits: 6, ColBits: 10, PathBits: 4},
		{Scheme: core.SchemePAs, RowBits: 4, ColBits: 10, FirstLevel: core.FirstLevel{Kind: core.FirstLevelPerfect}},
	}
	fps := make([]string, 0, len(cfgs))
	for _, c := range cfgs {
		fps = append(fps, c.Fingerprint())
	}
	return fps
}

func TestKeyStringMatchesServiceCellKey(t *testing.T) {
	d := testDigest(1)
	k := Key{Digest: d, Warmup: 500, Fingerprint: "cfg1|s2|r8|c12"}
	want := fmt.Sprintf("%x|%d|%s", d[:], 500, "cfg1|s2|r8|c12")
	if k.String() != want {
		t.Fatalf("Key.String() = %q, want the service cell-key form %q", k.String(), want)
	}
}

// TestKeyStringInjective checks that distinct cell keys never share a
// string, over every combination of a small corpus whose fingerprints
// include '|' separators, empty strings and warmup-like prefixes.
func TestKeyStringInjective(t *testing.T) {
	fps := append(testFingerprints(t), "", "|", "||", "5|x", "0|cfg1|s2", "x|", "pipes|every|where")
	seen := map[string]Key{}
	for i := byte(0); i < 3; i++ {
		for _, warmup := range []uint64{0, 1, 5, 10, 50, 500, 1 << 40} {
			for _, fp := range fps {
				k := Key{Digest: testDigest(i), Warmup: warmup, Fingerprint: fp}
				if other, ok := seen[k.String()]; ok {
					t.Fatalf("keys %+v and %+v share the string %q", other, k, k.String())
				}
				seen[k.String()] = k
			}
		}
	}
}

// FuzzKeyStringInjective checks that two distinct keys never render
// to the same string.
func FuzzKeyStringInjective(f *testing.F) {
	d0, d1 := testDigest(0), testDigest(1)
	for _, seed := range []struct {
		d1  []byte
		w1  uint64
		fp1 string
		d2  []byte
		w2  uint64
		fp2 string
	}{
		{d0[:], 1, "2|x", d0[:], 12, "x"},
		{d0[:], 5, "|cfg1", d0[:], 5, "cfg1"},
		{d0[:], 0, "cfg1|s2|r8|c12", d1[:], 0, "cfg1|s2|r8|c12"},
		{d0[:], 10, "", d0[:], 1, "0|"},
		{d0[:], 0, "pipes|every|where", d0[:], 0, "pipes|every"},
		{d0[:], 500, "weird fp with spaces", d0[:], 500, "weird fp with spaces"},
		{[]byte("short"), 0, "|", nil, 0, "||"},
	} {
		f.Add(seed.d1, seed.w1, seed.fp1, seed.d2, seed.w2, seed.fp2)
	}
	f.Fuzz(func(t *testing.T, d1 []byte, w1 uint64, fp1 string, d2 []byte, w2 uint64, fp2 string) {
		k1 := Key{Warmup: w1, Fingerprint: fp1}
		k2 := Key{Warmup: w2, Fingerprint: fp2}
		copy(k1.Digest[:], d1)
		copy(k2.Digest[:], d2)
		if k1 != k2 && k1.String() == k2.String() {
			t.Fatalf("keys %+v and %+v share the string %q", k1, k2, k1.String())
		}
	})
}
