package diff

// Differential fuzzing for the modern families (DESIGN.md §15): the
// same (trace seed, length, geometry, warmup, chunk) surface as the
// 1996 targets, with the per-family knobs — TAGE table counts,
// geometric history spans, tag widths, and aging periods; perceptron
// weight widths and thresholds; tournament chooser sizes — hashed
// from extra geometry words. `make diff-fuzz` and `make fuzz-smoke`
// run these alongside the classic targets.

import (
	"testing"

	"bpred/internal/core"
	"bpred/internal/rng"
)

func FuzzDiffTAGE(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, geom uint64, warmup, chunk uint16) {
		g := deriveGeom(geom, n, warmup, chunk)
		fuzzCompare(t, fuzzTAGEConfig(geom, g), seed, g)
	})
}

// fuzzTAGEConfig hashes FuzzDiffTAGE's geometry word into a TAGE
// configuration.
func fuzzTAGEConfig(geom uint64, g fuzzGeom) core.Config {
	h := rng.Mix64(geom ^ 0x7a6e)
	minHist := int(h%8) + 1           // 1..8
	maxHist := minHist + int(h>>8%64) // minHist..minHist+63
	if maxHist > 64 {
		maxHist = 64
	}
	if h>>33&1 == 1 {
		// Half the inputs: a history past one machine word, 65..640.
		maxHist = 65 + int(h>>8%64<<4|h>>34%16)%576
	}
	uperiod := int(h >> 16 % 1024) // 0 (default) .. 1023
	if h>>32&1 == 1 {
		uperiod = -1 // aging off
	}
	return core.Config{Scheme: core.SchemeTAGE,
		RowBits: g.rowBits % 8, ColBits: g.colBits, Metered: g.metered,
		TAGE: core.TAGEParams{
			Tables:  int(h>>40%8) + 1, // 1..8
			MinHist: minHist,
			MaxHist: maxHist,
			TagBits: int(h>>48%12) + 1, // 1..12
			UPeriod: uperiod,
		}}
}

// TestFuzzDiffTAGEHistoryRange pins the fuzz target's history span:
// about half the inputs stay within one machine word, the rest reach
// past it, and the checked-in long-history seed
// (testdata/fuzz/FuzzDiffTAGE/long-history-640) builds a series whose
// longest table sees the full 640 outcomes.
func TestFuzzDiffTAGEHistoryRange(t *testing.T) {
	long := 0
	const n = 4096
	for geom := uint64(0); geom < n; geom++ {
		tg := fuzzTAGEConfig(geom, deriveGeom(geom, 0, 0, 0)).TAGE
		if tg.MaxHist < 1 || tg.MaxHist > core.MaxTAGEHist || tg.MinHist > tg.MaxHist {
			t.Fatalf("geom %d: history %d..%d out of range", geom, tg.MinHist, tg.MaxHist)
		}
		if tg.MaxHist > 64 {
			long++
		}
	}
	if long < n*2/5 || long > n*3/5 {
		t.Fatalf("%d of %d inputs have histories past 64 bits, want about half", long, n)
	}
	const seedGeom = 319680 // the long-history-640 corpus entry
	tg := fuzzTAGEConfig(seedGeom, deriveGeom(seedGeom, 2000, 100, 37)).TAGE
	if tg.MaxHist != 640 || tg.MinHist<<(tg.Tables-1) < 640 {
		t.Fatalf("long-history seed builds %+v, want a series reaching 640", tg)
	}
}

func FuzzDiffPerceptron(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, geom uint64, warmup, chunk uint16) {
		g := deriveGeom(geom, n, warmup, chunk)
		h := rng.Mix64(geom ^ 0x9eceb)
		cfg := core.Config{Scheme: core.SchemePerceptron,
			RowBits: int(h % 17), // history length 0..16
			ColBits: g.colBits, Metered: g.metered,
			Perceptron: core.PerceptronParams{
				WeightBits: int(h>>8%15) + 2,  // 2..16
				Threshold:  int(h >> 16 % 64), // 0 means the default fit
			}}
		fuzzCompare(t, cfg, seed, g)
	})
}

func FuzzDiffTournament(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, geom uint64, warmup, chunk uint16) {
		g := deriveGeom(geom, n, warmup, chunk)
		h := rng.Mix64(geom ^ 0x70c4)
		cfg := core.Config{Scheme: core.SchemeTournament,
			RowBits: g.rowBits, ColBits: g.colBits,
			ChooserBits: int(h % 11), // 0 (default = RowBits) .. 10
			Metered:     g.metered}
		fuzzCompare(t, cfg, seed, g)
	})
}
