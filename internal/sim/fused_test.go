package sim

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"testing"

	"bpred/internal/core"
	"bpred/internal/trace"
)

// fusedAxes enumerates sweep-axis-shaped configuration lists per
// fusable class, plus a mixed list interleaving fusable and unfusable
// configurations (metered, wide counters, finite first levels) to
// exercise the group/remainder split. The -large axes span 2^14..2^16
// counters, the table sizes of the top sweep tiers.
//
// The TAGE axes cover the shared history's edges: a tier sweep whose
// lanes share RowBits (RowBits 0 included); one tier, every lane its
// own RowBits (the shape of a checkpointed sweep); and two further
// TAGEParams that each form their own group — 640-branch histories
// with TagBits 2 (a one-bit second tag fold) and no aging, and short
// histories aged every 3 branches.
func fusedAxes() map[string][]core.Config {
	axes := map[string][]core.Config{}
	var gshare, gas, address, path, pasPerfect []core.Config
	for rb := 4; rb <= 10; rb++ {
		gshare = append(gshare, core.Config{Scheme: core.SchemeGShare, RowBits: rb, ColBits: 2})
		gas = append(gas, core.Config{Scheme: core.SchemeGAs, RowBits: rb, ColBits: 3})
	}
	for cb := 4; cb <= 10; cb++ {
		address = append(address, core.Config{Scheme: core.SchemeAddress, ColBits: cb})
	}
	for rb := 4; rb <= 8; rb++ {
		path = append(path, core.Config{Scheme: core.SchemePath, RowBits: rb, ColBits: 3})
	}
	// A second path width: must land in its own fuse group.
	path = append(path,
		core.Config{Scheme: core.SchemePath, RowBits: 6, ColBits: 3, PathBits: 3},
		core.Config{Scheme: core.SchemePath, RowBits: 8, ColBits: 3, PathBits: 3})
	for rb := 2; rb <= 6; rb++ {
		pasPerfect = append(pasPerfect, core.Config{Scheme: core.SchemePAs, RowBits: rb, ColBits: 2})
	}
	var gshareLarge, gasLarge []core.Config
	for tb := 14; tb <= 16; tb++ {
		gshareLarge = append(gshareLarge, core.Config{Scheme: core.SchemeGShare, RowBits: tb - 2, ColBits: 2})
		gasLarge = append(gasLarge, core.Config{Scheme: core.SchemeGAs, RowBits: tb - 3, ColBits: 3})
	}
	axes["gshare"] = gshare
	axes["gas"] = gas
	axes["gshare-large"] = gshareLarge
	axes["gas-large"] = gasLarge
	axes["address"] = address
	axes["path"] = path
	axes["pas-perfect"] = pasPerfect

	var tage, tageTier []core.Config
	for n := 3; n <= 6; n++ {
		for r := 0; r <= n; r++ {
			tage = append(tage, core.Config{Scheme: core.SchemeTAGE, RowBits: r, ColBits: n - r})
		}
	}
	for r := 0; r <= 7; r++ {
		tageTier = append(tageTier, core.Config{Scheme: core.SchemeTAGE, RowBits: r, ColBits: 7 - r})
	}
	long := core.TAGEParams{Tables: 8, MinHist: 5, MaxHist: 640, TagBits: 2, UPeriod: -1}
	aged := core.TAGEParams{Tables: 3, MinHist: 2, MaxHist: 24, TagBits: 6, UPeriod: 3}
	var tageParams []core.Config
	for _, g := range [][2]int{{5, 4}, {0, 6}, {5, 2}, {3, 3}} {
		tageParams = append(tageParams,
			core.Config{Scheme: core.SchemeTAGE, RowBits: g[0], ColBits: g[1], TAGE: long},
			core.Config{Scheme: core.SchemeTAGE, RowBits: g[0], ColBits: g[1] + 1, TAGE: aged})
	}
	axes["tage"] = tage
	axes["tage-tier"] = tageTier
	axes["tage-params"] = tageParams

	mixed := []core.Config{
		{Scheme: core.SchemeGShare, RowBits: 8, ColBits: 2, Metered: true},
		{Scheme: core.SchemeGAs, RowBits: 6, ColBits: 3, CounterBits: 3},
		{Scheme: core.SchemePAs, RowBits: 5, ColBits: 2,
			FirstLevel: core.FirstLevel{Kind: core.FirstLevelSetAssoc, Entries: 128, Ways: 4}},
		{Scheme: core.SchemePAs, RowBits: 5, ColBits: 2,
			FirstLevel: core.FirstLevel{Kind: core.FirstLevelUntagged, Entries: 128}},
		{Scheme: core.SchemeGShare, RowBits: 5, ColBits: 2, CounterBits: 1},
		// A metered TAGE beside unmetered ones with its parameters.
		{Scheme: core.SchemeTAGE, RowBits: 4, ColBits: 4, Metered: true},
		{Scheme: core.SchemeTAGE, RowBits: 4, ColBits: 4},
		{Scheme: core.SchemeTAGE, RowBits: 3, ColBits: 5},
	}
	mixed = append(mixed, gshare...)
	mixed = append(mixed, pasPerfect...)
	mixed = append(mixed, core.Config{Scheme: core.SchemeAddress, ColBits: 9}) // singleton group -> remainder
	axes["mixed"] = mixed

	// Every configuration here runs per-config — the perceptron and
	// the tournament are never fusable, and the two TAGEs differ in
	// parameters (and one is metered) — so this axis pins the
	// per-config remainder path — and, via the stream tests, BPT2/BPT1
	// streamed execution — for the tagged, perceptron, and tournament
	// kernels, metered and not.
	axes["modern"] = []core.Config{
		{Scheme: core.SchemeTAGE, RowBits: 6, ColBits: 7},
		{Scheme: core.SchemeTAGE, RowBits: 5, ColBits: 6, Metered: true,
			TAGE: core.TAGEParams{Tables: 3, MinHist: 2, MaxHist: 24, TagBits: 6, UPeriod: 256}},
		{Scheme: core.SchemePerceptron, RowBits: 12, ColBits: 7},
		{Scheme: core.SchemePerceptron, RowBits: 8, ColBits: 5, Metered: true,
			Perceptron: core.PerceptronParams{WeightBits: 6, Threshold: 12}},
		{Scheme: core.SchemeTournament, RowBits: 8, ColBits: 8},
		{Scheme: core.SchemeTournament, RowBits: 7, ColBits: 6, ChooserBits: 5, Metered: true},
	}
	return axes
}

// perConfig runs configs on the per-config reference path, every
// configuration on its own kernel with no fusion.
func perConfig(configs []core.Config, tr *trace.Trace, opt Options) ([]Metrics, error) {
	preds, err := buildConfigs(configs, opt)
	if err != nil {
		return nil, err
	}
	return RunPredictorsCtx(context.Background(), preds, tr, opt)
}

// TestFusedEquivalence is the correctness contract of config-parallel
// execution: for every axis, the fused RunConfigs results are
// bit-identical to the per-config path and to the generic reference
// loop, across warmup and chunk-boundary edge cases.
func TestFusedEquivalence(t *testing.T) {
	tr := kernelTrace(21, 20_011)
	opts := []Options{
		{},
		{Warmup: 1037},
		{Warmup: 3, Chunk: 511},
		{Warmup: 20_011},           // trace ends inside warmup
		{Warmup: 25_000, Chunk: 7}, // warmup exceeds the trace
	}
	for name, configs := range fusedAxes() {
		for oi, opt := range opts {
			t.Run(name, func(t *testing.T) {
				fused, err := RunConfigs(configs, tr, opt)
				if err != nil {
					t.Fatalf("opt %d: fused: %v", oi, err)
				}
				unfused, err := perConfig(configs, tr, opt)
				if err != nil {
					t.Fatalf("opt %d: unfused: %v", oi, err)
				}
				for i, c := range configs {
					if fused[i] != unfused[i] {
						t.Errorf("opt %d config %d (%s): fused diverges from per-config\n got: %+v\nwant: %+v",
							oi, i, c.Fingerprint(), fused[i], unfused[i])
					}
					want := Run(c.MustBuild(), tr.NewSource(), opt)
					if fused[i] != want {
						t.Errorf("opt %d config %d (%s): fused diverges from generic reference\n got: %+v\nwant: %+v",
							oi, i, c.Fingerprint(), fused[i], want)
					}
				}
			})
		}
	}
}

// TestFuseGroups checks the partitioning rules directly.
func TestFuseGroups(t *testing.T) {
	configs := []core.Config{
		{Scheme: core.SchemeGShare, RowBits: 6, ColBits: 2},                // 0: gshare group
		{Scheme: core.SchemeGShare, RowBits: 8, ColBits: 2},                // 1: gshare group
		{Scheme: core.SchemeGShare, RowBits: 8, ColBits: 2, Metered: true}, // 2: metered -> rest
		{Scheme: core.SchemeGAs, RowBits: 6, ColBits: 2},                   // 3: singleton -> rest
		{Scheme: core.SchemePath, RowBits: 6, ColBits: 2},                  // 4: path(2) group
		{Scheme: core.SchemePath, RowBits: 7, ColBits: 2, PathBits: 2},     // 5: path(2) group (0 == default)
		{Scheme: core.SchemePath, RowBits: 7, ColBits: 2, PathBits: 3},     // 6: path(3) singleton -> rest
		{Scheme: core.SchemePAs, RowBits: 4, ColBits: 2},                   // 7: PAs-perfect group
		{Scheme: core.SchemePAs, RowBits: 5, ColBits: 2},                   // 8: PAs-perfect group
		{Scheme: core.SchemePAs, RowBits: 5, ColBits: 2,
			FirstLevel: core.FirstLevel{Kind: core.FirstLevelSetAssoc, Entries: 128, Ways: 4}}, // 9: rest
		{Scheme: core.SchemeGAs, RowBits: 6, ColBits: 2, CounterBits: 3},                    // 10: wide counters -> rest
		{Scheme: core.SchemeTAGE, RowBits: 4, ColBits: 3},                                   // 11: TAGE default group
		{Scheme: core.SchemeTAGE, RowBits: 4, ColBits: 4, Metered: true},                    // 12: metered -> rest
		{Scheme: core.SchemeTAGE, RowBits: 2, ColBits: 5, TAGE: core.DefaultTAGE},           // 13: TAGE default group (normalized key)
		{Scheme: core.SchemeTAGE, RowBits: 2, ColBits: 5, TAGE: core.TAGEParams{Tables: 3}}, // 14: own params, singleton -> rest
	}
	groups, rest := fuseGroups(configs)
	if len(groups) != 4 {
		t.Fatalf("got %d fuse groups, want 4 (gshare, path2, pas-perfect, tage): %+v", len(groups), groups)
	}
	wantGroups := [][]int{{0, 1}, {4, 5}, {7, 8}, {11, 13}}
	for g, want := range wantGroups {
		got := groups[g].idx
		if len(got) != len(want) {
			t.Fatalf("group %d = %v, want %v", g, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("group %d = %v, want %v", g, got, want)
			}
		}
	}
	wantRest := map[int]bool{2: true, 3: true, 6: true, 9: true, 10: true, 12: true, 14: true}
	if len(rest) != len(wantRest) {
		t.Fatalf("rest = %v, want indices %v", rest, wantRest)
	}
	for _, i := range rest {
		if !wantRest[i] {
			t.Fatalf("rest = %v contains unexpected index %d", rest, i)
		}
	}
}

// TestFusedPreCanceled: a canceled fused run honors the partial-result
// contract — full-length slice, ctx.Err(), all entries absent.
func TestFusedPreCanceled(t *testing.T) {
	tr := kernelTrace(22, 10_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	configs := fusedAxes()["gshare"]
	out, err := RunConfigsCtx(ctx, configs, tr, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out) != len(configs) {
		t.Fatalf("len(out) = %d, want %d", len(out), len(configs))
	}
	for i, m := range out {
		if m != (Metrics{}) {
			t.Errorf("entry %d of a pre-canceled fused run is non-zero: %+v", i, m)
		}
	}
}

// TestFusedPartialContract cancels a fused fan-out mid-run via a
// deadline-free race and checks that every entry is either wholly
// complete (full scored count) or wholly absent — never a torn tally.
func TestFusedPartialContract(t *testing.T) {
	const total, warmup = 30_000, 1_000
	tr := kernelTrace(23, total)
	configs := append(fusedAxes()["gshare"], fusedAxes()["address"]...)
	want, err := RunConfigs(configs, tr, Options{Warmup: warmup})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go cancel() // races with the run: any prefix of batches may finish
	out, err := RunConfigsCtx(ctx, configs, tr, Options{Warmup: warmup, Chunk: 512})
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want nil or context.Canceled", err)
	}
	for i, m := range out {
		switch {
		case m.Name == "":
			if m != (Metrics{}) {
				t.Errorf("entry %d: interrupted yet carries counts: %+v", i, m)
			}
		default:
			if m != want[i] {
				t.Errorf("entry %d: marked complete but differs from uninterrupted run\n got: %+v\nwant: %+v", i, m, want[i])
			}
		}
	}
}

// FuzzFusedEquivalence drives randomized traces, run options, and axis
// shapes through the fused path, asserting bit-identity with the
// per-config kernels.
func FuzzFusedEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(512), uint16(0), uint16(0))
	f.Add(uint64(42), uint16(8192), uint16(1000), uint16(511))
	f.Add(uint64(7), uint16(1), uint16(5), uint16(1))
	f.Fuzz(func(t *testing.T, seed uint64, n, warmup, chunk uint16) {
		tr := kernelTrace(seed, int(n)+1)
		opt := Options{Warmup: int(warmup), Chunk: int(chunk)}
		for name, configs := range fusedAxes() {
			fused, err := RunConfigsCtx(context.Background(), configs, tr, opt)
			if err != nil {
				t.Fatalf("%s: fused: %v", name, err)
			}
			unfused, err := perConfig(configs, tr, opt)
			if err != nil {
				t.Fatalf("%s: unfused: %v", name, err)
			}
			for i := range configs {
				if fused[i] != unfused[i] {
					t.Errorf("%s config %d: fused %+v != per-config %+v", name, i, fused[i], unfused[i])
				}
			}
		}
	})
}

// TestFusedSingleConfigFallsBack: a one-configuration axis forms no
// fuse group, runs on its per-config kernel, and matches the
// reference loop.
func TestFusedSingleConfigFallsBack(t *testing.T) {
	tr := kernelTrace(24, 5_000)
	configs := []core.Config{{Scheme: core.SchemeGShare, RowBits: 8, ColBits: 2}}
	got, err := RunConfigs(configs, tr, Options{Warmup: 100})
	if err != nil {
		t.Fatal(err)
	}
	want := Run(configs[0].MustBuild(), tr.NewSource(), Options{Warmup: 100})
	if got[0] != want {
		t.Errorf("singleton axis diverges: got %+v, want %+v", got[0], want)
	}
}

// TestGOMAXPROCSIndependence pins results against the worker count.
// Every entry point shares one task carver, and its split depends on
// GOMAXPROCS; the mixed and tage axes through RunConfigs and through
// RunConfigsStream over a BPT2 file (one reader per task), and the
// mixed axis through RunPredictors, must come out identical at 1, 2,
// 3 and 7 workers.
func TestGOMAXPROCSIndependence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	tr := kernelTrace(25, 12_007)
	p2 := filepath.Join(t.TempDir(), "procs.bpt2")
	if err := trace.WriteFile2(p2, tr, 0); err != nil {
		t.Fatal(err)
	}
	opt := Options{Warmup: 301, Chunk: 1000}
	axes := fusedAxes()
	var want map[string][]Metrics
	for _, procs := range []int{1, 2, 3, 7} {
		runtime.GOMAXPROCS(procs)
		got := map[string][]Metrics{}
		for _, name := range []string{"mixed", "tage"} {
			ms, err := RunConfigs(axes[name], tr, opt)
			if err != nil {
				t.Fatalf("GOMAXPROCS %d: RunConfigs %s: %v", procs, name, err)
			}
			got["RunConfigs/"+name] = ms
			if ms, err = RunConfigsStream(context.Background(), axes[name], fileOpener(p2), opt); err != nil {
				t.Fatalf("GOMAXPROCS %d: RunConfigsStream %s: %v", procs, name, err)
			}
			got["RunConfigsStream/"+name] = ms
		}
		preds, err := buildConfigs(axes["mixed"], opt)
		if err != nil {
			t.Fatal(err)
		}
		got["RunPredictors/mixed"] = RunPredictors(preds, tr, opt)
		for _, name := range []string{"mixed", "tage"} {
			for i, m := range got["RunConfigsStream/"+name] {
				if m != got["RunConfigs/"+name][i] {
					t.Errorf("GOMAXPROCS %d: %s entry %d streamed = %+v, in-memory %+v",
						procs, name, i, m, got["RunConfigs/"+name][i])
				}
			}
		}
		if want == nil {
			want = got
			continue
		}
		for key, ms := range got {
			for i := range ms {
				if ms[i] != want[key][i] || ms[i].Name == "" {
					t.Errorf("GOMAXPROCS %d: %s entry %d = %+v, want %+v (GOMAXPROCS 1)",
						procs, key, i, ms[i], want[key][i])
				}
			}
		}
	}
}
