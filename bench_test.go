// Package bpred_test is the benchmark harness regenerating every
// table and figure of Sechrest, Lee & Mudge (ISCA '96). One benchmark
// per experiment: run with
//
//	go test -bench=. -benchmem
//
// Each Benchmark<Table|Fig>N executes the corresponding experiment on
// a reduced context (short traces, tiers 2^4..2^9) so the whole suite
// completes in minutes; cmd/bpsweep runs the full-scale versions. The
// headline result of each experiment is attached as a custom metric
// (misp% = misprediction percentage) so the benchmark output itself
// documents the reproduced numbers.
//
// The BenchmarkAblation* family covers the design decisions called
// out in DESIGN.md: aliasing-meter overhead, first-level reset
// policies, and parallel fan-out vs sequential simulation.
package bpred_test

import (
	"fmt"
	"sync"
	"testing"

	"bpred/internal/core"
	"bpred/internal/experiments"
	"bpred/internal/history"
	"bpred/internal/sim"
	"bpred/internal/sweep"
	"bpred/internal/trace"
	"bpred/internal/workload"
)

var (
	benchCtxOnce sync.Once
	benchCtx     *experiments.Context
)

// ctx returns the shared scaled-down experiment context.
func ctx() *experiments.Context {
	benchCtxOnce.Do(func() {
		benchCtx = experiments.NewContext(experiments.Params{
			Seed:        1996,
			FocusLength: 400_000,
			SuiteLength: 200_000,
			MinBits:     4,
			MaxBits:     9,
		})
	})
	return benchCtx
}

// runExperiment benchmarks one registered experiment end to end.
func runExperiment(b *testing.B, name string) {
	b.Helper()
	c := ctx()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(name, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }

func BenchmarkFig2(b *testing.B) {
	c := ctx()
	var last *experiments.CurveSet
	for i := 0; i < b.N; i++ {
		last = experiments.Fig2(c)
	}
	reportCurve(b, last, "espresso")
}

func BenchmarkFig3(b *testing.B) {
	c := ctx()
	var last *experiments.CurveSet
	for i := 0; i < b.N; i++ {
		last = experiments.Fig3(c)
	}
	reportCurve(b, last, "espresso")
}

func reportCurve(b *testing.B, cs *experiments.CurveSet, name string) {
	if rates := cs.Rates[name]; len(rates) > 0 {
		b.ReportMetric(100*rates[len(rates)-1], "misp%")
	}
}

func BenchmarkFig4(b *testing.B) {
	c := ctx()
	var last *experiments.SurfaceSet
	for i := 0; i < b.N; i++ {
		last = experiments.Fig4(c)
	}
	reportBest(b, last, "mpeg_play")
}

func BenchmarkFig5(b *testing.B) {
	c := ctx()
	var last *experiments.SurfaceSet
	for i := 0; i < b.N; i++ {
		last = experiments.Fig5(c)
	}
	// Report the aliasing rate at the GAg edge of the top tier.
	s := last.Surfaces["mpeg_play"]
	n := c.Params().MaxBits
	if pt, ok := s.At(n, n); ok {
		b.ReportMetric(100*pt.Metrics.Alias.ConflictRate(), "alias%")
	}
}

func BenchmarkFig6(b *testing.B) {
	c := ctx()
	var last *experiments.SurfaceSet
	for i := 0; i < b.N; i++ {
		last = experiments.Fig6(c)
	}
	reportBest(b, last, "mpeg_play")
}

func BenchmarkFig7(b *testing.B) { runExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B) { runExperiment(b, "fig8") }

func BenchmarkFig9(b *testing.B) {
	c := ctx()
	var last *experiments.SurfaceSet
	for i := 0; i < b.N; i++ {
		last = experiments.Fig9(c)
	}
	reportBest(b, last, "mpeg_play")
}

func BenchmarkFig10(b *testing.B) {
	c := ctx()
	var last *experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig10(c)
	}
	b.ReportMetric(100*last.MissRates[128], "l1miss%")
}

func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }

// Extension experiments (not in the paper's evaluation).
func BenchmarkCombining(b *testing.B) { runExperiment(b, "combining") }
func BenchmarkDealias(b *testing.B)   { runExperiment(b, "dealias") }
func BenchmarkFrontend(b *testing.B)  { runExperiment(b, "frontend") }

func reportBest(b *testing.B, set *experiments.SurfaceSet, name string) {
	s := set.Surfaces[name]
	if pt, ok := s.BestInTier(ctx().Params().MaxBits); ok {
		b.ReportMetric(100*pt.Metrics.MispredictRate(), "misp%")
	}
}

// --- Ablation benches (DESIGN.md §4) ---

// BenchmarkAblationMeter quantifies the cost of aliasing
// instrumentation on the prediction fast path (design decision 2:
// meters are optional decorators).
func BenchmarkAblationMeter(b *testing.B) {
	prof, _ := workload.ProfileByName("espresso")
	tr := workload.Generate(prof, 1, 200_000)
	run := func(b *testing.B, metered bool) {
		p := core.NewGShare(10, 2)
		if metered {
			p.EnableMeter()
		}
		src := tr.NewSource()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			br, ok := src.Next()
			if !ok {
				src = tr.NewSource()
				br, _ = src.Next()
			}
			p.Predict(br)
			p.Update(br)
		}
	}
	b.Run("unmetered", func(b *testing.B) { run(b, false) })
	b.Run("metered", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationResetPolicy compares the paper's 0xC3FF-prefix
// first-level reset policy with the alternatives (design decision 3).
// The misp% metric is the result of interest.
func BenchmarkAblationResetPolicy(b *testing.B) {
	prof, _ := workload.ProfileByName("mpeg_play")
	tr := workload.Generate(prof, 1, 400_000)
	policies := []history.ResetPolicy{
		history.PrefixReset, history.ZeroReset, history.OnesReset, history.InheritStale,
	}
	for _, pol := range policies {
		b.Run(pol.String(), func(b *testing.B) {
			var m sim.Metrics
			for i := 0; i < b.N; i++ {
				p := core.NewPAs(0, history.NewSetAssoc(128, 4, 12, pol))
				m = sim.RunTrace(p, tr, sim.Options{Warmup: tr.Len() / 20})
			}
			b.ReportMetric(100*m.MispredictRate(), "misp%")
		})
	}
}

// BenchmarkAblationFanout compares the parallel multi-configuration
// runner against sequential simulation of the same configurations
// (design decision 1: one trace pass, many predictors).
func BenchmarkAblationFanout(b *testing.B) {
	prof, _ := workload.ProfileByName("espresso")
	tr := workload.Generate(prof, 1, 150_000)
	configs := sweep.Configs(sweep.Options{Scheme: core.SchemeGShare, MinBits: 4, MaxBits: 9})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunConfigs(configs, tr, sim.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, c := range configs {
				sim.RunTrace(c.MustBuild(), tr, sim.Options{})
			}
		}
	})
}

// BenchmarkPredictorThroughput reports per-branch prediction cost for
// each scheme family.
func BenchmarkPredictorThroughput(b *testing.B) {
	prof, _ := workload.ProfileByName("espresso")
	tr := workload.Generate(prof, 1, 200_000)
	preds := map[string]func() core.Predictor{
		"address":  func() core.Predictor { return core.NewAddressIndexed(12) },
		"gas":      func() core.Predictor { return core.NewGAs(8, 4) },
		"gshare":   func() core.Predictor { return core.NewGShare(8, 4) },
		"path":     func() core.Predictor { return core.NewPath(8, 4, 2) },
		"pas-inf":  func() core.Predictor { return core.NewPAs(2, history.NewPerfect(10)) },
		"pas-1k4w": func() core.Predictor { return core.NewPAs(2, history.NewSetAssoc(1024, 4, 10, history.PrefixReset)) },
	}
	for name, mk := range preds {
		b.Run(name, func(b *testing.B) {
			p := mk()
			src := tr.NewSource()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				br, ok := src.Next()
				if !ok {
					src = tr.NewSource()
					br, _ = src.Next()
				}
				p.Predict(br)
				p.Update(br)
			}
		})
	}
}

// BenchmarkWorkloadGeneration reports synthetic trace production cost.
func BenchmarkWorkloadGeneration(b *testing.B) {
	prof, _ := workload.ProfileByName("real_gcc")
	prog := workload.Build(prof, 1)
	em := prog.NewEmitter(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		em.Next()
	}
}

// BenchmarkTraceEncode reports trace serialization cost.
func BenchmarkTraceEncode(b *testing.B) {
	prof, _ := workload.ProfileByName("espresso")
	tr := workload.Generate(prof, 1, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := trace.NewWriter(discard{}, tr.Name, tr.Instructions, uint64(tr.Len()))
		if err != nil {
			b.Fatal(err)
		}
		for _, br := range tr.Branches {
			if err := w.WriteBranch(br); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(tr.Len()))
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkAblationCounterWidth compares second-level counter widths:
// 1-bit counters lack the hysteresis that shields biased branches
// from occasional aliasing hits; 3-bit counters add more hysteresis
// at 1.5x the storage. The misp% metric is the result of interest.
func BenchmarkAblationCounterWidth(b *testing.B) {
	prof, _ := workload.ProfileByName("mpeg_play")
	tr := workload.Generate(prof, 1, 400_000)
	for _, bits := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("%dbit", bits), func(b *testing.B) {
			var m sim.Metrics
			for i := 0; i < b.N; i++ {
				cfg := core.Config{Scheme: core.SchemeGShare, RowBits: 10, ColBits: 2, CounterBits: bits}
				m = sim.RunTrace(cfg.MustBuild(), tr, sim.Options{Warmup: tr.Len() / 20})
			}
			b.ReportMetric(100*m.MispredictRate(), "misp%")
		})
	}
}

// --- Kernel fast-path benches (PR: batched, devirtualized kernels) ---

// kernelBenchConfigs are the per-scheme configurations BenchmarkKernels
// compares across the generic and batched execution paths.
func kernelBenchConfigs() map[string]func() core.Predictor {
	return map[string]func() core.Predictor{
		"address": func() core.Predictor { return core.NewAddressIndexed(12) },
		"gas":     func() core.Predictor { return core.NewGAs(8, 4) },
		"gshare":  func() core.Predictor { return core.NewGShare(8, 4) },
		"path":    func() core.Predictor { return core.NewPath(8, 4, 2) },
		"pas-inf": func() core.Predictor { return core.NewPAs(2, history.NewPerfect(10)) },
		"pas-1k4w": func() core.Predictor {
			return core.NewPAs(2, history.NewSetAssoc(1024, 4, 10, history.PrefixReset))
		},
		"sas-256": func() core.Predictor { return core.NewSAs(256, 10, 2) },
		"gshare-metered": func() core.Predictor {
			return core.NewGShare(8, 4).EnableMeter()
		},
		// A cache-hostile geometry (2^20 counters): the byte table is
		// 1 MiB, as opposed to the L1-resident tables above.
		"gshare-1m": func() core.Predictor { return core.NewGShare(16, 4) },
		// Modern families (DESIGN.md §15). Their kernels are selected by
		// concrete type, so all three bench modes exercise the same fast
		// path; the series tracks the per-branch cost of the multi-table
		// TAGE step, the perceptron dot product, and the three-table
		// tournament against the classic schemes.
		"tage4": func() core.Predictor {
			return core.NewTAGE(8, 10, core.TAGEParams{Tables: 4}, false)
		},
		"perceptron": func() core.Predictor {
			return core.NewPerceptron(12, 8, core.PerceptronParams{}, false)
		},
		"mcfarling": func() core.Predictor { return core.NewMcFarling(10, 10, 10, false) },
	}
}

// BenchmarkKernels compares the generic interface-dispatched loop
// (sim.Run) against the batched kernels ("batched", sim.RunTrace) per
// scheme. The ratios over generic are the fast path's headline
// numbers; `make bench-sim` records them as BENCH_sim.json for cross-PR
// tracking and `make bench-check` gates regressions against it.
func BenchmarkKernels(b *testing.B) {
	prof, _ := workload.ProfileByName("espresso")
	tr := workload.Generate(prof, 1, 500_000)
	for name, mk := range kernelBenchConfigs() {
		b.Run(name+"/generic", func(b *testing.B) {
			b.SetBytes(int64(tr.Len()))
			for i := 0; i < b.N; i++ {
				sim.Run(mk(), tr.NewSource(), sim.Options{})
			}
		})
		b.Run(name+"/batched", func(b *testing.B) {
			b.SetBytes(int64(tr.Len()))
			for i := 0; i < b.N; i++ {
				sim.RunTrace(mk(), tr, sim.Options{})
			}
		})
	}
}

// BenchmarkSweepChunked measures the multi-configuration executor end
// to end: one gshare tier sweep over a shared trace. The default
// options take the config-parallel fused path (one trace pass drives
// the whole mask-compatible axis); this is the Figure-4-shaped
// workload the engine exists for.
func BenchmarkSweepChunked(b *testing.B) {
	prof, _ := workload.ProfileByName("espresso")
	tr := workload.Generate(prof, 1, 300_000)
	configs := sweep.Configs(sweep.Options{Scheme: core.SchemeGShare, MinBits: 4, MaxBits: 10})
	b.SetBytes(int64(tr.Len() * len(configs)))
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunConfigs(configs, tr, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepFusion isolates the fusion win: "fused" is the
// config-parallel path, "per-config" builds every geometry and runs it
// through its own kernel (the pre-fusion executor). The unprefixed
// pair is the gshare tier sweep above; the tage pairs are a whole TAGE
// sweep (tiers 4..10, 56 geometries, 11 distinct RowBits, the shape of
// bpsweep and the sweep-modern benchmark) and one TAGE tier (tier 10,
// every geometry a distinct RowBits, the shape of a checkpointed
// service job, which runs tier by tier).
func BenchmarkSweepFusion(b *testing.B) {
	prof, _ := workload.ProfileByName("espresso")
	tr := workload.Generate(prof, 1, 300_000)
	pair := func(prefix string, configs []core.Config) {
		b.Run(prefix+"fused", func(b *testing.B) {
			b.SetBytes(int64(tr.Len() * len(configs)))
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunConfigs(configs, tr, sim.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(prefix+"per-config", func(b *testing.B) {
			b.SetBytes(int64(tr.Len() * len(configs)))
			for i := 0; i < b.N; i++ {
				preds := make([]core.Predictor, len(configs))
				for j, c := range configs {
					preds[j] = c.MustBuild()
				}
				sim.RunPredictors(preds, tr, sim.Options{})
			}
		})
	}
	pair("", sweep.Configs(sweep.Options{Scheme: core.SchemeGShare, MinBits: 4, MaxBits: 10}))
	pair("tage-sweep/", sweep.Configs(sweep.Options{Scheme: core.SchemeTAGE, MinBits: 4, MaxBits: 10}))
	pair("tage-tier/", sweep.Configs(sweep.Options{Scheme: core.SchemeTAGE, MinBits: 10, MaxBits: 10}))
}
