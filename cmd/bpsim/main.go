// bpsim runs a single branch predictor configuration over a workload
// and reports its misprediction rate and aliasing profile.
//
// Usage:
//
//	bpsim -workload espresso -scheme gshare -rows 11 -cols 4
//	bpsim -workload real_gcc -scheme pas -rows 12 -l1-entries 1024 -l1-ways 4
//	bpsim -trace foo.bpt -scheme address -cols 12 -meter
//
// Schemes: address, gas (GAg when -cols 0), gshare, path, pas
// (PAg/PAs; -l1-entries 0 means a perfect first level), tage,
// perceptron, tournament (the modern families — DESIGN.md §15).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"bpred/internal/btb"
	"bpred/internal/core"
	"bpred/internal/perf"
	"bpred/internal/sim"
	"bpred/internal/trace"
	"bpred/internal/workload"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "synthetic benchmark name (see bptrace -list)")
		traceFile    = flag.String("trace", "", "branch trace file (alternative to -workload)")
		n            = flag.Int("n", 2_000_000, "branches to simulate for synthetic workloads")
		seed         = flag.Uint64("seed", 1996, "workload seed")
		scheme       = flag.String("scheme", "gshare", "address | gas | gshare | path | pas | tage | perceptron | tournament")
		predictor    = flag.String("predictor", "", "canonical predictor name, e.g. 'PAs(1024/4w)-2^10x2^2' (overrides -scheme/-rows/-cols)")
		rows         = flag.Int("rows", 8, "history/row bits (log2 rows)")
		cols         = flag.Int("cols", 4, "address/column bits (log2 columns)")
		l1Entries    = flag.Int("l1-entries", 0, "PAs first-level entries (0 = perfect)")
		l1Ways       = flag.Int("l1-ways", 4, "PAs first-level associativity")
		pathBits     = flag.Int("path-bits", 2, "target-address bits per event for -scheme path")
		tageTables   = flag.Int("tage-tables", 0, "tagged table count for -scheme tage (0 = default)")
		tageMinHist  = flag.Int("tage-min-hist", 0, "shortest geometric history for -scheme tage (0 = default)")
		tageMaxHist  = flag.Int("tage-max-hist", 0, fmt.Sprintf("longest geometric history for -scheme tage, in branches, at most %d (0 = default %d)", core.MaxTAGEHist, core.DefaultTAGE.MaxHist))
		tageTagBits  = flag.Int("tage-tag-bits", 0, "tag width for -scheme tage (0 = default)")
		tageUPeriod  = flag.Int("tage-u-period", 0, "useful-bit aging period for -scheme tage (0 = default, -1 = off)")
		weightBits   = flag.Int("weight-bits", 0, "weight width for -scheme perceptron (0 = default)")
		threshold    = flag.Int("threshold", 0, "training threshold for -scheme perceptron (0 = fitted default)")
		chooserBits  = flag.Int("chooser-bits", 0, "chooser table bits for -scheme tournament (0 = -rows)")
		warmupN      = flag.Int("warmup", -1, "unscored leading branches (-1 = 5% of trace)")
		meter        = flag.Bool("meter", false, "measure second-level aliasing")
		top          = flag.Int("top", 0, "also report the N worst-predicted branches (and, with -meter, the N most-conflicted table entries)")
		btbEntries   = flag.Int("btb", 0, "also model a BTB of this many entries: report fetch redirects and pipeline CPI estimates")
		btbWays      = flag.Int("btb-ways", 4, "BTB associativity")
		timeout      = flag.Duration("timeout", 0, "abort the simulation after this long (0 = no limit)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	tr, err := loadTrace(*workloadName, *traceFile, *seed, *n)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bpsim: %v\n", err)
		os.Exit(2)
	}

	var cfg core.Config
	if *predictor != "" {
		cfg, err = core.ParseConfig(*predictor)
		cfg.Metered = *meter
	} else {
		cfg, err = buildConfig(*scheme, *rows, *cols, *l1Entries, *l1Ways, *pathBits, *meter)
		if err == nil {
			switch cfg.Scheme {
			case core.SchemeTAGE:
				cfg.TAGE = core.TAGEParams{Tables: *tageTables, MinHist: *tageMinHist,
					MaxHist: *tageMaxHist, TagBits: *tageTagBits, UPeriod: *tageUPeriod}
			case core.SchemePerceptron:
				cfg.Perceptron = core.PerceptronParams{WeightBits: *weightBits, Threshold: *threshold}
			case core.SchemeTournament:
				cfg.ChooserBits = *chooserBits
			}
			err = cfg.Validate()
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bpsim: %v\n", err)
		os.Exit(2)
	}
	pred, err := cfg.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bpsim: %v\n", err)
		os.Exit(2)
	}

	warm := *warmupN
	if warm < 0 {
		warm = tr.Len() / 20
	}
	var m sim.Metrics
	var bd *sim.Breakdown
	if *top > 0 {
		bd = sim.RunBreakdown(pred, tr.NewSource(), sim.Options{Warmup: warm})
		m = bd.Metrics
	} else {
		var runErr error
		m, runErr = sim.RunTraceCtx(ctx, pred, tr, sim.Options{Warmup: warm})
		if runErr != nil {
			reason := "interrupted"
			if errors.Is(runErr, context.DeadlineExceeded) {
				reason = fmt.Sprintf("timed out after %s", *timeout)
			}
			fmt.Fprintf(os.Stderr, "bpsim: %s; reporting partial results (%d of %d scored branches)\n",
				reason, m.Branches, tr.Len()-warm)
		}
	}

	fmt.Printf("workload:          %s (%d branches, %d scored)\n", tr.Name, tr.Len(), m.Branches)
	switch cfg.Scheme {
	case core.SchemeTAGE, core.SchemePerceptron, core.SchemeTournament:
		// Modern-family state is not a flat two-bit table; report the
		// storage accounting instead (tags, useful bits, weights).
		fmt.Printf("predictor:         %s (%d storage bits)\n", m.Name, cfg.Storage(true).Total())
	default:
		fmt.Printf("predictor:         %s (%d two-bit counters)\n", m.Name, cfg.Counters())
	}
	fmt.Printf("mispredictions:    %d (%.2f%%)\n", m.Mispredicts, 100*m.MispredictRate())
	if m.FirstLevelMissRate > 0 {
		fmt.Printf("first-level miss:  %.2f%%\n", 100*m.FirstLevelMissRate)
	}
	if *meter {
		a := m.Alias
		fmt.Printf("table accesses:    %d\n", a.Accesses)
		fmt.Printf("alias conflicts:   %d (%.2f%% of accesses)\n", a.Conflicts, 100*a.ConflictRate())
		fmt.Printf("  all-ones:        %.1f%% of conflicts\n", 100*a.AllOnesFraction())
		fmt.Printf("  destructive:     %.1f%% of conflicts\n", 100*a.DestructiveFraction())
		if a.TagAgree+a.TagDisagree > 0 {
			fmt.Printf("tag hits:          %d agreeing, %d disagreeing\n", a.TagAgree, a.TagDisagree)
		}
		if a.UsefulVictims > 0 {
			fmt.Printf("useful victims:    %d (allocations evicting live entries)\n", a.UsefulVictims)
		}
		if a.Overrides > 0 {
			fmt.Printf("provider override: %d (%d correct)\n", a.Overrides, a.OverrideCorrect)
		}
	}
	if *btbEntries > 0 {
		fe := sim.RunFrontend(cfg.MustBuild(), btb.New(*btbEntries, *btbWays), tr.NewSource(), sim.Options{Warmup: warm})
		branchFrac := 0.0
		if tr.Instructions > 0 {
			branchFrac = float64(tr.Len()) / float64(tr.Instructions)
		}
		fmt.Printf("btb:               %d entries, %d-way (hit rate %.2f%%)\n",
			*btbEntries, *btbWays, 100*fe.BTBHitRate)
		fmt.Printf("fetch redirects:   %d (%.2f%% of branches; %.2f%% direction, rest target)\n",
			fe.Redirects, 100*fe.RedirectRate(), 100*fe.DirectionRate())
		classic := perf.New(perf.Classic, branchFrac, fe.RedirectRate())
		deep := perf.New(perf.Deep, branchFrac, fe.RedirectRate())
		fmt.Printf("pipeline estimate: classic 5-stage %s\n", classic)
		fmt.Printf("                   deep speculative %s\n", deep)
	}
	if bd != nil {
		fmt.Printf("worst-predicted branches (top %d):\n", *top)
		branches := bd.Branches
		if len(branches) > *top {
			branches = branches[:*top]
		}
		for _, br := range branches {
			fmt.Printf("  %#010x %9d instances %8d misses (%.1f%%)\n",
				br.PC, br.Instances, br.Mispredicts, 100*br.Rate())
		}
		if *meter {
			if tl, ok := pred.(*core.TwoLevel); ok && tl.Meter() != nil {
				fmt.Printf("most-conflicted table entries (top %d):\n", *top)
				for _, e := range tl.Meter().TopEntries(*top) {
					fmt.Printf("  entry %6d: %7d conflicts (%d destructive), last pc %#x\n",
						e.Index, e.Conflicts, e.Destructive, e.LastPC)
				}
			}
		}
	}
}

func loadTrace(workloadName, traceFile string, seed uint64, n int) (*trace.Trace, error) {
	switch {
	case workloadName != "" && traceFile != "":
		return nil, fmt.Errorf("use -workload or -trace, not both")
	case traceFile != "":
		return trace.ReadFile(traceFile)
	case workloadName != "":
		p, ok := workload.ProfileByName(workloadName)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q; known: %v", workloadName, workload.ProfileNames())
		}
		if n <= 0 {
			return nil, fmt.Errorf("-n must be positive")
		}
		return workload.Generate(p, seed, n), nil
	default:
		return nil, fmt.Errorf("one of -workload or -trace is required")
	}
}

func buildConfig(scheme string, rows, cols, l1Entries, l1Ways, pathBits int, meter bool) (core.Config, error) {
	cfg := core.Config{RowBits: rows, ColBits: cols, Metered: meter}
	switch scheme {
	case "address":
		cfg.Scheme = core.SchemeAddress
		cfg.RowBits = 0
	case "gas":
		cfg.Scheme = core.SchemeGAs
	case "gshare":
		cfg.Scheme = core.SchemeGShare
	case "path":
		cfg.Scheme = core.SchemePath
		cfg.PathBits = pathBits
	case "pas":
		cfg.Scheme = core.SchemePAs
		if l1Entries > 0 {
			cfg.FirstLevel = core.FirstLevel{
				Kind:    core.FirstLevelSetAssoc,
				Entries: l1Entries,
				Ways:    l1Ways,
			}
		}
	case "tage":
		cfg.Scheme = core.SchemeTAGE
	case "perceptron":
		cfg.Scheme = core.SchemePerceptron
	case "tournament":
		cfg.Scheme = core.SchemeTournament
	default:
		return cfg, fmt.Errorf("unknown scheme %q", scheme)
	}
	return cfg, cfg.Validate()
}
