package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"bpred/internal/core"
	"bpred/internal/obs"
	"bpred/internal/sim"
	"bpred/internal/sweep"
	"bpred/internal/trace"
	"bpred/internal/workload"
)

// sweepBench is the bpsweep path: one trace generated in memory, then
// whole-surface sweep.RunCtx calls (no checkpoint) per family, round
// after round until the window closes. Each call is one "job".
type sweepBench struct {
	name     string
	profile  string
	branches int
	warmup   int
	families []core.Scheme
	minBits  int
	maxBits  int
	seed     uint64
	// recorded holds the CSV digest of each family for defaultSeed.
	recorded map[string]string
	// seedLog remembers each seed's first digests, so every later run
	// of the same seed in this checkout must reproduce them.
	seedLog *digestLog

	tr *trace.Trace
}

func newSweepClassic(seed uint64, log *digestLog) *sweepBench {
	return &sweepBench{
		name: "sweep-classic", profile: "gcc", branches: 10_000_000, warmup: 100_000,
		families: []core.Scheme{core.SchemeGAs, core.SchemeGShare, core.SchemePath},
		minBits:  4, maxBits: 14, seed: seed,
		recorded: recordedDigests["sweep-classic"], seedLog: log,
	}
}

func newSweepModern(seed uint64, log *digestLog) *sweepBench {
	return &sweepBench{
		name: "sweep-modern", profile: "gcc", branches: 1_000_000, warmup: 10_000,
		families: []core.Scheme{core.SchemeTAGE, core.SchemePerceptron, core.SchemeTournament},
		minBits:  4, maxBits: 10, seed: seed,
		recorded: recordedDigests["sweep-modern"], seedLog: log,
	}
}

func (b *sweepBench) setup(t *tracer) error {
	b.tr = nil // let the previous repetition's trace go before making the next
	p, ok := workload.ProfileByName(b.profile)
	if !ok {
		return fmt.Errorf("unknown workload profile %q", b.profile)
	}
	sp := t.begin("workload.gen", 0)
	b.tr = workload.Generate(p, b.seed, b.branches)
	sp.end(float64(b.branches), nil)
	return nil
}

func (b *sweepBench) measure(ctx context.Context, window time.Duration, t *tracer) (*outcome, error) {
	out := newOutcome()
	var counters *obs.Counters
	if t != nil {
		counters = &obs.Counters{}
	}
	first := make(map[string]string, len(b.families))
	var jobMS []float64
	var work float64
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < window; round++ {
		for _, s := range b.families {
			family := schemeKey(s)
			opts := sweep.Options{
				Scheme: s, MinBits: b.minBits, MaxBits: b.maxBits,
				Sim: sim.Options{Warmup: b.warmup, Obs: counters},
			}
			sp := t.begin("sweep.run", 0)
			callStart := time.Now()
			surf, err := sweep.RunCtx(ctx, opts, b.tr)
			callMS := float64(time.Since(callStart).Nanoseconds()) / 1e6
			out.attempted++
			if err != nil {
				sp.end(0, map[string]string{"scheme": family})
				out.fail("%s sweep: %v", family, err)
				continue
			}
			w := cellBranches(surf)
			sp.end(w, map[string]string{"scheme": family})
			jobMS = append(jobMS, callMS)
			work += w

			csv := t.begin("report.csv", sp.ID())
			digest, err := csvDigest(surf)
			csv.end(0, nil)
			if err != nil {
				out.fail("%s csv: %v", family, err)
				continue
			}
			b.checkDigest(out, family, digest, first)
		}
	}
	elapsed := time.Since(start).Seconds()
	if err := b.seedLog.check(out, b.name, b.seed, first); err != nil {
		return nil, err
	}

	out.e2e["mcellbr_per_s"] = work / elapsed / 1e6
	out.e2e["jobs_per_s"] = float64(len(jobMS)) / elapsed
	out.e2e["job_p50_ms"] = median(jobMS)
	out.noteTail("job", jobMS)
	if counters != nil {
		snap := counters.Snapshot()
		out.layer["sim.chunks"] = float64(snap.Chunks)
		out.layer["sim.branches"] = float64(snap.Branches)
	}
	return out, nil
}

// checkDigest holds one family's CSV to the recorded digest (default
// seed) and to the first sweep of this run (every seed), counting a
// mismatch as a failed job.
func (b *sweepBench) checkDigest(out *outcome, family, digest string, first map[string]string) {
	if b.seed == defaultSeed {
		if want, ok := b.recorded[family]; !ok || want != digest {
			out.wrongf("%s csv digest %s, recorded %q for seed %d", family, digest, want, defaultSeed)
			return
		}
	}
	if want, ok := first[family]; ok && want != digest {
		out.wrongf("%s csv digest %s differs from this run's first %s", family, digest, want)
		return
	}
	first[family] = digest
}

// cellBranches is the scored work in a surface: the sum over its
// cells of branches predicted after warmup.
func cellBranches(s *sweep.Surface) float64 {
	var n float64
	for _, tier := range s.Tiers() {
		for _, p := range s.Splits(tier) {
			if p.Valid() {
				n += float64(p.Metrics.Branches)
			}
		}
	}
	return n
}

// csvDigest is the hex SHA-256 of the surface's CSV rendering.
func csvDigest(s *sweep.Surface) (string, error) {
	h := sha256.New()
	if err := s.WriteCSV(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// schemeKey is a scheme's lower-case name as used in metric names.
func schemeKey(s core.Scheme) string { return strings.ToLower(s.String()) }
