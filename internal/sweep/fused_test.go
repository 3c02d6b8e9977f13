package sweep

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"bpred/internal/checkpoint"
	"bpred/internal/core"
	"bpred/internal/sim"
	"bpred/internal/trace"
)

// perConfigCells adds to store the per-config result of every
// configuration not already in it: each geometry built and run on its
// own kernel by sim.RunPredictors, with no fusion. A sweep over a store
// holding all of its cells simulates nothing, so its Surface is the
// per-config surface.
func perConfigCells(store *checkpoint.Store, configs []core.Config, tr *trace.Trace, opt sim.Options) {
	var missing []core.Config
	var preds []core.Predictor
	for _, c := range configs {
		if _, ok := store.Lookup(c.Fingerprint()); !ok {
			missing = append(missing, c)
			preds = append(preds, c.MustBuild())
		}
	}
	for i, m := range sim.RunPredictors(preds, tr, opt) {
		store.Add(missing[i].Fingerprint(), m)
	}
}

// TestFusedSurfaceIdentity requires the config-parallel fused path to
// produce Surfaces deep- and byte-identical to the per-config path for
// every scheme family the sweep enumerates — the BPC1 cell contents
// and CSV serialization must not know or care which execution strategy
// produced them.
func TestFusedSurfaceIdentity(t *testing.T) {
	tr := resumeTrace(t, 30_000)
	for name, o := range resumeSchemes() {
		o := o
		o.Sim = sim.Options{Warmup: 1_000}
		t.Run(name, func(t *testing.T) {
			fused, err := Run(o, tr)
			if err != nil {
				t.Fatalf("fused: %v", err)
			}
			plain := o
			plain.Checkpoint = checkpoint.NewMemory(tr.Digest(), uint64(o.Sim.Warmup))
			perConfigCells(plain.Checkpoint, Configs(o), tr, o.Sim)
			unfused, err := Run(plain, tr)
			if err != nil {
				t.Fatalf("per-config: %v", err)
			}
			if !reflect.DeepEqual(fused, unfused) {
				t.Error("fused surface differs from per-config surface")
			}
			if fb, ub := surfaceBytes(t, fused), surfaceBytes(t, unfused); !bytes.Equal(fb, ub) {
				t.Errorf("fused surface serialization differs\n got: %q\nwant: %q", fb, ub)
			}
		})
	}
}

// TestFusedResumeCrossPath interrupts a fused sweep and resumes it on
// the per-config path (and vice versa): checkpoint cells written by
// one execution strategy must be byte-compatible with the other, since
// cell identity is keyed purely on config fingerprint + trace digest +
// warmup.
func TestFusedResumeCrossPath(t *testing.T) {
	tr := resumeTrace(t, 30_000)
	digest := tr.Digest()
	const warmup = 1_000

	base := Options{
		Scheme: core.SchemeGShare, MinBits: 4, MaxBits: 7,
		Sim: sim.Options{Warmup: warmup},
	}
	baseline, err := Run(base, tr)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	// fusedInterrupt cancels a fused sweep once its first tier is
	// checkpointed.
	fusedInterrupt := func(t *testing.T, store *checkpoint.Store) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		interrupted := base
		interrupted.Checkpoint = store
		interrupted.afterTier = func(tableBits int) {
			if tableBits == base.MinBits {
				cancel()
			}
		}
		if _, err := RunCtx(ctx, interrupted, tr); !errors.Is(err, context.Canceled) {
			t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
		}
	}
	// perConfigInterrupt leaves what a per-config sweep canceled after
	// its first tier keeps: that tier's cells.
	perConfigInterrupt := func(t *testing.T, store *checkpoint.Store) {
		perConfigCells(store, tierConfigs(base, base.MinBits), tr, base.Sim)
	}
	// perConfigResume simulates every missing cell per config, so the
	// resumed sweep only assembles the surface; fusedResume leaves the
	// missing cells to the resumed sweep's fused execution.
	perConfigResume := func(store *checkpoint.Store) {
		perConfigCells(store, Configs(base), tr, base.Sim)
	}
	fusedResume := func(*checkpoint.Store) {}

	for _, dir := range []struct {
		name      string
		interrupt func(*testing.T, *checkpoint.Store)
		resume    func(*checkpoint.Store)
	}{
		{"fused-then-per-config", fusedInterrupt, perConfigResume},
		{"per-config-then-fused", perConfigInterrupt, fusedResume},
	} {
		t.Run(dir.name, func(t *testing.T) {
			store := checkpoint.NewMemory(digest, warmup)
			dir.interrupt(t, store)
			if store.Len() == 0 {
				t.Fatal("interrupted run checkpointed nothing")
			}

			dir.resume(store)
			resumed := base
			resumed.Checkpoint = store
			got, err := RunCtx(context.Background(), resumed, tr)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if !bytes.Equal(surfaceBytes(t, got), surfaceBytes(t, baseline)) {
				t.Error("cross-path resumed surface differs from uninterrupted baseline")
			}
		})
	}
}
