package sim

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"bpred/internal/core"
	"bpred/internal/trace"
)

// cancelAfter wraps a predictor and cancels a context after a fixed
// number of Update calls — a deterministic mid-run cancellation point.
// Being an unknown concrete type it takes the generic chunk loop, so
// the cancel fires from inside a chunk and must only be observed at
// the next chunk boundary.
type cancelAfter struct {
	core.Predictor
	remaining int
	cancel    context.CancelFunc
}

func (c *cancelAfter) Update(b trace.Branch) {
	c.Predictor.Update(b)
	if c.remaining > 0 {
		c.remaining--
		if c.remaining == 0 {
			c.cancel()
		}
	}
}

func TestRunTraceCtxPreCanceled(t *testing.T) {
	tr := kernelTrace(7, 10_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	m, err := RunTraceCtx(ctx, core.NewGShare(9, 2), tr, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m.Branches != 0 {
		t.Errorf("pre-canceled run scored %d branches, want 0", m.Branches)
	}
	if m.Name == "" {
		t.Errorf("partial Metrics must still carry the predictor name")
	}
}

// TestRunTraceCtxCancelLatency cancels mid-run and checks the latency
// bound: the run returns within one chunk of the cancellation point,
// with the partial tally covering exactly the chunks fed before the
// cancel was observed.
func TestRunTraceCtxCancelLatency(t *testing.T) {
	const (
		total       = 50_000
		chunk       = 512
		cancelPoint = 10_000
	)
	tr := kernelTrace(9, total)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := &cancelAfter{Predictor: core.NewGShare(9, 2), remaining: cancelPoint, cancel: cancel}

	m, err := RunTraceCtx(ctx, p, tr, Options{Chunk: chunk})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m.Branches < cancelPoint {
		t.Errorf("scored %d branches, want at least the %d processed before cancel", m.Branches, cancelPoint)
	}
	if m.Branches >= cancelPoint+chunk {
		t.Errorf("scored %d branches; cancel observed more than one %d-branch chunk after the cancellation point %d",
			m.Branches, chunk, cancelPoint)
	}
	if m.Branches%chunk != 0 {
		t.Errorf("scored %d branches, not a whole number of %d-branch chunks", m.Branches, chunk)
	}
}

// TestRunTraceCtxUncanceled confirms the context path is a strict
// superset of the plain path: with a background context the results
// are identical and the error nil.
func TestRunTraceCtxUncanceled(t *testing.T) {
	tr := kernelTrace(11, 20_000)
	opt := Options{Warmup: 500}
	want := RunTrace(core.NewGShare(9, 2), tr, opt)
	got, err := RunTraceCtx(context.Background(), core.NewGShare(9, 2), tr, opt)
	if err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	if got != want {
		t.Errorf("RunTraceCtx = %+v, want %+v", got, want)
	}
}

// TestRunPredictorsCtxPartialContract cancels a fan-out mid-run and
// checks the documented contract: the slice keeps its full length,
// and every entry is either wholly complete (non-empty Name, full
// scored-branch count) or wholly absent (zero Metrics).
func TestRunPredictorsCtxPartialContract(t *testing.T) {
	const (
		total  = 40_000
		warmup = 1_000
	)
	tr := kernelTrace(12, total)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	preds := make([]core.Predictor, 0, 9)
	// One self-canceling predictor among ordinary ones: its worker's
	// batch is interrupted; other workers may or may not finish first.
	preds = append(preds, &cancelAfter{Predictor: core.NewGShare(9, 2), remaining: 5_000, cancel: cancel})
	for i := 0; i < 8; i++ {
		preds = append(preds, core.NewGAs(7, 3))
	}

	out, err := RunPredictorsCtx(ctx, preds, tr, Options{Warmup: warmup, Chunk: 512})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out) != len(preds) {
		t.Fatalf("len(out) = %d, want %d", len(out), len(preds))
	}
	complete := 0
	for i, m := range out {
		switch {
		case m.Name == "":
			if m.Branches != 0 || m.Mispredicts != 0 {
				t.Errorf("entry %d: interrupted yet carries counts: %+v", i, m)
			}
		default:
			complete++
			if m.Branches != total-warmup {
				t.Errorf("entry %d: marked complete but scored %d of %d branches", i, m.Branches, total-warmup)
			}
		}
	}
	// The canceling predictor's own batch can never complete.
	if out[0].Name != "" {
		t.Errorf("self-canceling predictor's entry reported complete: %+v", out[0])
	}
	t.Logf("%d/%d batch entries completed before cancel", complete, len(out))
}

// TestRunPredictorsCtxNoGoroutineLeak cancels many fan-outs and
// confirms the worker goroutines all drain: the goroutine count
// settles back to its baseline.
func TestRunPredictorsCtxNoGoroutineLeak(t *testing.T) {
	tr := kernelTrace(13, 30_000)
	baseline := runtime.NumGoroutine()

	for round := 0; round < 5; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		preds := make([]core.Predictor, 0, 9)
		preds = append(preds, &cancelAfter{Predictor: core.NewGShare(9, 2), remaining: 2_000, cancel: cancel})
		for i := 0; i < 8; i++ {
			preds = append(preds, core.NewGShare(8, 2))
		}
		if _, err := RunPredictorsCtx(ctx, preds, tr, Options{Chunk: 256}); !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: err = %v, want context.Canceled", round, err)
		}
		cancel()
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunConfigsCtxPreCanceled(t *testing.T) {
	tr := kernelTrace(14, 5_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	configs := []core.Config{
		{Scheme: core.SchemeGShare, RowBits: 8, ColBits: 2},
		{Scheme: core.SchemeAddress, ColBits: 10},
	}
	out, err := RunConfigsCtx(ctx, configs, tr, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out) != len(configs) {
		t.Fatalf("len(out) = %d, want %d", len(out), len(configs))
	}
}
