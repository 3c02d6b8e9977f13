// Package sim is the trace-driven simulation engine: it runs
// predictors over branch traces, collects metrics, and fans a single
// trace out to many configurations in parallel (one decoded trace,
// many small predictors — DESIGN.md design decision 1).
package sim

import (
	"context"
	"fmt"
	"sync"

	"bpred/internal/core"
	"bpred/internal/obs"
	"bpred/internal/trace"
)

// Metrics summarizes one predictor's run over one trace.
type Metrics struct {
	// Name is the predictor's configuration-qualified name.
	Name string
	// Branches is the number of predicted branches (after warmup).
	Branches uint64
	// Mispredicts is the number of wrong predictions (after warmup).
	Mispredicts uint64
	// Alias carries second-level aliasing statistics when the
	// predictor was metered.
	Alias core.AliasStats
	// FirstLevelMissRate is the PAs first-level conflict rate (0 for
	// other schemes).
	FirstLevelMissRate float64
}

// MispredictRate returns Mispredicts/Branches, the paper's figure of
// merit.
func (m Metrics) MispredictRate() float64 {
	if m.Branches == 0 {
		return 0
	}
	return float64(m.Mispredicts) / float64(m.Branches)
}

// String renders a one-line summary.
func (m Metrics) String() string {
	return fmt.Sprintf("%s: %d/%d mispredicted (%.2f%%)",
		m.Name, m.Mispredicts, m.Branches, 100*m.MispredictRate())
}

// Options control a simulation run.
type Options struct {
	// Warmup is the number of leading branches that train the
	// predictor without being scored. The paper scores whole traces
	// (cold-start effects wash out over 10^7-10^8 branches); scaled
	// traces benefit from a short warmup. Zero scores everything.
	Warmup int
	// Chunk overrides the branches-per-chunk granularity of the
	// batched fast path (0 means the L2-sized default). Exposed
	// mainly so tests can exercise chunk-boundary behavior.
	Chunk int
	// Obs, when non-nil, receives run-level progress counters
	// (branches, chunks) updated at chunk boundaries. Nil disables
	// instrumentation at the cost of one nil check per chunk.
	Obs *obs.Counters
}

// Run drives one predictor over a branch source with the generic
// interface-dispatched loop. It is the reference implementation the
// batched kernels are validated against (kernel_test.go) and the
// guaranteed-compatible path for third-party Source and Predictor
// implementations; hot callers should prefer RunTrace or the other
// trace-level entry points, which select monomorphic kernels.
func Run(p core.Predictor, src trace.Source, opt Options) Metrics {
	m := Metrics{Name: p.Name()}
	warm := opt.Warmup
	for {
		b, ok := src.Next()
		if !ok {
			break
		}
		pred := p.Predict(b)
		p.Update(b)
		if warm > 0 {
			warm--
			continue
		}
		m.Branches++
		if pred != b.Taken {
			m.Mispredicts++
		}
	}
	finishMetrics(&m, p)
	return m
}

// finishMetrics attaches the optional reporter epilogues to m.
func finishMetrics(m *Metrics, p core.Predictor) {
	if ar, ok := p.(core.AliasReporter); ok {
		m.Alias = ar.AliasStats()
	}
	if fr, ok := p.(core.FirstLevelReporter); ok {
		m.FirstLevelMissRate = fr.FirstLevelMissRate()
	}
}

// RunTrace drives one predictor over an in-memory trace on the
// batched fast path (chunks are zero-copy windows into the trace).
func RunTrace(p core.Predictor, t *trace.Trace, opt Options) Metrics {
	m, _ := RunTraceCtx(context.Background(), p, t, opt)
	return m
}

// RunTraceCtx is RunTrace with cancellation: ctx is checked once per
// chunk, so a cancel is honored within one chunk of work (zero cost
// inside the kernels; with a background context the check compiles to
// a nil comparison). On cancellation the returned Metrics cover the
// branches processed so far and the error is ctx.Err().
func RunTraceCtx(ctx context.Context, p core.Predictor, t *trace.Trace, opt Options) (Metrics, error) {
	r := newRunner(p, opt)
	if !eachChunk(ctx, t.NewSource(), opt, r.feed) {
		return r.finish(), ctx.Err()
	}
	return r.finish(), nil
}

// chunkBufs recycles eachChunk's batch buffers. Only BPT1 readers
// write into one, but NextBatch takes its window size from len(buf),
// and a fresh 192 KiB buffer per pass would cost a small-trace
// RunTrace call more than its simulation.
var chunkBufs sync.Pool

// eachChunk feeds src to fn one NextBatch window of at most
// chunkLen(opt) branches at a time, checking ctx before each. It
// reports false, having stopped early, when ctx is canceled; a
// background context costs one nil comparison per chunk. It is the
// one chunk loop: every entry point drives its kernels through it,
// over a resident trace's zero-copy windows or a reader's decoded
// blocks alike.
func eachChunk(ctx context.Context, src trace.BatchSource, opt Options, fn func(chunk []trace.Branch)) bool {
	n := chunkLen(opt)
	bp, _ := chunkBufs.Get().(*[]trace.Branch)
	if bp == nil || cap(*bp) < n {
		b := make([]trace.Branch, n)
		bp = &b
	}
	defer chunkBufs.Put(bp)
	buf := (*bp)[:n]
	done := ctx.Done()
	for {
		chunk := src.NextBatch(buf)
		if len(chunk) == 0 {
			return true
		}
		if done != nil {
			select {
			case <-done:
				return false
			default:
			}
		}
		fn(chunk)
	}
}

// RunConfigs builds every configuration and runs each over the trace,
// in parallel across GOMAXPROCS workers. Results are returned in
// input order. Invalid configurations produce an error.
func RunConfigs(configs []core.Config, t *trace.Trace, opt Options) ([]Metrics, error) {
	return RunConfigsCtx(context.Background(), configs, t, opt)
}

// RunConfigsCtx is RunConfigs with cancellation. The partial-result
// contract is RunPredictorsCtx's: on cancellation the returned error
// is ctx.Err() and the metrics slice holds final values for every
// configuration whose batch completed before the cancel
// (recognizable by a non-empty Name) and zero Metrics for the rest.
//
// Mask-compatible groups of configurations (see fused.go) execute
// config-parallel: one trace pass drives every geometry in the group
// at once, and the remainder runs on the per-config kernels. Fusion
// never changes results — only how many times the trace is decoded.
func RunConfigsCtx(ctx context.Context, configs []core.Config, t *trace.Trace, opt Options) ([]Metrics, error) {
	return RunConfigsStream(ctx, configs, resident(t), opt)
}

// RunConfigsStream is RunConfigsCtx over a trace that need not be
// memory-resident. open must return a fresh pass over the trace from
// its first branch on every call: each executor task (see execute)
// opens its own, drains it, and closes it if it is an io.Closer. With
// a trace.FileReader per pass, peak residency is one decoded BPT2
// block per task, regardless of trace length. Fusion and the task
// split are RunConfigsCtx's, so metrics are bit-identical to it over
// the decoded trace (the stream-equivalence tests pin this).
//
// Cancellation follows RunConfigsCtx's partial-result contract. A
// source error — an open that fails, or a pass whose Err reports a
// corrupt or truncated trace — zeroes every entry and is returned, so
// no metric from a bad read reaches the caller.
func RunConfigsStream(ctx context.Context, configs []core.Config, open func() (trace.BatchSource, error), opt Options) ([]Metrics, error) {
	preds, err := buildConfigs(configs, opt)
	if err != nil {
		return nil, err
	}
	groups, rest := fuseGroups(configs)
	return execute(ctx, groups, rest, preds, open, opt)
}

// resident opens passes over an in-memory trace: zero-copy windows,
// nothing to close.
func resident(t *trace.Trace) func() (trace.BatchSource, error) {
	return func() (trace.BatchSource, error) { return t.NewSource(), nil }
}

// buildConfigs builds every configuration, failing fast on the first
// invalid one.
func buildConfigs(configs []core.Config, opt Options) ([]core.Predictor, error) {
	preds := make([]core.Predictor, len(configs))
	for i, c := range configs {
		p, err := c.Build()
		if err != nil {
			opt.Obs.AddFailed(1)
			return nil, fmt.Errorf("sim: config %d: %w", i, err)
		}
		preds[i] = p
	}
	return preds, nil
}

// RunPredictors runs pre-built predictors over the trace in parallel.
// Each predictor must be independent; they share only the read-only
// trace.
//
// Execution is chunk-shared: predictors are partitioned into one
// batch per worker, and each worker streams the trace in L2-sized
// chunks, replaying every resident chunk through all of its batch's
// predictors before moving on. One hot chunk thereby feeds many small
// predictors (DESIGN.md design decision 1 taken to the cache level)
// instead of every predictor streaming the full trace from DRAM.
func RunPredictors(preds []core.Predictor, t *trace.Trace, opt Options) []Metrics {
	out, _ := RunPredictorsCtx(context.Background(), preds, t, opt)
	return out
}

// RunPredictorsCtx is RunPredictors with cancellation. It is the
// executor behind RunConfigsCtx with no fuse groups: every predictor
// runs on its per-config kernel. Every batch checks ctx once per
// chunk, so after a cancel the call returns within one chunk of
// per-worker work and leaves no goroutines behind (workers exit
// through the same WaitGroup as a normal run).
//
// Partial-result contract: on cancellation the error is ctx.Err() and
// the returned slice is still len(preds) long; entries for predictors
// whose batch ran to completion before the cancel hold their final
// Metrics (recognizable by a non-empty Name — finish always stamps
// one), while predictors interrupted mid-stream are left as zero
// Metrics. Chunk-shared execution advances a batch in lockstep, so a
// batch is either wholly complete or wholly absent.
func RunPredictorsCtx(ctx context.Context, preds []core.Predictor, t *trace.Trace, opt Options) ([]Metrics, error) {
	return execute(ctx, nil, seq(len(preds)), preds, resident(t), opt)
}

// seq returns the indices 0..n-1.
func seq(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
