package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"bpred/internal/checkpoint"
	"bpred/internal/core"
	"bpred/internal/obs"
	"bpred/internal/sim"
)

// WorkerStats counts worker-side events.
type WorkerStats struct {
	// ChunksRun counts chunks executed to completion.
	ChunksRun uint64
	// CellsComputed counts cells this worker's kernels evaluated.
	CellsComputed uint64
	// CellsLocal counts chunk cells answered from the local replica
	// cache without simulation.
	CellsLocal uint64
	// ReplicasInstalled counts replica cells installed from
	// coordinator pushes.
	ReplicasInstalled uint64
}

// Worker pulls chunks from a coordinator, runs the simulation
// kernels, and reports results. Per-(trace, warmup) in-memory BPC1
// stores — warmed by piggybacked replication — let it answer a chunk
// whose cells were already settled elsewhere without re-simulating.
type Worker struct {
	id     string
	client CoordinatorClient
	traces TraceProvider

	// RetryDelay backs off transport errors (default 50ms). All
	// transport errors — including coordinator shutdown — are
	// retried, because a partitioned or restarted coordinator may
	// come back behind the same client; canceling ctx is the only way
	// to stop a worker.
	RetryDelay time.Duration

	stores *checkpoint.Stores // in-memory replica caches

	mu    sync.Mutex
	stats WorkerStats //bplint:guardedby mu

	// hookChunk, when set, runs before each chunk executes; the chaos
	// harness uses it to kill a worker mid-chunk at a deterministic
	// point.
	hookChunk func(ctx context.Context, ch *Chunk)
}

// NewWorker builds a worker. id must be unique within the fleet; it
// is the worker's ring identity.
func NewWorker(id string, client CoordinatorClient, traces TraceProvider) *Worker {
	return &Worker{
		id:     id,
		client: client,
		traces: traces,
		stores: checkpoint.NewStores(""),
	}
}

// ID returns the worker's fleet identity.
func (w *Worker) ID() string { return w.id }

// Stats returns a snapshot of the worker's counters.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Run joins the coordinator and serves chunks until ctx ends; it
// returns ctx's error (a worker has no other way to finish). A chunk
// interrupted by the cancellation is dropped unreported — the
// coordinator re-queues it via WorkerLeave or lease expiry.
func (w *Worker) Run(ctx context.Context) error {
	joined := false
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !joined {
			if err := w.client.Join(ctx, w.id); err != nil {
				w.sleep(ctx)
				continue
			}
			joined = true
		}
		work, err := w.client.Next(ctx, w.id)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, ErrUnknownWorker) {
				joined = false // coordinator restarted: re-register
				continue
			}
			w.sleep(ctx)
			continue
		}
		w.install(work.Replicas)
		if work.Chunk == nil {
			continue
		}
		res := w.execute(ctx, work.Chunk)
		if res == nil { // canceled mid-chunk
			return ctx.Err()
		}
		for {
			if err := w.client.Complete(ctx, w.id, *res); err == nil {
				break
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.sleep(ctx)
		}
	}
}

func (w *Worker) sleep(ctx context.Context) {
	d := w.RetryDelay
	if d <= 0 {
		d = 50 * time.Millisecond
	}
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}

// execute runs one chunk: cells present in the local replica cache
// are answered directly, the rest go through sim.RunConfigsCtx in one
// call (so the fused config-parallel kernels see the whole slab). It
// returns nil when ctx was canceled mid-chunk — the partial work is
// dropped and the chunk stays the coordinator's to re-queue.
func (w *Worker) execute(ctx context.Context, ch *Chunk) *ChunkResult {
	if w.hookChunk != nil {
		w.hookChunk(ctx, ch)
	}
	res := &ChunkResult{Chunk: ch.ID, Trace: ch.Trace, Warmup: ch.Warmup}
	fail := func(err error) *ChunkResult {
		res.Err = err.Error()
		res.Failed = res.Failed[:0]
		for _, cfg := range ch.Configs {
			res.Failed = append(res.Failed, cfg.Fingerprint())
		}
		return res
	}
	store, err := w.storeFor(ch.Trace, ch.Warmup)
	if err != nil {
		return fail(err)
	}
	var missing []core.Config
	local := 0
	for _, cfg := range ch.Configs {
		fp := cfg.Fingerprint()
		if m, ok := store.Lookup(fp); ok {
			res.Cells = append(res.Cells, CellResult{Fingerprint: fp, Metrics: m})
			local++
			continue
		}
		missing = append(missing, cfg)
	}
	computed := 0
	if len(missing) > 0 {
		tr, err := w.traces.Trace(ctx, ch.Trace)
		if err != nil {
			return fail(fmt.Errorf("cluster: worker %s: trace %s: %w", w.id, ch.Trace, err))
		}
		var cnt obs.Counters
		ms, err := sim.RunConfigsCtx(ctx, missing, tr, sim.Options{Warmup: int(ch.Warmup), Obs: &cnt})
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fail(err)
		}
		for i, cfg := range missing {
			fp := cfg.Fingerprint()
			store.Add(fp, ms[i])
			res.Cells = append(res.Cells, CellResult{Fingerprint: fp, Metrics: ms[i]})
		}
		computed = len(missing)
		res.Progress = cnt.Snapshot()
	}
	w.mu.Lock()
	w.stats.ChunksRun++
	w.stats.CellsLocal += uint64(local)
	w.stats.CellsComputed += uint64(computed)
	w.mu.Unlock()
	return res
}

// install folds pushed replicas into the local caches.
func (w *Worker) install(reps []ReplicaCell) {
	for _, r := range reps {
		store, err := w.storeFor(r.Trace, r.Warmup)
		if err != nil {
			continue // malformed push; replication is best-effort
		}
		if _, ok := store.Lookup(r.Fingerprint); ok {
			continue
		}
		store.Add(r.Fingerprint, r.Metrics)
		w.mu.Lock()
		w.stats.ReplicasInstalled++
		w.mu.Unlock()
	}
}

// storeFor returns the in-memory replica cache for one (trace,
// warmup) binding.
func (w *Worker) storeFor(hexDigest string, warmup uint64) (*checkpoint.Store, error) {
	digest, err := parseDigest(hexDigest)
	if err != nil {
		return nil, err
	}
	return w.stores.For(digest, warmup)
}
