package service

import (
	"context"
	"errors"
	"fmt"
	"os"

	"bpred/internal/checkpoint"
	"bpred/internal/core"
	"bpred/internal/obs"
	"bpred/internal/sim"
	"bpred/internal/sweep"
)

// runJob drives one job end to end inside a worker: transition to
// running, execute, classify the outcome (done / failed / canceled /
// interrupted), persist the result and the job table, and fold the
// job's counters into the manager's global set.
func (m *Manager) runJob(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued { // canceled while waiting in the queue
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(m.ctx)
	j.state = StateRunning
	j.cancel = cancel
	j.started = obs.Now()
	j.mu.Unlock()
	defer cancel()
	m.persistJobs()

	if m.hookJobStart != nil {
		m.hookJobStart(ctx, j)
	}

	var lastMerged obs.Snapshot
	mergeGlobal := func() {
		snap := j.Obs.Snapshot()
		m.global.Merge(snap.Sub(lastMerged))
		lastMerged = snap
	}
	defer mergeGlobal()

	res, err := m.execute(ctx, j, mergeGlobal)

	j.mu.Lock()
	switch {
	case err == nil:
		j.state = StateDone
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// reason distinguishes a user cancel from a server drain; both
		// keep the partial-result contract.
		j.state = j.reason
	default:
		j.state = StateFailed
		j.errText = err.Error()
	}
	if res != nil {
		res.State = j.state
		j.result = res
	}
	j.finished = obs.Now()
	j.mu.Unlock()

	if res != nil {
		if perr := m.persistResult(j.ID, res); perr != nil {
			fmt.Fprintf(os.Stderr, "bpserved: persisting result %s: %v\n", j.ID, perr)
		}
	}
	m.persistJobs()
}

// execute evaluates every cell of the job with the exactly-once
// pipeline, tier by tier:
//
//  1. cache: a fingerprint already in the shared BPC1 store is placed
//     without simulation (counted cached);
//  2. claim: each remaining cell's flight is claimed; the cells this
//     job leads run in ONE chunk-shared sim.RunConfigsCtx call (the
//     engine's fast path), are added to the store, and published;
//  3. wait: cells led by other jobs are collected and resolved after
//     this job's own leads are settled — never while holding an
//     unsettled claim, so cross-job waits cannot deadlock. A waiter
//     whose leader was canceled retries the claim and may inherit
//     the lead.
//
// Cancellation is chunk-boundary (the engine's contract): on a cancel
// or drain the completed cells are kept, the store is flushed, and
// the partial result is returned with ctx's error.
func (m *Manager) execute(ctx context.Context, j *Job, mergeGlobal func()) (*JobResult, error) {
	digest := j.digest()
	// Acquire leases the job's trace: small traces are pinned in the
	// decoded LRU (never evicted while this job runs), large ones come
	// back as zero-residency streaming handles.
	tr, err := m.traces.Acquire(j.Spec.Trace)
	if err != nil {
		return nil, err
	}
	defer tr.Release()
	store, err := m.stores.For(digest, uint64(j.Spec.Warmup))
	if err != nil {
		return nil, err
	}
	simOpts := sim.Options{Warmup: j.Spec.Warmup, Obs: j.Obs}
	collected := make(map[string]sim.Metrics, len(j.Configs))
	partial := func(err error) (*JobResult, error) {
		flushStoreBestEffort(store)
		return buildResult(j, tr.Info().Name, collected), err
	}

	type pendingWait struct {
		cfg core.Config
		key string
		f   *flight
	}
	var waits []pendingWait

	for _, tier := range tiersOf(j.Opts) {
		if err := ctx.Err(); err != nil {
			return partial(err)
		}
		tierStop := j.Obs.TierTimer()
		tierOpts := j.Opts
		tierOpts.Tiers = []int{tier}
		var mine []core.Config
		var mineKeys []string
		var mineFlights []*flight
		for _, c := range sweep.Configs(tierOpts) {
			fp := c.Fingerprint()
			if mtr, ok := store.Lookup(fp); ok {
				collected[fp] = mtr
				j.Obs.AddCached(1)
				continue
			}
			key := cellKey(digest, j.Spec.Warmup, fp)
			f, leader := m.flights.claim(key)
			if leader {
				// Re-check the cache after winning the claim: the prior
				// leader may have published and released between our
				// Lookup miss and the claim, and leading here would
				// re-simulate a settled cell.
				if mtr, ok := store.Lookup(fp); ok {
					collected[fp] = mtr
					j.Obs.AddCached(1)
					m.flights.publish(key, f, mtr)
					continue
				}
				mine = append(mine, c)
				mineKeys = append(mineKeys, key)
				mineFlights = append(mineFlights, f)
			} else {
				waits = append(waits, pendingWait{cfg: c, key: key, f: f})
			}
		}
		if len(mine) > 0 {
			ms, err := m.sched.RunCells(ctx, digest, j.Spec.Warmup, mine, tr, simOpts)
			if err != nil {
				// Partial-result contract: worker batches that finished
				// before the cancel carry final metrics (non-empty
				// Name); keep and publish those, release the rest so
				// waiting jobs can retry.
				for i, c := range mine {
					if ms != nil && ms[i].Name != "" {
						fp := c.Fingerprint()
						store.Add(fp, ms[i])
						collected[fp] = ms[i]
						j.Obs.AddCompleted(1)
						m.flights.publish(mineKeys[i], mineFlights[i], ms[i])
					} else {
						m.flights.abandon(mineKeys[i], mineFlights[i], err)
					}
				}
				return partial(err)
			}
			for i, c := range mine {
				fp := c.Fingerprint()
				store.Add(fp, ms[i])
				collected[fp] = ms[i]
				j.Obs.AddCompleted(1)
				m.flights.publish(mineKeys[i], mineFlights[i], ms[i])
			}
			if err := store.Flush(); err != nil {
				return nil, fmt.Errorf("service: %w", err)
			}
		}
		tierStop()
		mergeGlobal()
		if m.hookTierDone != nil {
			m.hookTierDone(ctx, j, tier)
		}
	}

	// Wait phase: resolve cells other jobs were executing. This job
	// holds no unsettled claims here, so waiting cannot deadlock.
	for _, w := range waits {
		f := w.f
		for {
			if mtr, ok := store.Lookup(w.cfg.Fingerprint()); ok {
				collected[w.cfg.Fingerprint()] = mtr
				j.Obs.AddCached(1)
				break
			}
			if f == nil {
				var leader bool
				f, leader = m.flights.claim(w.key)
				if leader {
					if mtr, ok := store.Lookup(w.cfg.Fingerprint()); ok {
						// Settled between the loop-top miss and the claim.
						collected[w.cfg.Fingerprint()] = mtr
						j.Obs.AddCached(1)
						m.flights.publish(w.key, f, mtr)
						break
					}
					// The previous leader abandoned the cell (canceled
					// mid-run); this job inherits the lead.
					ms, err := m.sched.RunCells(ctx, digest, j.Spec.Warmup, []core.Config{w.cfg}, tr, simOpts)
					if err != nil {
						m.flights.abandon(w.key, f, err)
						return partial(err)
					}
					fp := w.cfg.Fingerprint()
					store.Add(fp, ms[0])
					collected[fp] = ms[0]
					j.Obs.AddCompleted(1)
					m.flights.publish(w.key, f, ms[0])
					break
				}
			}
			select {
			case <-ctx.Done():
				return partial(ctx.Err())
			case <-f.done:
				if f.err == nil {
					collected[w.cfg.Fingerprint()] = f.m
					j.Obs.AddCached(1)
				} else {
					f = nil // settled with failure: retry the claim
					continue
				}
			}
			break
		}
	}
	if err := store.Flush(); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	mergeGlobal()
	return buildResult(j, tr.Info().Name, collected), nil
}

// tiersOf returns the job's tier list in execution order.
func tiersOf(o sweep.Options) []int {
	if len(o.Tiers) > 0 {
		return o.Tiers
	}
	lo, hi := o.MinBits, o.MaxBits
	if lo == 0 && hi == 0 {
		lo, hi = sweep.DefaultMinBits, sweep.DefaultMaxBits
	}
	out := make([]int, 0, hi-lo+1)
	for n := lo; n <= hi; n++ {
		out = append(out, n)
	}
	return out
}

// flushStoreBestEffort persists completed cells on interruption
// paths, where the interruption error wins over a (rare) flush
// failure — losing the flush only costs re-simulation on resume.
func flushStoreBestEffort(store *checkpoint.Store) {
	_ = store.Flush() //bplint:ignore codecerr the interruption error wins; a lost flush only costs re-simulation on resume
}
