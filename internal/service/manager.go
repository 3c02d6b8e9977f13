// Package service is the sweep-as-a-service subsystem behind
// cmd/bpserved: an HTTP/JSON front-end (stdlib net/http only) over
// the existing engine layers. Traces are uploaded once and keyed by
// the same SHA-256 content digest the checkpoint layer uses; sweep
// jobs run on a bounded worker pool with queue-full backpressure
// (429 + Retry-After); identical jobs collapse onto one execution via
// job-level dedup, overlapping ones onto one kernel execution per
// cell via cell-level single-flight in front of the shared BPC1
// result cache; and a drain path stops running jobs at the next chunk
// boundary, flushes checkpoints, and persists the job table so a
// restarted server resumes or serves completed results. DESIGN.md §9
// documents the architecture and the API.
package service

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bpred/internal/checkpoint"
	"bpred/internal/core"
	"bpred/internal/obs"
	"bpred/internal/sweep"
)

// State is a job's lifecycle phase.
type State string

// The job states. Queued and running jobs are live; the other four
// are terminal for this process, but interrupted jobs are re-enqueued
// by the next server over the same data directory.
const (
	StateQueued      State = "queued"
	StateRunning     State = "running"
	StateDone        State = "done"
	StateFailed      State = "failed"
	StateCanceled    State = "canceled"
	StateInterrupted State = "interrupted"
)

// terminal reports whether a state ends the job in this process.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled || s == StateInterrupted
}

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull signals backpressure: the job queue is at capacity
	// (429 + Retry-After).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining rejects work while the server shuts down (503).
	ErrDraining = errors.New("service: draining")
	// ErrNoJob marks an unknown job id (404).
	ErrNoJob = errors.New("service: no such job")
	// ErrNotFinished marks a result request for a live job (409).
	ErrNotFinished = errors.New("service: job not finished")
	// ErrJobQuota rejects a submission over the tenant's live-job
	// quota (429).
	ErrJobQuota = errors.New("service: tenant job quota exceeded")
)

// Job is one submitted sweep. Identity fields are immutable after
// creation; mutable state lives behind mu.
type Job struct {
	ID      string
	Key     string
	Spec    JobSpec
	Opts    sweep.Options
	Configs []core.Config
	// Tenant names the submitting tenant; empty in open single-tenant
	// mode. Jobs are only visible to their tenant (and to the open
	// mode, which sees everything).
	Tenant string

	// Obs carries this job's own progress counters (branches, chunks,
	// cells completed/cached); the manager folds deltas into its
	// process-global set at tier boundaries.
	Obs *obs.Counters

	mu        sync.Mutex
	state     State              //bplint:guardedby mu
	errText   string             //bplint:guardedby mu
	reason    State              //bplint:guardedby mu // what a context cancel resolves to: canceled or interrupted
	cancel    context.CancelFunc //bplint:guardedby mu
	result    *JobResult         //bplint:guardedby mu
	submitted time.Time          //bplint:guardedby mu
	started   time.Time          //bplint:guardedby mu
	finished  time.Time          //bplint:guardedby mu
}

// digest returns the binary trace digest (validated at submit).
func (j *Job) digest() [32]byte {
	var d [32]byte
	raw, _ := decodeHex32(j.Spec.Trace)
	d = raw
	return d
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// JobStatus is the wire form of a job's current state and progress.
type JobStatus struct {
	ID    string  `json:"id"`
	Key   string  `json:"key"`
	State State   `json:"state"`
	Spec  JobSpec `json:"spec"`
	Error string  `json:"error,omitempty"`
	// CellsTotal is the number of configurations the job evaluates;
	// CellsDone counts those already resolved (simulated by this job,
	// served from the BPC1 cache, or inherited from another job's
	// in-flight execution).
	CellsTotal int    `json:"cells_total"`
	CellsDone  uint64 `json:"cells_done"`
	// Progress is the job's live counter snapshot (branches, chunks,
	// cells, tier timings).
	Progress    obs.Snapshot `json:"progress"`
	SubmittedAt time.Time    `json:"submitted_at"`
	StartedAt   *time.Time   `json:"started_at,omitempty"`
	FinishedAt  *time.Time   `json:"finished_at,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	snap := j.Obs.Snapshot()
	st := JobStatus{
		ID:          j.ID,
		Key:         j.Key,
		State:       j.state,
		Spec:        j.Spec,
		Error:       j.errText,
		CellsTotal:  len(j.Configs),
		CellsDone:   snap.ConfigsCompleted + snap.ConfigsCached,
		Progress:    snap,
		SubmittedAt: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// Config parameterizes a Manager.
type Config struct {
	// DataDir roots all persistence: traces/, checkpoints/, results/,
	// and jobs.json live under it.
	DataDir string
	// Workers is the sweep worker pool size (0 = 2).
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker
	// (0 = 64). A full queue is the 429 backpressure boundary.
	QueueDepth int
	// MaxTraceBranches caps one uploaded trace's record count
	// (0 = 1<<24, ~16M branches ≈ 272 MB decoded). Enforced from the
	// declared header before any record decodes, and from actual
	// records as a belt against lying headers.
	MaxTraceBranches uint64
	// TraceCacheCap bounds the decoded-trace LRU
	// (0 = DefaultTraceCacheCap). In-flight jobs pin their traces, so
	// the cache can transiently exceed the cap by the number of
	// pinned-but-over-cap entries; it never evicts a running job's
	// trace.
	TraceCacheCap int
	// StreamBranches is the decode-versus-stream cutoff
	// (0 = DefaultStreamBranches): traces with more records execute
	// from streamed BPT2 blocks and are never decoded whole.
	StreamBranches uint64
	// Tenants, when non-empty, switches the service to authenticated
	// multi-tenant mode: every API request must present a known key,
	// and traces/jobs are namespaced per tenant. Empty keeps the open
	// single-tenant mode.
	Tenants []Tenant
	// PublishName is the obs registry name for the manager's global
	// counters (0 = "bpserved"). Tests running several managers in
	// one process give each a distinct name.
	PublishName string
	// Scheduler selects where cells execute: nil/LocalScheduler runs
	// them in-process, ClusterScheduler routes them to a coordinator
	// fleet.
	Scheduler Scheduler
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxTraceBranches == 0 {
		c.MaxTraceBranches = 1 << 24
	}
	if c.PublishName == "" {
		c.PublishName = "bpserved"
	}
	return c
}

// Manager owns the service's state: the trace store, the job table,
// the worker pool, the cell flight table, and the per-(trace, warmup)
// checkpoint store registry.
type Manager struct {
	cfg     Config
	traces  *TraceStore
	flights *flightGroup
	global  *obs.Counters
	sched   Scheduler
	started time.Time

	ctx  context.Context // manager lifetime; canceled by Drain
	stop context.CancelFunc

	stores *checkpoint.Stores // per-(trace, warmup) ledgers under checkpoints/

	mu    sync.Mutex
	jobs  map[string]*Job //bplint:guardedby mu
	order []string        //bplint:guardedby mu // submission order, for deterministic listings
	byKey map[string]*Job //bplint:guardedby mu
	seq   uint64          //bplint:guardedby mu

	queue    chan *Job
	wg       sync.WaitGroup
	draining atomic.Bool
	drainCh  chan struct{} // closed when draining starts; unblocks streams

	// Test seams. hookJobStart runs in the worker after a job turns
	// running, before execution; hookTierDone after each completed
	// tier. Both receive the job's context so a blocked hook still
	// unblocks on cancel/drain.
	hookJobStart func(ctx context.Context, j *Job)
	hookTierDone func(ctx context.Context, j *Job, tier int)
}

// NewManager opens the data directory, reloads persisted traces and
// jobs, republishes global counters, starts the worker pool, and
// re-enqueues every job the previous process did not finish.
func NewManager(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return nil, errors.New("service: Config.DataDir required")
	}
	for _, sub := range []string{"traces", "checkpoints", "results"} {
		if err := os.MkdirAll(filepath.Join(cfg.DataDir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
	}
	traces, err := NewTraceStore(filepath.Join(cfg.DataDir, "traces"),
		cfg.MaxTraceBranches, cfg.TraceCacheCap, cfg.StreamBranches)
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	sched := cfg.Scheduler
	if sched == nil {
		sched = LocalScheduler{}
	}
	m := &Manager{
		cfg:     cfg,
		traces:  traces,
		flights: newFlightGroup(),
		global:  &obs.Counters{},
		sched:   sched,
		started: obs.Now(),
		ctx:     ctx,
		stop:    stop,
		jobs:    make(map[string]*Job),
		byKey:   make(map[string]*Job),
		stores:  checkpoint.NewStores(filepath.Join(cfg.DataDir, "checkpoints")),
		queue:   make(chan *Job, cfg.QueueDepth),
		drainCh: make(chan struct{}),
	}
	m.global.Publish(cfg.PublishName)
	resumable, err := m.loadJobs()
	if err != nil {
		stop()
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	// Re-enqueue jobs the previous process left queued, running, or
	// interrupted. The backlog may exceed the queue depth, so feed it
	// from a goroutine; most of their cells hit the BPC1 cache, so a
	// resumed backlog drains quickly.
	if len(resumable) > 0 {
		go func() {
			for _, j := range resumable {
				select {
				case m.queue <- j:
				case <-m.ctx.Done():
					return
				}
			}
		}()
	}
	return m, nil
}

// Traces exposes the trace store.
func (m *Manager) Traces() *TraceStore { return m.traces }

// Global returns the manager's process-global counters.
func (m *Manager) Global() *obs.Counters { return m.global }

// Draining reports whether a drain has begun; the returned channel is
// closed when it does, so streaming handlers can unblock.
func (m *Manager) Draining() (bool, <-chan struct{}) {
	return m.draining.Load(), m.drainCh
}

// Submit validates the spec and either enqueues a new job or dedups
// onto an existing one. The bool reports dedup: identical (trace
// digest, warmup, configuration set) submissions collapse onto the
// same queued/running/done job. Terminal-but-unsuccessful jobs
// (failed, canceled, interrupted) do not absorb new submissions — a
// resubmission retries them under a fresh id, replaying whatever the
// checkpoint cache already holds.
func (m *Manager) Submit(spec JobSpec) (*Job, bool, error) {
	return m.SubmitAs(spec, "")
}

// dedupKey scopes a job's dedup identity to its tenant, so one
// tenant's submissions never collapse onto (or observe) another's.
func dedupKey(tenant, key string) string { return tenant + "\x00" + key }

// SubmitAs is Submit on behalf of a tenant: dedup is scoped to the
// tenant, the trace must be visible to it, and the tenant's live-job
// quota (queued + running) is enforced before enqueueing.
func (m *Manager) SubmitAs(spec JobSpec, tenant string) (*Job, bool, error) {
	digest, opts, configs, err := spec.validate()
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", errBadSpec, err)
	}
	if _, err := m.traces.InfoFor(spec.Trace, tenant); err != nil {
		return nil, false, err
	}
	key := jobKey(digest, spec.Warmup, configs)

	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.byKey[dedupKey(tenant, key)]; ok {
		if st := j.State(); !st.terminal() || st == StateDone {
			return j, true, nil
		}
	}
	if m.draining.Load() {
		return nil, false, ErrDraining
	}
	if t := m.tenantConfig(tenant); t != nil && t.MaxQueuedJobs > 0 {
		live := 0
		for _, id := range m.order {
			other := m.jobs[id]
			if other.Tenant != tenant {
				continue
			}
			if st := other.State(); st == StateQueued || st == StateRunning {
				live++
			}
		}
		if live >= t.MaxQueuedJobs {
			return nil, false, fmt.Errorf("%w: %d live jobs, cap is %d",
				ErrJobQuota, live, t.MaxQueuedJobs)
		}
	}
	m.seq++
	j := &Job{
		ID:        fmt.Sprintf("job-%06d", m.seq),
		Key:       key,
		Spec:      spec,
		Opts:      opts,
		Configs:   configs,
		Tenant:    tenant,
		Obs:       &obs.Counters{},
		state:     StateQueued,
		reason:    StateInterrupted,
		submitted: obs.Now(),
	}
	select {
	case m.queue <- j:
	default:
		m.seq--
		return nil, false, ErrQueueFull
	}
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.byKey[dedupKey(tenant, key)] = j
	if err := m.persistJobsLocked(); err != nil {
		// The job is accepted and will run; a failed table write only
		// weakens restart recovery, which the next persist repairs.
		fmt.Fprintf(os.Stderr, "bpserved: persisting job table: %v\n", err)
	}
	return j, false, nil
}

// errBadSpec marks submissions rejected at validation (400).
var errBadSpec = errors.New("service: invalid job spec")

// tenantConfig returns the declared tenant by name, nil for the open
// mode or unknown names. Callers may hold m.mu (cfg is immutable).
func (m *Manager) tenantConfig(name string) *Tenant {
	for i := range m.cfg.Tenants {
		if m.cfg.Tenants[i].Name == name {
			return &m.cfg.Tenants[i]
		}
	}
	return nil
}

// Job returns a job by id.
func (m *Manager) Job(id string) (*Job, error) {
	return m.JobFor(id, "")
}

// JobFor returns a job by id as seen by tenant; another tenant's job
// is indistinguishable from a missing one. The empty tenant (open
// mode) sees everything.
func (m *Manager) JobFor(id, tenant string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok || (tenant != "" && j.Tenant != tenant) {
		return nil, ErrNoJob
	}
	return j, nil
}

// Jobs lists all jobs in submission order.
func (m *Manager) Jobs() []*Job {
	return m.JobsFor("")
}

// JobsFor lists the jobs visible to tenant in submission order.
func (m *Manager) JobsFor(tenant string) []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		j := m.jobs[id]
		if tenant == "" || j.Tenant == tenant {
			out = append(out, j)
		}
	}
	return out
}

// jobCountsByState tallies jobs per state (metrics surface).
func (m *Manager) jobCountsByState() map[State]int {
	counts := map[State]int{
		StateQueued: 0, StateRunning: 0, StateDone: 0,
		StateFailed: 0, StateCanceled: 0, StateInterrupted: 0,
	}
	for _, j := range m.Jobs() {
		counts[j.State()]++
	}
	return counts
}

// Cancel cancels a job. A queued job turns canceled immediately; a
// running one is interrupted at its next chunk boundary and keeps the
// partial-result contract (every completed cell stays available, in
// the result payload and in the checkpoint cache). Canceling a
// terminal job is a no-op.
func (m *Manager) Cancel(id string) (*Job, error) {
	return m.CancelFor(id, "")
}

// CancelFor is Cancel scoped to a tenant's visibility.
func (m *Manager) CancelFor(id, tenant string) (*Job, error) {
	j, err := m.JobFor(id, tenant)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.finished = obs.Now()
		j.mu.Unlock()
		m.persistJobs()
		return j, nil
	case StateRunning:
		j.reason = StateCanceled
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return j, nil
	default:
		j.mu.Unlock()
		return j, nil
	}
}

// Result returns a job's terminal payload. Live jobs yield
// ErrNotFinished; failed jobs yield their error; canceled and
// interrupted jobs yield the partial result.
func (m *Manager) Result(id string) (*JobResult, error) {
	return m.ResultFor(id, "")
}

// ResultFor is Result scoped to a tenant's visibility.
func (m *Manager) ResultFor(id, tenant string) (*JobResult, error) {
	j, err := m.JobFor(id, tenant)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	state, errText, res := j.state, j.errText, j.result
	j.mu.Unlock()
	if !state.terminal() {
		return nil, ErrNotFinished
	}
	if res == nil {
		// Restarted process: the result lives on disk.
		res, err = m.loadResult(id)
		switch {
		case err != nil && state == StateFailed:
			return nil, fmt.Errorf("service: job %s failed: %s", id, errText)
		case err != nil && (state == StateCanceled || state == StateInterrupted):
			// Canceled before any worker touched it: the partial-result
			// contract degenerates to zero cells.
			name := ""
			if info, ierr := m.traces.Info(j.Spec.Trace); ierr == nil {
				name = info.Name
			}
			res = buildResult(j, name, nil)
			res.State = state
		case err != nil:
			return nil, err
		}
		j.mu.Lock()
		j.result = res
		j.mu.Unlock()
	}
	return res, nil
}

// worker pulls jobs off the queue until the manager is stopped.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.ctx.Done():
			return
		case j := <-m.queue:
			m.runJob(j)
		}
	}
}

// Drain shuts the manager down gracefully: new submissions are
// refused, every queued job is marked interrupted, every running job
// is canceled (its executor stops at the next chunk boundary and
// keeps completed cells), checkpoints are flushed, and the job table
// is persisted. Jobs left interrupted resume under the next manager
// over the same data directory. Drain is idempotent; ctx bounds the
// wait for workers.
func (m *Manager) Drain(ctx context.Context) error {
	if !m.draining.CompareAndSwap(false, true) {
		<-m.drainCh
		return nil
	}
	close(m.drainCh)

	// Mark running jobs before canceling their contexts so their
	// executors resolve the cancellation as an interruption, not a
	// user cancel.
	for _, j := range m.Jobs() {
		j.mu.Lock()
		if j.state == StateRunning {
			j.reason = StateInterrupted
		}
		j.mu.Unlock()
	}
	// Every job context derives from m.ctx, so one stop cancels all
	// running executors at their next chunk boundary.
	m.stop()

	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("service: drain timed out: %w", ctx.Err())
	}

	// Queued jobs never reached a worker; mark them interrupted so
	// the next process re-enqueues them.
	for {
		select {
		case j := <-m.queue:
			j.mu.Lock()
			if j.state == StateQueued {
				j.state = StateInterrupted
			}
			j.mu.Unlock()
		default:
			goto drained
		}
	}
drained:
	firstErr := m.stores.FlushAll()
	if err := m.persistJobs(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// decodeHex32 decodes a 64-digit hex digest.
func decodeHex32(s string) ([32]byte, error) {
	var d [32]byte
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != len(d) {
		return d, fmt.Errorf("service: bad digest %q", s)
	}
	copy(d[:], raw)
	return d, nil
}
