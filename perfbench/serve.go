package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"bpred/internal/core"
	"bpred/internal/obs"
	"bpred/internal/service"
	"bpred/internal/sim"
)

// clients is the closed loop's client count: each sends its next op
// only after the previous one's result arrives. Two matches the
// two-CPU reference host, so the loop never outnumbers the cores the
// service's two workers run on.
const clients = 2

// pollEvery is how often a client polls a running job's status.
const pollEvery = 5 * time.Millisecond

// serveBench is bpserved traffic: an in-process service.Manager with
// the default Config on a fresh data directory, behind
// httptest.NewServer, driven over loopback HTTP.
type serveBench struct {
	seed    uint64
	workdir string
	pool    []*poolTrace
	mix     []op
}

func (b *serveBench) setup(t *tracer) error {
	b.pool = nil
	pool, err := buildPool(b.seed, t)
	if err != nil {
		return err
	}
	b.pool = pool
	b.mix = buildMix(b.seed, mixLen)
	return nil
}

// opRecord is one finished client op.
type opRecord struct {
	op      op
	digest  string
	jobID   string
	deduped bool
	ms      float64
	status  service.JobStatus
	result  *service.JobResult
}

// serveRun is one measured pass: its server, clients and records.
type serveRun struct {
	b    *serveBench
	t    *tracer
	base string
	hc   *http.Client

	next    atomic.Int64
	uploads []uploadSlot

	mu       sync.Mutex
	out      *outcome
	ops      []*opRecord
	uploadMS []float64
	rejects  int
}

// uploadSlot makes each pool trace upload once; a client needing a
// trace another client is uploading waits for that upload.
type uploadSlot struct {
	once   sync.Once
	digest string
	err    error
}

func (b *serveBench) measure(ctx context.Context, window time.Duration, t *tracer) (*outcome, error) {
	dir, err := os.MkdirTemp(b.workdir, "serve-data-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	cfg := service.Config{DataDir: dir}
	var sched *tracedScheduler
	if t != nil {
		sched = &tracedScheduler{t: t}
		cfg.Scheduler = sched
	}
	m, err := service.NewManager(cfg)
	if err != nil {
		return nil, err
	}
	if sched != nil {
		sched.m = m
	}
	srv := httptest.NewServer(service.NewServer(m))
	r := &serveRun{
		b: b, t: t, base: srv.URL, out: newOutcome(),
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}},
		uploads: make([]uploadSlot, len(b.pool)),
	}

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < window && ctx.Err() == nil {
				r.doOp(ctx, int(r.next.Add(1)-1))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	metrics, scrapeErr := r.get(ctx, "/metrics")
	srv.Close()
	drainCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	drainErr := m.Drain(drainCtx)
	cancel()
	r.hc.CloseIdleConnections()
	if scrapeErr != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", scrapeErr)
	}
	if drainErr != nil {
		return nil, fmt.Errorf("draining the service: %w", drainErr)
	}

	out := r.out
	var jobMS []float64
	for _, rec := range r.ops {
		jobMS = append(jobMS, rec.ms)
	}
	cells := distinctCells(r.ops)
	var cellWork float64
	for _, w := range cells {
		cellWork += w
	}
	out.e2e["mcellbr_per_s"] = cellWork / elapsed / 1e6
	out.e2e["jobs_per_s"] = float64(len(r.ops)) / elapsed
	out.e2e["job_p50_ms"] = median(jobMS)
	out.noteTail("job", jobMS)
	out.noteTail("upload", r.uploadMS)
	jt := tail(jobMS, 95)
	out.layer["bench.job_p95_ms"] = jt.Value
	out.layer["bench.job_samples"] = float64(jt.N)
	out.layer["bench.upload_p50_ms"] = median(r.uploadMS)
	out.layer["bench.upload_samples"] = float64(len(r.uploadMS))

	if err := r.serviceCounts(metrics, len(cells)); err != nil {
		return nil, err
	}
	if t != nil {
		r.serviceSpans()
		if err := r.probeFiles(dir); err != nil {
			return nil, err
		}
	}
	if err := r.verify(); err != nil {
		return nil, err
	}
	return out, nil
}

// doOp runs mix op i end to end and records it.
func (r *serveRun) doOp(ctx context.Context, i int) {
	o := r.b.mix[i%len(r.b.mix)]
	digest, err := r.ensureUploaded(ctx, o.Trace)
	if err != nil {
		r.opFailed("op %d: upload: %v", i, err)
		return
	}
	spec := o.Spec
	spec.Trace = digest
	rec := &opRecord{op: o, digest: digest}

	sp := r.t.begin("client.job", 0)
	start := time.Now()
	var sub struct {
		ID      string        `json:"id"`
		Deduped bool          `json:"deduped"`
		State   service.State `json:"state"`
	}
	body, err := json.Marshal(spec)
	if err != nil {
		r.opFailed("op %d: %v", i, err)
		return
	}
	code, err := r.do(ctx, http.MethodPost, "/v1/jobs", bytes.NewReader(body), &sub)
	if err != nil {
		if code == http.StatusTooManyRequests {
			r.mu.Lock()
			r.rejects++
			r.mu.Unlock()
		}
		r.opFailed("op %d: submit: %v", i, err)
		return
	}
	rec.jobID, rec.deduped = sub.ID, sub.Deduped
	for {
		if _, err := r.do(ctx, http.MethodGet, "/v1/jobs/"+sub.ID, nil, &rec.status); err != nil {
			r.opFailed("op %d: status: %v", i, err)
			return
		}
		if s := rec.status.State; s != service.StateQueued && s != service.StateRunning {
			break
		}
		time.Sleep(pollEvery)
	}
	if rec.status.State != service.StateDone {
		r.opFailed("op %d: job %s ended %s: %s", i, sub.ID, rec.status.State, rec.status.Error)
		return
	}
	res := r.t.begin("client.result", sp.ID())
	rec.result = new(service.JobResult)
	if _, err := r.do(ctx, http.MethodGet, "/v1/jobs/"+sub.ID+"/result", nil, rec.result); err != nil {
		r.opFailed("op %d: result: %v", i, err)
		return
	}
	rec.ms = float64(time.Since(start).Nanoseconds()) / 1e6
	res.end(0, nil)
	sp.end(0, map[string]string{"job": sub.ID, "kind": o.Kind})

	r.mu.Lock()
	r.out.attempted++
	r.ops = append(r.ops, rec)
	r.mu.Unlock()
}

// ensureUploaded returns the trace's digest, uploading it first if no
// client has yet.
func (r *serveRun) ensureUploaded(ctx context.Context, i int) (string, error) {
	slot := &r.uploads[i]
	slot.once.Do(func() {
		pt := r.b.pool[i]
		sp := r.t.begin("client.upload", 0)
		start := time.Now()
		var info service.TraceInfo
		_, slot.err = r.do(ctx, http.MethodPost, "/v1/traces", bytes.NewReader(pt.body), &info)
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		sp.end(float64(pt.branches), nil)
		slot.digest = info.Digest
		if slot.err == nil && info.Branches != uint64(pt.branches) {
			slot.err = fmt.Errorf("stored %d branches, sent %d", info.Branches, pt.branches)
		}
		r.mu.Lock()
		r.out.attempted++
		if slot.err != nil {
			r.out.fail("upload of trace %d: %v", i, slot.err)
		} else {
			r.uploadMS = append(r.uploadMS, ms)
		}
		r.mu.Unlock()
	})
	return slot.digest, slot.err
}

func (r *serveRun) opFailed(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.out.attempted++
	r.out.fail(format, args...)
}

// do sends one request and decodes a 2xx JSON reply into out. Any
// other status is an error carrying the status code.
func (r *serveRun) do(ctx context.Context, method, path string, body io.Reader, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, r.base+path, body)
	if err != nil {
		return 0, err
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
	}
	if out == nil {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(raw, out)
}

func (r *serveRun) get(ctx context.Context, path string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+path, nil)
	if err != nil {
		return "", err
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return string(raw), err
}

// tracedScheduler wraps the default LocalScheduler in the traced run
// only. Each span covers one RunCells call, is split by whether the
// trace is streamed, and is attributed to the job being executed,
// found by the job's own progress counters, which the executor hands
// to the scheduler.
type tracedScheduler struct {
	t *tracer
	// m is set right after NewManager returns, before any job exists.
	m *service.Manager
}

func (s *tracedScheduler) RunCells(ctx context.Context, digest [32]byte, warmup int, configs []core.Config, tr *service.TraceHandle, opt sim.Options) ([]sim.Metrics, error) {
	name := "sim.resident_cells"
	if tr.Streaming() {
		name = "sim.stream_cells"
	}
	sp := s.t.begin(name, 0)
	ms, err := service.LocalScheduler{}.RunCells(ctx, digest, warmup, configs, tr, opt)
	var work float64
	for _, m := range ms {
		work += float64(m.Branches)
	}
	sp.end(work, map[string]string{"job": s.jobOf(opt.Obs), "scheme": schemeKey(configs[0].Scheme)})
	return ms, err
}

func (s *tracedScheduler) jobOf(c *obs.Counters) string {
	for _, j := range s.m.Jobs() {
		if j.Obs == c {
			return j.ID
		}
	}
	return ""
}
