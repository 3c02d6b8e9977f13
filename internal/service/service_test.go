package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bpred/internal/trace"
	"bpred/internal/workload"
)

// genTrace builds a small deterministic workload trace.
func genTrace(t *testing.T, n int, seed uint64) *trace.Trace {
	t.Helper()
	p, ok := workload.ProfileByName("espresso")
	if !ok {
		p = workload.Profiles()[0]
	}
	return workload.Generate(p, seed, n)
}

// encodeBPT1 serializes a trace to its wire form for upload.
func encodeBPT1(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, tr.Name, tr.Instructions, uint64(tr.Len()))
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for _, b := range tr.Branches {
		if err := w.WriteBranch(b); err != nil {
			t.Fatalf("WriteBranch: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// newTestServer builds a manager over a temp dir and serves it.
// Cleanup drains the manager, so every test also exercises shutdown.
func newTestServer(t *testing.T, mutate func(*Config)) (*Manager, *httptest.Server) {
	t.Helper()
	cfg := Config{
		DataDir:     t.TempDir(),
		PublishName: "test-" + t.Name(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Drain(ctx); err != nil {
			t.Errorf("Drain: %v", err)
		}
	})
	ts := httptest.NewServer(NewServer(m))
	t.Cleanup(ts.Close)
	return m, ts
}

// doJSON performs one request and decodes the JSON response into out
// (skipped when out is nil). It returns the status code.
func doJSON(t *testing.T, method, url string, body []byte, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s body: %v", url, err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s response %q: %v", url, raw, err)
		}
	}
	return resp.StatusCode
}

// upload ingests a trace and returns its info.
func upload(t *testing.T, ts *httptest.Server, data []byte) TraceInfo {
	t.Helper()
	var info TraceInfo
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/traces", data, &info); code != http.StatusOK {
		t.Fatalf("upload status = %d", code)
	}
	return info
}

// submit posts a job spec and returns the decoded ack and status code.
func submit(t *testing.T, ts *httptest.Server, spec JobSpec) (submitResponse, int) {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	var ack submitResponse
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatalf("decoding submit ack: %v", err)
		}
	}
	return ack, resp.StatusCode
}

// waitTerminal polls a job until it leaves the live states.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil, &st); code != http.StatusOK {
			t.Fatalf("status for %s = %d", id, code)
		}
		if st.State.terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

// waitState polls until the job reaches the wanted (live) state.
func waitState(t *testing.T, ts *httptest.Server, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil, &st)
		if st.State == want {
			return
		}
		if st.State.terminal() {
			t.Fatalf("job %s reached %s while waiting for %s", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

func TestEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, nil)
	tr := genTrace(t, 20000, 1)
	data := encodeBPT1(t, tr)

	info := upload(t, ts, data)
	if info.Branches != uint64(tr.Len()) || info.Name != tr.Name {
		t.Fatalf("upload info = %+v", info)
	}
	// Idempotent re-upload.
	if again := upload(t, ts, data); again != info {
		t.Fatalf("re-upload info = %+v, want %+v", again, info)
	}
	var listed []TraceInfo
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/traces", nil, &listed); code != 200 || len(listed) != 1 {
		t.Fatalf("trace list = %v (%d)", listed, code)
	}

	spec := JobSpec{Trace: info.Digest, Scheme: "gshare", Tiers: []int{4, 5}, Warmup: 100}
	ack, code := submit(t, ts, spec)
	if code != http.StatusAccepted || ack.Deduped {
		t.Fatalf("submit = %+v (%d)", ack, code)
	}

	// Result of a live (or just-finished) job: 409 until terminal.
	st := waitTerminal(t, ts, ack.ID)
	if st.State != StateDone {
		t.Fatalf("state = %s (%s), want done", st.State, st.Error)
	}
	wantCells := 5 + 6 // gshare tier n has n+1 splits
	if st.CellsTotal != wantCells || st.CellsDone != uint64(wantCells) {
		t.Fatalf("cells = %d/%d, want %d/%d", st.CellsDone, st.CellsTotal, wantCells, wantCells)
	}

	var res JobResult
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+ack.ID+"/result", nil, &res); code != 200 {
		t.Fatalf("result status = %d", code)
	}
	if res.Partial || len(res.Cells) != wantCells || res.State != StateDone {
		t.Fatalf("result = partial=%v cells=%d state=%s", res.Partial, len(res.Cells), res.State)
	}
	for i, c := range res.Cells {
		if c.Branches == 0 || c.MispredictRate < 0 || c.MispredictRate > 1 {
			t.Fatalf("cell %d = %+v", i, c)
		}
		if i > 0 {
			prev := res.Cells[i-1]
			if c.TableBits < prev.TableBits ||
				(c.TableBits == prev.TableBits && c.RowBits <= prev.RowBits) {
				t.Fatalf("cells not in (tier, rows) order at %d: %+v after %+v", i, c, prev)
			}
		}
	}

	// Identical resubmission dedups onto the done job.
	ack2, code2 := submit(t, ts, spec)
	if code2 != http.StatusOK || !ack2.Deduped || ack2.ID != ack.ID {
		t.Fatalf("resubmit = %+v (%d)", ack2, code2)
	}

	var hz healthzResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &hz); code != 200 || hz.Status != "ok" {
		t.Fatalf("healthz = %+v (%d)", hz, code)
	}
	if hz.Traces != 1 || hz.Jobs[StateDone] != 1 {
		t.Fatalf("healthz counts = %+v", hz)
	}
}

func TestUploadRejections(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxTraceBranches = 1000 })

	post := func(data []byte) int {
		resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(data))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// The PR-3 fuzz crasher seed: a header promising records a hostile
	// varint stream never delivers.
	crasher := []byte("BPT1\x05bomb!\x00\x80\x80\x80\x80\x80\x80\x80\x02")
	if code := post(crasher); code != http.StatusBadRequest {
		t.Errorf("crasher seed: status = %d, want 400", code)
	}
	if code := post([]byte("NOPE this is not a trace")); code != http.StatusBadRequest {
		t.Errorf("bad magic: status = %d, want 400", code)
	}
	if code := post(nil); code != http.StatusBadRequest {
		t.Errorf("empty body: status = %d, want 400", code)
	}
	// Truncated but well-formed prefix.
	full := encodeBPT1(t, genTrace(t, 500, 2))
	if code := post(full[:len(full)/2]); code != http.StatusBadRequest {
		t.Errorf("truncated: status = %d, want 400", code)
	}
	// Over the decoded-record cap.
	if code := post(encodeBPT1(t, genTrace(t, 2000, 3))); code != http.StatusRequestEntityTooLarge {
		t.Errorf("record cap: status = %d, want 413", code)
	}
	if got := upload(t, ts, full).Branches; got != 500 {
		t.Fatalf("valid upload after rejections: branches = %d", got)
	}
}

func TestUploadByteCap(t *testing.T) {
	m, _ := newTestServer(t, nil)
	srv := NewServer(m)
	srv.MaxUploadBytes = 64
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream",
		bytes.NewReader(encodeBPT1(t, genTrace(t, 2000, 4))))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

func TestSubmitRejections(t *testing.T) {
	_, ts := newTestServer(t, nil)
	info := upload(t, ts, encodeBPT1(t, genTrace(t, 1000, 5)))

	cases := []struct {
		name string
		spec JobSpec
		want int
	}{
		{"unknown trace", JobSpec{Trace: strings.Repeat("ab", 32), Scheme: "gshare", Tiers: []int{4}}, 404},
		{"bad digest", JobSpec{Trace: "zzzz", Scheme: "gshare"}, 400},
		{"bad scheme", JobSpec{Trace: info.Digest, Scheme: "neural"}, 400},
		{"bad tier", JobSpec{Trace: info.Digest, Scheme: "gshare", Tiers: []int{55}}, 400},
		{"duplicate tier", JobSpec{Trace: info.Digest, Scheme: "gshare", Tiers: []int{4, 4}}, 400},
		{"negative warmup", JobSpec{Trace: info.Digest, Scheme: "gshare", Tiers: []int{4}, Warmup: -1}, 400},
		{"bad bounds", JobSpec{Trace: info.Digest, Scheme: "gshare", MinBits: 9, MaxBits: 5}, 400},
	}
	for _, tc := range cases {
		if _, code := submit(t, ts, tc.spec); code != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, code, tc.want)
		}
	}

	// Unknown JSON fields are rejected, not silently dropped.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"trace":"`+info.Digest+`","scheme":"gshare","warmupp":9}`))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status = %d, want 400", resp.StatusCode)
	}
}

// TestSubmitTAGEHistoryCap checks the TAGE history cap at the API: a
// 640-outcome history is accepted and runs to completion, 641 is a
// 400.
func TestSubmitTAGEHistoryCap(t *testing.T) {
	_, ts := newTestServer(t, nil)
	info := upload(t, ts, encodeBPT1(t, genTrace(t, 3000, 7)))
	spec := func(maxHist int) JobSpec {
		return JobSpec{Trace: info.Digest, Scheme: "tage", Tiers: []int{6},
			TAGE: &TAGESpec{Tables: 8, MinHist: 5, MaxHist: maxHist}}
	}
	ack, code := submit(t, ts, spec(640))
	if code != http.StatusAccepted {
		t.Fatalf("max_hist 640: status = %d, want 202", code)
	}
	if st := waitTerminal(t, ts, ack.ID); st.State != StateDone {
		t.Fatalf("max_hist 640: job ended %s (%s)", st.State, st.Error)
	}
	if _, code := submit(t, ts, spec(641)); code != http.StatusBadRequest {
		t.Errorf("max_hist 641: status = %d, want 400", code)
	}
}

func TestBackpressure(t *testing.T) {
	release := make(chan struct{})
	m, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
	})
	m.hookJobStart = func(ctx context.Context, j *Job) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	info := upload(t, ts, encodeBPT1(t, genTrace(t, 1000, 6)))

	specN := func(n int) JobSpec {
		return JobSpec{Trace: info.Digest, Scheme: "gshare", Tiers: []int{n}}
	}
	ackA, code := submit(t, ts, specN(4))
	if code != http.StatusAccepted {
		t.Fatalf("submit A = %d", code)
	}
	waitState(t, ts, ackA.ID, StateRunning) // A holds the one worker
	if _, code := submit(t, ts, specN(5)); code != http.StatusAccepted {
		t.Fatalf("submit B = %d", code) // B fills the one queue slot
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
		strings.NewReader(fmt.Sprintf(`{"trace":%q,"scheme":"gshare","tiers":[6]}`, info.Digest)))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("submit C: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit C = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After")
	}

	close(release)
	if st := waitTerminal(t, ts, ackA.ID); st.State != StateDone {
		t.Fatalf("A finished %s", st.State)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	m, ts := newTestServer(t, func(c *Config) { c.Workers = 1 })
	m.hookJobStart = func(ctx context.Context, j *Job) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	defer close(release)
	info := upload(t, ts, encodeBPT1(t, genTrace(t, 1000, 7)))

	ackA, _ := submit(t, ts, JobSpec{Trace: info.Digest, Scheme: "gshare", Tiers: []int{4}})
	waitState(t, ts, ackA.ID, StateRunning)
	ackB, _ := submit(t, ts, JobSpec{Trace: info.Digest, Scheme: "gshare", Tiers: []int{5}})

	var st JobStatus
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs/"+ackB.ID+"/cancel", nil, &st); code != 200 {
		t.Fatalf("cancel = %d", code)
	}
	if st.State != StateCanceled {
		t.Fatalf("state after cancel = %s", st.State)
	}
	// A queued-then-canceled job still serves the (empty) partial
	// result contract.
	var res JobResult
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+ackB.ID+"/result", nil, &res); code != 200 {
		t.Fatalf("result = %d", code)
	}
	if !res.Partial || len(res.Cells) != 0 || res.State != StateCanceled {
		t.Fatalf("result = %+v", res)
	}
}

func TestCancelRunningJobKeepsCompletedCells(t *testing.T) {
	reached := make(chan struct{})
	m, ts := newTestServer(t, func(c *Config) { c.Workers = 1 })
	// Job ids are deterministic; only the first submission is held
	// mid-flight, so the later retry job runs unimpeded.
	m.hookTierDone = func(ctx context.Context, j *Job, tier int) {
		if j.ID == "job-000001" && tier == 4 {
			close(reached)
			<-ctx.Done() // hold the job mid-flight until the cancel lands
		}
	}
	info := upload(t, ts, encodeBPT1(t, genTrace(t, 5000, 8)))

	ack, code := submit(t, ts, JobSpec{Trace: info.Digest, Scheme: "gshare", Tiers: []int{4, 5, 6}})
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	select {
	case <-reached:
	case <-time.After(30 * time.Second):
		t.Fatal("job never completed tier 4")
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs/"+ack.ID+"/cancel", nil, nil); code != 200 {
		t.Fatalf("cancel = %d", code)
	}
	st := waitTerminal(t, ts, ack.ID)
	if st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}

	var res JobResult
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+ack.ID+"/result", nil, &res); code != 200 {
		t.Fatalf("result = %d", code)
	}
	if !res.Partial {
		t.Fatalf("canceled mid-job but result not partial (%d cells)", len(res.Cells))
	}
	// Tier 4 finished before the hook blocked, so its 5 cells must
	// survive; tier 6 never started.
	if len(res.Cells) < 5 || len(res.Cells) >= res.CellsTotal {
		t.Fatalf("partial cells = %d of %d", len(res.Cells), res.CellsTotal)
	}
	for _, c := range res.Cells {
		if c.TableBits == 6 {
			t.Fatalf("tier 6 cell in partial result: %+v", c)
		}
	}

	// The completed cells are in the checkpoint cache: resubmitting
	// (the canceled key does not absorb the new job) completes using
	// cached results for the surviving cells.
	ack2, code := submit(t, ts, JobSpec{Trace: info.Digest, Scheme: "gshare", Tiers: []int{4, 5, 6}})
	if code != http.StatusAccepted || ack2.ID == ack.ID {
		t.Fatalf("resubmit = %+v (%d)", ack2, code)
	}
	st2 := waitTerminal(t, ts, ack2.ID)
	if st2.State != StateDone {
		t.Fatalf("retry state = %s", st2.State)
	}
	if st2.Progress.ConfigsCached < uint64(len(res.Cells)) {
		t.Fatalf("retry cached %d cells, want >= %d", st2.Progress.ConfigsCached, len(res.Cells))
	}
}

func TestResultErrors(t *testing.T) {
	release := make(chan struct{})
	m, ts := newTestServer(t, func(c *Config) { c.Workers = 1 })
	m.hookJobStart = func(ctx context.Context, j *Job) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	defer close(release)
	info := upload(t, ts, encodeBPT1(t, genTrace(t, 1000, 9)))

	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/job-999999/result", nil, nil); code != 404 {
		t.Fatalf("unknown job result = %d", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/nope", nil, nil); code != 404 {
		t.Fatalf("unknown job status = %d", code)
	}
	ack, _ := submit(t, ts, JobSpec{Trace: info.Digest, Scheme: "gshare", Tiers: []int{4}})
	waitState(t, ts, ack.ID, StateRunning)
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+ack.ID+"/result", nil, nil); code != http.StatusConflict {
		t.Fatalf("live job result = %d, want 409", code)
	}
}

func TestProgressStream(t *testing.T) {
	_, ts := newTestServer(t, nil)
	info := upload(t, ts, encodeBPT1(t, genTrace(t, 5000, 10)))
	ack, _ := submit(t, ts, JobSpec{Trace: info.Digest, Scheme: "gshare", Tiers: []int{4, 5}})

	resp, err := http.Get(ts.URL + "/v1/jobs/" + ack.ID + "/progress")
	if err != nil {
		t.Fatalf("progress: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body) // stream ends when the job does
	if err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	events := 0
	var last JobStatus
	for _, line := range strings.Split(string(raw), "\n") {
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			events++
			if err := json.Unmarshal([]byte(data), &last); err != nil {
				t.Fatalf("bad event %q: %v", data, err)
			}
		}
	}
	if events == 0 {
		t.Fatal("no progress events")
	}
	if last.State != StateDone {
		t.Fatalf("final event state = %s", last.State)
	}
}
