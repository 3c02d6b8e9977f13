package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"bpred/internal/checkpoint"
	"bpred/internal/obs"
	"bpred/internal/sweep"
	"bpred/internal/trace"
)

// ingestInto uploads a generated trace straight into a store and
// returns its info.
func ingestInto(t *testing.T, st *TraceStore, n int, seed uint64) TraceInfo {
	t.Helper()
	info, err := st.Ingest(bytes.NewReader(encodeBPT1(t, genTrace(t, n, seed))))
	if err != nil {
		t.Fatalf("Ingest(seed %d): %v", seed, err)
	}
	return info
}

// TestTraceCacheLRUBoundAndPinning pins the decoded-cache contract at
// the store level: residency never exceeds the cap through arbitrary
// load churn, pinned handles are immune to eviction (and may push the
// cache over cap), and Release restores the bound.
func TestTraceCacheLRUBoundAndPinning(t *testing.T) {
	const cap = 2
	st, err := NewTraceStore(t.TempDir(), 1<<20, cap, 1<<20)
	if err != nil {
		t.Fatalf("NewTraceStore: %v", err)
	}

	digests := make([]string, 6)
	for i := range digests {
		digests[i] = ingestInto(t, st, 300, uint64(40+i)).Digest
	}
	if got := st.Resident(); got != 0 {
		t.Fatalf("ingest decoded traces: resident = %d, want 0", got)
	}

	ctx := context.Background()
	// Unpinned churn: load everything twice, in both directions.
	for _, d := range digests {
		if _, err := st.Trace(ctx, d); err != nil {
			t.Fatalf("Trace(%s): %v", d, err)
		}
		if got := st.Resident(); got > cap {
			t.Fatalf("resident = %d after loading %s, cap is %d", got, d, cap)
		}
	}
	for i := len(digests) - 1; i >= 0; i-- {
		if _, err := st.Trace(ctx, digests[i]); err != nil {
			t.Fatalf("Trace: %v", err)
		}
		if got := st.Resident(); got > cap {
			t.Fatalf("resident = %d, cap is %d", got, cap)
		}
	}

	// A pinned handle survives any amount of churn.
	h0, err := st.Acquire(digests[0])
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if h0.Streaming() {
		t.Fatalf("small trace came back streaming")
	}
	for round := 0; round < 3; round++ {
		for _, d := range digests[1:] {
			if _, err := st.Trace(ctx, d); err != nil {
				t.Fatalf("churn Trace: %v", err)
			}
		}
		if st.pins(digests[0]) != 1 {
			t.Fatalf("round %d: pinned trace evicted (pins lost)", round)
		}
		if got := st.Resident(); got > cap {
			t.Fatalf("round %d: resident = %d, cap is %d", round, got, cap)
		}
	}

	// Pins may exceed the cap; eviction stalls rather than dropping a
	// pinned entry, and Release re-establishes the bound.
	h1, err := st.Acquire(digests[1])
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	h2, err := st.Acquire(digests[2])
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if got := st.Resident(); got != 3 {
		t.Fatalf("resident with 3 pins over cap %d = %d, want 3", cap, got)
	}
	h0.Release()
	h1.Release()
	h2.Release()
	if got := st.Resident(); got > cap {
		t.Fatalf("resident after releases = %d, cap is %d", got, cap)
	}
	h0.Release() // idempotent
	if st.pins(digests[1]) != 0 || st.pins(digests[2]) != 0 {
		t.Fatalf("pins survived release: %d %d", st.pins(digests[1]), st.pins(digests[2]))
	}

	// Streaming handles never touch the cache and replay the exact
	// records.
	st2, err := NewTraceStore(t.TempDir(), 1<<20, cap, 100)
	if err != nil {
		t.Fatalf("NewTraceStore: %v", err)
	}
	want := genTrace(t, 300, 77)
	info := ingestInto(t, st2, 300, 77)
	hs, err := st2.Acquire(info.Digest)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if !hs.Streaming() {
		t.Fatalf("trace over the stream cutoff not streaming")
	}
	if got := st2.Resident(); got != 0 {
		t.Fatalf("streaming acquire made a trace resident: %d", got)
	}
	open, err := hs.Open()
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	src, ok := open.(*trace.FileReader)
	if !ok {
		t.Fatalf("streaming handle opened a %T, want a block reader", open)
	}
	defer src.Close()
	var got []trace.Branch
	buf := make([]trace.Branch, 64)
	for {
		batch := src.NextBatch(buf)
		if len(batch) == 0 {
			break
		}
		got = append(got, batch...)
	}
	if err := src.Err(); err != nil {
		t.Fatalf("stream Err: %v", err)
	}
	if !reflect.DeepEqual(got, want.Branches) {
		t.Fatalf("streamed records differ from the uploaded trace (%d vs %d)", len(got), len(want.Branches))
	}
	hs.Release() // no-op for streaming handles
}

// TestJobPinsTraceAgainstCacheChurn is the end-to-end eviction
// regression: a running job's trace stays pinned in a cap-1 cache
// while uploads and loads churn every other entry out.
func TestJobPinsTraceAgainstCacheChurn(t *testing.T) {
	release := make(chan struct{})
	reached := make(chan struct{})
	m, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.TraceCacheCap = 1
	})
	m.hookTierDone = func(ctx context.Context, j *Job, tier int) {
		if j.ID == "job-000001" && tier == 4 {
			close(reached)
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
	}
	defer close(release)

	info := upload(t, ts, encodeBPT1(t, genTrace(t, 2000, 60)))
	ack, code := submit(t, ts, JobSpec{Trace: info.Digest, Scheme: "gshare", Tiers: []int{4, 5}})
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	select {
	case <-reached:
	case <-time.After(30 * time.Second):
		t.Fatal("job never reached tier 4")
	}

	// The job is mid-execution: its trace must be pinned now.
	if p := m.Traces().pins(info.Digest); p != 1 {
		t.Fatalf("running job's trace pins = %d, want 1", p)
	}
	// Churn the cap-1 cache hard with other traces.
	for i := 0; i < 4; i++ {
		other := ingestInto(t, m.Traces(), 500, uint64(70+i))
		if _, err := m.Traces().Trace(context.Background(), other.Digest); err != nil {
			t.Fatalf("churn load: %v", err)
		}
		if p := m.Traces().pins(info.Digest); p != 1 {
			t.Fatalf("churn %d evicted the pinned in-flight trace", i)
		}
	}

	release <- struct{}{}
	st := waitTerminal(t, ts, ack.ID)
	if st.State != StateDone {
		t.Fatalf("job = %s", st.State)
	}
	if p := m.Traces().pins(info.Digest); p != 0 {
		t.Fatalf("pins after job completion = %d, want 0", p)
	}
	if got := m.Traces().Resident(); got > 1 {
		t.Fatalf("resident = %d, cap is 1", got)
	}
}

// rawBPT1 hand-assembles a BPT1 stream with an arbitrary declared
// record count, so tests can make the header lie.
func rawBPT1(name string, instrs, declared uint64, branches []trace.Branch) []byte {
	var buf bytes.Buffer
	buf.WriteString("BPT1")
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf.Write(tmp[:n])
	}
	put(uint64(len(name)))
	buf.WriteString(name)
	put(instrs)
	put(declared)
	var prev uint64
	for _, b := range branches {
		flags := byte(0)
		if b.Taken {
			flags = 1
		}
		buf.WriteByte(flags)
		n := binary.PutVarint(tmp[:], int64(b.PC-prev))
		buf.Write(tmp[:n])
		n = binary.PutVarint(tmp[:], int64(b.Target-b.PC))
		buf.Write(tmp[:n])
		prev = b.PC
	}
	return buf.Bytes()
}

// TestIngestHeaderCapAndLyingHeader pins the two halves of the size
// cap: a header promising more records than the cap is rejected from
// the header alone (before any record decodes), and a header lying
// small about a truncated body is caught by the actual record count.
func TestIngestHeaderCapAndLyingHeader(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxTraceBranches = 1000 })

	post := func(data []byte) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(data))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		defer resp.Body.Close()
		var e apiError
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if buf.Len() > 0 {
			_ = json.Unmarshal(buf.Bytes(), &e)
		}
		return resp.StatusCode, e.Error
	}

	// Header-only upload declaring 2^40 records: must die on the
	// header check — if ingest tried to decode records first it would
	// report a truncation, not the cap.
	code, msg := post(rawBPT1("bomb", 0, 1<<40, nil))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized header: status = %d, want 413 (%s)", code, msg)
	}
	if !strings.Contains(msg, "header promises") {
		t.Fatalf("oversized header rejected by the wrong check: %q", msg)
	}

	// A header under the cap whose body delivers fewer records than
	// promised: the stream ends early and the upload is refused — by
	// the decoder's own bounds check or the store's actual-count belt,
	// whichever trips first.
	few := genTrace(t, 10, 80).Branches
	code, msg = post(rawBPT1("liar", 0, 500, few))
	if code != http.StatusBadRequest {
		t.Fatalf("lying header: status = %d, want 400 (%s)", code, msg)
	}
	if !strings.Contains(msg, "truncated") && !strings.Contains(msg, "EOF") {
		t.Fatalf("lying header rejected by the wrong check: %q", msg)
	}
	var listed []TraceInfo
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/traces", nil, &listed); code != http.StatusOK || len(listed) != 0 {
		t.Fatalf("rejected upload left a stored trace: %v (%d)", listed, code)
	}

	// A header lying *large* but under the cap with a hostile infinite
	// body cannot smuggle records past the count: the reader stops at
	// the declared count, and the digest/transcode only ever sees it.
	honest := genTrace(t, 20, 81)
	data := rawBPT1(honest.Name, honest.Instructions, 20, honest.Branches)
	if code, msg := post(append(data, bytes.Repeat([]byte{0}, 4096)...)); code != http.StatusOK {
		t.Fatalf("trailing garbage after declared records: status = %d (%s)", code, msg)
	}
}

// TestStreamingByteIdentity is the PR's acceptance gate: a sweep
// executed from streamed BPT2 blocks (trace never resident, cache
// budget smaller than the trace set) must be indistinguishable — cell
// for cell, checkpoint byte for byte, CSV byte for byte — from the
// in-memory decoded path, including across an interrupt + resume.
func TestStreamingByteIdentity(t *testing.T) {
	tr := genTrace(t, 20000, 90)
	data := encodeBPT1(t, tr)
	digest := tr.Digest()
	const warmup = 200
	spec := JobSpec{Scheme: "gshare", Tiers: []int{4, 5, 6}, Warmup: warmup, Metered: true}

	waitDone := func(m *Manager, id string) *JobResult {
		t.Helper()
		deadline := time.Now().Add(120 * time.Second)
		for {
			j, err := m.Job(id)
			if err != nil {
				t.Fatalf("Job(%s): %v", id, err)
			}
			if j.State().terminal() {
				if j.State() != StateDone {
					t.Fatalf("job %s = %s", id, j.State())
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", id, j.State())
			}
			time.Sleep(5 * time.Millisecond)
		}
		res, err := m.Result(id)
		if err != nil {
			t.Fatalf("Result(%s): %v", id, err)
		}
		return res
	}
	drain := func(m *Manager) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Drain(ctx); err != nil {
			t.Fatalf("Drain: %v", err)
		}
	}
	runOn := func(m *Manager) *JobResult {
		t.Helper()
		info, err := m.Traces().Ingest(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		s := spec
		s.Trace = info.Digest
		j, _, err := m.Submit(s)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		return waitDone(m, j.ID)
	}

	// Reference: the fully decoded in-memory path.
	dirA := t.TempDir()
	mA, err := NewManager(Config{DataDir: dirA, Workers: 2, PublishName: "test-ident-a"})
	if err != nil {
		t.Fatalf("NewManager A: %v", err)
	}
	resA := runOn(mA)
	drain(mA)
	bpc1A, err := os.ReadFile(checkpoint.PathFor(dirA+"/checkpoints", digest, warmup))
	if err != nil {
		t.Fatalf("reading A checkpoint: %v", err)
	}

	// Streaming path: every trace streams (cutoff 1 record), and the
	// decoded cache could not hold the trace anyway.
	dirB := t.TempDir()
	mB, err := NewManager(Config{
		DataDir: dirB, Workers: 2, PublishName: "test-ident-b",
		StreamBranches: 1, TraceCacheCap: 1,
	})
	if err != nil {
		t.Fatalf("NewManager B: %v", err)
	}
	resB := runOn(mB)
	if got := mB.Traces().Resident(); got != 0 {
		t.Fatalf("streaming sweep made traces resident: %d", got)
	}
	drain(mB)
	if !reflect.DeepEqual(resA.Cells, resB.Cells) {
		t.Fatalf("streamed cells differ from in-memory cells:\nA: %+v\nB: %+v", resA.Cells, resB.Cells)
	}
	bpc1B, err := os.ReadFile(checkpoint.PathFor(dirB+"/checkpoints", digest, warmup))
	if err != nil {
		t.Fatalf("reading B checkpoint: %v", err)
	}
	if !bytes.Equal(bpc1A, bpc1B) {
		t.Fatalf("streamed BPC1 (%d bytes) differs from in-memory BPC1 (%d bytes)", len(bpc1B), len(bpc1A))
	}

	// Interrupt + resume on the streaming path: drain mid-job, restart
	// over the same directory, and demand the same bytes again.
	dirC := t.TempDir()
	reached := make(chan struct{})
	mC, err := NewManager(Config{
		DataDir: dirC, Workers: 1, PublishName: "test-ident-c",
		StreamBranches: 1, TraceCacheCap: 1,
	})
	if err != nil {
		t.Fatalf("NewManager C: %v", err)
	}
	mC.hookTierDone = func(ctx context.Context, j *Job, tier int) {
		if tier == 4 {
			close(reached)
			<-ctx.Done()
		}
	}
	infoC, err := mC.Traces().Ingest(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Ingest C: %v", err)
	}
	sC := spec
	sC.Trace = infoC.Digest
	jC, _, err := mC.Submit(sC)
	if err != nil {
		t.Fatalf("Submit C: %v", err)
	}
	select {
	case <-reached:
	case <-time.After(30 * time.Second):
		t.Fatal("streaming job never finished tier 4")
	}
	drain(mC)
	if st := jC.State(); st != StateInterrupted {
		t.Fatalf("state after drain = %s, want interrupted", st)
	}

	mC2, err := NewManager(Config{
		DataDir: dirC, Workers: 1, PublishName: "test-ident-c2",
		StreamBranches: 1, TraceCacheCap: 1,
	})
	if err != nil {
		t.Fatalf("restart C: %v", err)
	}
	resC := waitDone(mC2, jC.ID)
	if got := mC2.Traces().Resident(); got != 0 {
		t.Fatalf("resumed streaming sweep made traces resident: %d", got)
	}
	drain(mC2)
	if !reflect.DeepEqual(resA.Cells, resC.Cells) {
		t.Fatalf("resumed streamed cells differ from in-memory cells")
	}
	bpc1C, err := os.ReadFile(checkpoint.PathFor(dirC+"/checkpoints", digest, warmup))
	if err != nil {
		t.Fatalf("reading C checkpoint: %v", err)
	}
	if !bytes.Equal(bpc1A, bpc1C) {
		t.Fatalf("interrupt+resume BPC1 differs from in-memory BPC1")
	}

	// Surface CSV: the library's in-memory sweep is the reference; a
	// sweep served purely from the streaming path's checkpoint file
	// must render the identical CSV.
	vspec := spec
	vspec.Trace = resA.Trace
	_, opts, configs, err := vspec.validate()
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	ref, err := sweep.RunCtx(context.Background(), opts, tr)
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	var refCSV bytes.Buffer
	if err := ref.WriteCSV(&refCSV); err != nil {
		t.Fatalf("reference WriteCSV: %v", err)
	}

	csvDir := t.TempDir()
	if err := os.WriteFile(checkpoint.PathFor(csvDir, digest, warmup), bpc1B, 0o644); err != nil {
		t.Fatal(err)
	}
	var ctr obs.Counters
	cachedOpts := opts
	cachedOpts.CheckpointDir = csvDir
	cachedOpts.Sim.Obs = &ctr
	cached, err := sweep.RunCtx(context.Background(), cachedOpts, tr)
	if err != nil {
		t.Fatalf("cache-served sweep: %v", err)
	}
	if got := ctr.Snapshot().ConfigsCached; got != uint64(len(configs)) {
		t.Fatalf("cache-served sweep simulated cells: cached %d of %d", got, len(configs))
	}
	var gotCSV bytes.Buffer
	if err := cached.WriteCSV(&gotCSV); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if !bytes.Equal(refCSV.Bytes(), gotCSV.Bytes()) {
		t.Fatalf("surface CSV from streamed checkpoints differs from in-memory CSV:\nwant:\n%s\ngot:\n%s", refCSV.String(), gotCSV.String())
	}
}

// TestTraceByteQuota exercises per-tenant byte accounting in the
// trace store: sizes recorded at ingest, quota refusals on both the
// new-content and adopt-existing paths, idempotent re-uploads, and
// backfill of pre-accounting index entries at load.
func TestTraceByteQuota(t *testing.T) {
	dir := t.TempDir()
	st, err := NewTraceStore(dir, 1<<20, 0, 0)
	if err != nil {
		t.Fatalf("NewTraceStore: %v", err)
	}
	ctx := context.Background()
	data1 := encodeBPT1(t, genTrace(t, 500, 31))
	data2 := encodeBPT1(t, genTrace(t, 500, 32))

	info1, err := st.IngestAs(ctx, bytes.NewReader(data1), "carol", TraceQuota{})
	if err != nil {
		t.Fatalf("first ingest: %v", err)
	}
	if info1.Bytes == 0 {
		t.Fatalf("ingest recorded no byte size: %+v", info1)
	}

	// An exact-fit quota admits content already owned (idempotent) but
	// nothing more.
	quota := TraceQuota{MaxBytes: info1.Bytes}
	if _, err := st.IngestAs(ctx, bytes.NewReader(data1), "carol", quota); err != nil {
		t.Fatalf("idempotent re-upload under exact-fit quota: %v", err)
	}
	if _, err := st.IngestAs(ctx, bytes.NewReader(data2), "carol", quota); !errors.Is(err, ErrTraceQuota) {
		t.Fatalf("second distinct upload = %v, want ErrTraceQuota", err)
	}

	// Other tenants are unaffected, and adopting their content still
	// charges this tenant's bytes.
	info2, err := st.IngestAs(ctx, bytes.NewReader(data2), "dave", TraceQuota{})
	if err != nil {
		t.Fatalf("dave ingest: %v", err)
	}
	if info2.Bytes == 0 {
		t.Fatalf("dave's ingest recorded no byte size: %+v", info2)
	}
	if _, err := st.IngestAs(ctx, bytes.NewReader(data2), "carol", quota); !errors.Is(err, ErrTraceQuota) {
		t.Fatalf("adopting existing content over quota = %v, want ErrTraceQuota", err)
	}

	// Strip the persisted sizes — an index written before byte
	// accounting — and reload: sizes come back from the backing files
	// and the quota still binds.
	idx := filepath.Join(dir, "index.json")
	raw, err := os.ReadFile(idx)
	if err != nil {
		t.Fatalf("reading index: %v", err)
	}
	var entries []map[string]any
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatalf("parsing index: %v", err)
	}
	for _, e := range entries {
		delete(e, "bytes")
	}
	stripped, err := json.Marshal(entries)
	if err != nil {
		t.Fatalf("re-encoding index: %v", err)
	}
	if err := os.WriteFile(idx, stripped, 0o644); err != nil {
		t.Fatalf("writing index: %v", err)
	}
	st2, err := NewTraceStore(dir, 1<<20, 0, 0)
	if err != nil {
		t.Fatalf("reopening store: %v", err)
	}
	got, err := st2.InfoFor(info1.Digest, "carol")
	if err != nil {
		t.Fatalf("InfoFor after reload: %v", err)
	}
	if got.Bytes != info1.Bytes {
		t.Fatalf("reloaded Bytes = %d, want %d (backfilled from the file)", got.Bytes, info1.Bytes)
	}
	if _, err := st2.IngestAs(ctx, bytes.NewReader(data2), "carol", quota); !errors.Is(err, ErrTraceQuota) {
		t.Fatalf("post-reload over-quota upload = %v, want ErrTraceQuota", err)
	}
}

// TestTraceByteQuotaHTTP pins the API contract for byte quotas: an
// over-quota upload is a 429 carrying a Retry-After hint, and an
// admitted upload reports its stored size.
func TestTraceByteQuotaHTTP(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Tenants = []Tenant{
			{Name: "carol", Key: "carol-key", MaxTraceBytes: 1},
			{Name: "dave", Key: "dave-key"},
		}
	})
	data := encodeBPT1(t, genTrace(t, 400, 33))
	resp := authReq(t, http.MethodPost, ts.URL+"/v1/traces", "carol-key", data)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota upload: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("trace-quota 429 without Retry-After")
	}
	var info TraceInfo
	if code := authJSON(t, http.MethodPost, ts.URL+"/v1/traces", "dave-key", data, &info); code != http.StatusOK || info.Bytes == 0 {
		t.Fatalf("unbounded upload = %+v (%d), want 200 with a byte size", info, code)
	}
}

// authReq performs one request with an optional bearer key and returns
// the response (caller closes the body).
func authReq(t *testing.T, method, url, key string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	return resp
}

// authJSON is authReq plus JSON decoding; returns the status code.
func authJSON(t *testing.T, method, url, key string, body []byte, out any) int {
	t.Helper()
	resp := authReq(t, method, url, key, body)
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestTenantAuthAndQuotas pins the multi-tenant contract: keyed
// access, per-tenant visibility (foreign resources 404), per-tenant
// upload and live-job quotas, and tenant-scoped job dedup.
func TestTenantAuthAndQuotas(t *testing.T) {
	release := make(chan struct{})
	m, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.Tenants = []Tenant{
			{Name: "alice", Key: "alice-key", MaxTraces: 2, MaxQueuedJobs: 1},
			{Name: "bob", Key: "bob-key"},
		}
	})
	m.hookJobStart = func(ctx context.Context, j *Job) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	defer close(release)

	// No key and a wrong key are uniform 401s with a challenge; probes
	// stay open.
	resp := authReq(t, http.MethodGet, ts.URL+"/v1/traces", "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no key: status = %d, want 401", resp.StatusCode)
	}
	if resp.Header.Get("WWW-Authenticate") == "" {
		t.Fatalf("401 without WWW-Authenticate challenge")
	}
	if code := authJSON(t, http.MethodGet, ts.URL+"/v1/traces", "wrong", nil, nil); code != http.StatusUnauthorized {
		t.Fatalf("wrong key: status = %d, want 401", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz behind auth: %d", code)
	}

	// Alice uploads; Bob cannot see the trace until he uploads the
	// same content himself (ownership via dedup).
	data1 := encodeBPT1(t, genTrace(t, 1000, 95))
	var info1 TraceInfo
	if code := authJSON(t, http.MethodPost, ts.URL+"/v1/traces", "alice-key", data1, &info1); code != http.StatusOK {
		t.Fatalf("alice upload: %d", code)
	}
	if code := authJSON(t, http.MethodGet, ts.URL+"/v1/traces/"+info1.Digest, "bob-key", nil, nil); code != http.StatusNotFound {
		t.Fatalf("bob sees alice's trace: %d, want 404", code)
	}
	var bobList []TraceInfo
	if code := authJSON(t, http.MethodGet, ts.URL+"/v1/traces", "bob-key", nil, &bobList); code != http.StatusOK || len(bobList) != 0 {
		t.Fatalf("bob's list = %v (%d), want empty", bobList, code)
	}
	if code := authJSON(t, http.MethodPost, ts.URL+"/v1/traces", "bob-key", data1, nil); code != http.StatusOK {
		t.Fatalf("bob dedup upload: %d", code)
	}
	if code := authJSON(t, http.MethodGet, ts.URL+"/v1/traces/"+info1.Digest, "bob-key", nil, nil); code != http.StatusOK {
		t.Fatalf("bob's owned trace: %d", code)
	}

	// Alice's trace quota: cap 2, the dedup re-upload of content she
	// owns stays idempotent, a third distinct trace is refused.
	data2 := encodeBPT1(t, genTrace(t, 1000, 96))
	if code := authJSON(t, http.MethodPost, ts.URL+"/v1/traces", "alice-key", data2, nil); code != http.StatusOK {
		t.Fatalf("alice second upload: %d", code)
	}
	if code := authJSON(t, http.MethodPost, ts.URL+"/v1/traces", "alice-key", data1, nil); code != http.StatusOK {
		t.Fatalf("alice idempotent re-upload: %d", code)
	}
	data3 := encodeBPT1(t, genTrace(t, 1000, 97))
	if code := authJSON(t, http.MethodPost, ts.URL+"/v1/traces", "alice-key", data3, nil); code != http.StatusTooManyRequests {
		t.Fatalf("alice over trace quota: %d, want 429", code)
	}

	// Live-job quota: with one job held running, a second distinct
	// submission is refused with Retry-After.
	submitAs := func(key string, spec JobSpec) (submitResponse, *http.Response) {
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		resp := authReq(t, http.MethodPost, ts.URL+"/v1/jobs", key, raw)
		var ack submitResponse
		if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
				t.Fatalf("decode ack: %v", err)
			}
		}
		resp.Body.Close()
		return ack, resp
	}
	ackA, resp1 := submitAs("alice-key", JobSpec{Trace: info1.Digest, Scheme: "gshare", Tiers: []int{4}})
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("alice submit: %d", resp1.StatusCode)
	}
	_, resp2 := submitAs("alice-key", JobSpec{Trace: info1.Digest, Scheme: "gshare", Tiers: []int{5}})
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice over job quota: %d, want 429", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Fatalf("job-quota 429 without Retry-After")
	}

	// Bob's identical spec on the shared trace is a separate job —
	// dedup is tenant-scoped, so tenants cannot infer each other's
	// submissions.
	ackB, resp3 := submitAs("bob-key", JobSpec{Trace: info1.Digest, Scheme: "gshare", Tiers: []int{4}})
	if resp3.StatusCode != http.StatusAccepted || ackB.Deduped || ackB.ID == ackA.ID {
		t.Fatalf("bob's submit = %+v (%d), want fresh job", ackB, resp3.StatusCode)
	}

	// Cross-tenant job access is indistinguishable from a missing job.
	if code := authJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+ackA.ID, "bob-key", nil, nil); code != http.StatusNotFound {
		t.Fatalf("bob reads alice's job: %d, want 404", code)
	}
	if code := authJSON(t, http.MethodPost, ts.URL+"/v1/jobs/"+ackA.ID+"/cancel", "bob-key", nil, nil); code != http.StatusNotFound {
		t.Fatalf("bob cancels alice's job: %d, want 404", code)
	}
	if code := authJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+ackA.ID, "alice-key", nil, nil); code != http.StatusOK {
		t.Fatalf("alice reads her job: %d", code)
	}
	var aliceJobs []JobStatus
	if code := authJSON(t, http.MethodGet, ts.URL+"/v1/jobs", "alice-key", nil, &aliceJobs); code != http.StatusOK || len(aliceJobs) != 1 {
		t.Fatalf("alice's job list = %d entries (%d), want 1", len(aliceJobs), code)
	}

	release <- struct{}{}
	release <- struct{}{}
	for _, id := range []string{ackA.ID, ackB.ID} {
		deadline := time.Now().Add(60 * time.Second)
		for {
			j, err := m.Job(id)
			if err != nil {
				t.Fatalf("Job(%s): %v", id, err)
			}
			if j.State().terminal() {
				if j.State() != StateDone {
					t.Fatalf("job %s = %s", id, j.State())
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck", id)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestSoakUploadSweepEvict drives sustained concurrent uploads,
// sweeps, cancels, and cache churn over a bounded decoded cache with
// a mixed resident/streaming trace population, then drains mid-flight
// and restarts over the same directory. The default run is a quick
// smoke; BPRED_SOAK=1 (the `make soak` CI job, under -race) extends
// the churn window.
func TestSoakUploadSweepEvict(t *testing.T) {
	churnFor := 400 * time.Millisecond
	if os.Getenv("BPRED_SOAK") != "" {
		churnFor = 8 * time.Second
	} else if testing.Short() {
		t.Skip("soak smoke skipped in -short")
	}

	dir := t.TempDir()
	const cacheCap = 2
	mk := func(name string) *Manager {
		m, err := NewManager(Config{
			DataDir: dir, Workers: 3, QueueDepth: 64, PublishName: name,
			TraceCacheCap: cacheCap, StreamBranches: 1500,
		})
		if err != nil {
			t.Fatalf("NewManager(%s): %v", name, err)
		}
		return m
	}
	m := mk("test-soak-1")

	// Half the population decodes (≤1500 records), half streams.
	infos := make([]TraceInfo, 6)
	for i := range infos {
		n := 1000
		if i%2 == 1 {
			n = 2500
		}
		infos[i] = ingestInto(t, m.Traces(), n, uint64(110+i))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				info := infos[(g+i)%len(infos)]
				// Vary tier and warmup so specs alias across goroutines
				// (dedup races) without collapsing to one cell set.
				_, _, err := m.Submit(JobSpec{
					Trace:  info.Digest,
					Scheme: "gshare",
					Tiers:  []int{4 + (i % 3)},
					Warmup: 50 * (1 + g%2),
				})
				if err != nil && err != ErrQueueFull && err != ErrDraining {
					t.Errorf("Submit: %v", err)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(g)
	}
	wg.Add(1)
	go func() { // decoded-cache churn
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := m.Traces().Trace(context.Background(), infos[i%len(infos)].Digest); err != nil {
				t.Errorf("churn Trace: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() { // occasional cancels
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, j := range m.Jobs() {
				if !j.State().terminal() {
					m.Cancel(j.ID) //bplint:ignore codecerr racing a finishing job; a late cancel is a no-op
					break
				}
			}
			time.Sleep(15 * time.Millisecond)
		}
	}()

	time.Sleep(churnFor)
	close(stop)
	wg.Wait()

	// Drain mid-flight (queued and running jobs get interrupted), then
	// restart and let every survivor run to a terminal state.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	m2 := mk("test-soak-2")
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := m2.Drain(ctx); err != nil {
			t.Errorf("final Drain: %v", err)
		}
	}()
	deadline := time.Now().Add(120 * time.Second)
	for {
		live := 0
		for _, j := range m2.Jobs() {
			if !j.State().terminal() {
				live++
			}
		}
		if live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs still live after restart", live)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, j := range m2.Jobs() {
		if st := j.State(); st != StateDone && st != StateCanceled {
			t.Errorf("job %s ended %s (%s)", j.ID, st, j.Status().Error)
		}
	}
	if got := m2.Traces().Resident(); got > cacheCap {
		t.Errorf("resident after soak = %d, cap is %d", got, cacheCap)
	}
	if got := m.Traces().Resident(); got > cacheCap {
		t.Errorf("resident in drained manager = %d, cap is %d", got, cacheCap)
	}
}
