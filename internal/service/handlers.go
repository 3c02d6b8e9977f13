package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"bpred/internal/trace"
)

// retryAfterSeconds is the client backoff hint sent with 429
// responses.
const retryAfterSeconds = "2"

// Server wraps a Manager with the HTTP/JSON API. It is an
// http.Handler; cmd/bpserved mounts it directly.
type Server struct {
	m *Manager
	// MaxUploadBytes caps a trace upload's wire size (0 = 512 MB);
	// the trace store additionally caps the decoded record count.
	MaxUploadBytes int64
	mux            *http.ServeMux
}

// NewServer builds the API surface over m. When m was configured
// with tenants, every /v1 route requires a tenant API key and scopes
// its view to that tenant; /healthz and /metrics stay open for
// probes and scrapers.
func NewServer(m *Manager) *Server {
	s := &Server{m: m, MaxUploadBytes: 512 << 20, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/traces", s.authed(s.handleTraceUpload))
	s.mux.HandleFunc("GET /v1/traces", s.authed(s.handleTraceList))
	s.mux.HandleFunc("GET /v1/traces/{digest}", s.authed(s.handleTraceInfo))
	s.mux.HandleFunc("POST /v1/jobs", s.authed(s.handleJobSubmit))
	s.mux.HandleFunc("GET /v1/jobs", s.authed(s.handleJobList))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.authed(s.handleJobStatus))
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.authed(s.handleJobCancel))
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.authed(s.handleJobResult))
	s.mux.HandleFunc("GET /v1/jobs/{id}/progress", s.authed(s.handleJobProgress))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Manager returns the wrapped manager.
func (s *Server) Manager() *Manager { return s.m }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// writeJSON renders one JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// An encode failure here means the connection died mid-response;
	// there is no channel left to report it on.
	_ = enc.Encode(v)
}

// apiError is the uniform error payload.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// handleTraceUpload ingests one trace stream (BPT1 or BPT2) from the
// request body, transcoding to the canonical columnar form without
// ever holding the decoded trace. Malformed or truncated streams
// yield 400, cap and quota violations 413/429, and re-uploads of
// known content are idempotent 200s.
func (s *Server) handleTraceUpload(w http.ResponseWriter, r *http.Request, tenant string) {
	if s.rejectDraining(w) {
		return
	}
	var quota TraceQuota
	if t := s.m.tenantConfig(tenant); t != nil {
		quota = TraceQuota{MaxTraces: t.MaxTraces, MaxBytes: t.MaxTraceBytes}
	}
	body := http.MaxBytesReader(w, r.Body, s.MaxUploadBytes)
	info, err := s.m.Traces().IngestAs(r.Context(), body, tenant, quota)
	if err != nil {
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			writeError(w, http.StatusRequestEntityTooLarge,
				"trace exceeds the %d-byte upload cap", tooBig.Limit)
		case errors.Is(err, ErrTraceTooLarge):
			writeError(w, http.StatusRequestEntityTooLarge, "%v", err)
		case errors.Is(err, ErrTraceQuota):
			// Quota pressure clears when the tenant deletes or the
			// operator raises the cap; hint the job-queue cadence so
			// clients back off instead of busy-polling.
			w.Header().Set("Retry-After", retryAfterSeconds)
			writeError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, trace.ErrBadMagic):
			writeError(w, http.StatusBadRequest, "not a BPT1/BPT2 trace: %v", err)
		default:
			writeError(w, http.StatusBadRequest, "rejected trace: %v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request, tenant string) {
	writeJSON(w, http.StatusOK, s.m.Traces().ListFor(tenant))
}

func (s *Server) handleTraceInfo(w http.ResponseWriter, r *http.Request, tenant string) {
	info, err := s.m.Traces().InfoFor(r.PathValue("digest"), tenant)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// submitResponse acknowledges a job submission.
type submitResponse struct {
	ID string `json:"id"`
	// Key is the job's dedup identity over (trace digest, warmup,
	// configuration fingerprints).
	Key string `json:"key"`
	// Deduped is true when this submission collapsed onto an existing
	// job instead of enqueueing a new one.
	Deduped bool   `json:"deduped"`
	State   State  `json:"state"`
	Status  string `json:"status_url"`
	Result  string `json:"result_url"`
}

// handleJobSubmit validates and enqueues one sweep job. Backpressure:
// a full queue yields 429 with a Retry-After hint instead of
// buffering unboundedly.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request, tenant string) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	j, deduped, err := s.m.SubmitAs(spec, tenant)
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrJobQuota):
			w.Header().Set("Retry-After", retryAfterSeconds)
			writeError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, ErrDraining):
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		case errors.Is(err, ErrNoTrace):
			writeError(w, http.StatusNotFound, "%v: upload it first via POST /v1/traces", err)
		default:
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	code := http.StatusAccepted
	if deduped {
		code = http.StatusOK
	}
	writeJSON(w, code, submitResponse{
		ID:      j.ID,
		Key:     j.Key,
		Deduped: deduped,
		State:   j.State(),
		Status:  "/v1/jobs/" + j.ID,
		Result:  "/v1/jobs/" + j.ID + "/result",
	})
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request, tenant string) {
	jobs := s.m.JobsFor(tenant)
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request, tenant string) {
	j, err := s.m.JobFor(r.PathValue("id"), tenant)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request, tenant string) {
	j, err := s.m.CancelFor(r.PathValue("id"), tenant)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// handleJobResult serves a terminal job's payload: the full result
// for done jobs, the partial-result contract (completed cells +
// partial flag) for canceled and interrupted ones, 409 while the job
// is still live, and the failure text for failed jobs.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request, tenant string) {
	res, err := s.m.ResultFor(r.PathValue("id"), tenant)
	if err != nil {
		switch {
		case errors.Is(err, ErrNoJob):
			writeError(w, http.StatusNotFound, "%v", err)
		case errors.Is(err, ErrNotFinished):
			writeError(w, http.StatusConflict, "%v: poll /v1/jobs/{id} until terminal", err)
		default:
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleJobProgress streams per-job progress as server-sent events:
// one JSON status per event, ~5/s, until the job reaches a terminal
// state, the client disconnects, or the server drains.
func (s *Server) handleJobProgress(w http.ResponseWriter, r *http.Request, tenant string) {
	j, err := s.m.JobFor(r.PathValue("id"), tenant)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	_, drainCh := s.m.Draining()
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	emit := func() bool {
		st := j.Status()
		raw, err := json.Marshal(st)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", raw); err != nil {
			return false
		}
		fl.Flush()
		return !st.State.terminal()
	}
	if !emit() {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-drainCh:
			emit()
			return
		case <-tick.C:
			if !emit() {
				return
			}
		}
	}
}

// healthzResponse is the /healthz payload.
type healthzResponse struct {
	Status        string        `json:"status"`
	UptimeSeconds float64       `json:"uptime_seconds"`
	Jobs          map[State]int `json:"jobs"`
	Traces        int           `json:"traces"`
	QueueDepth    int           `json:"queue_depth"`
	QueueCapacity int           `json:"queue_capacity"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	draining, _ := s.m.Draining()
	resp := healthzResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.m.started).Seconds(),
		Jobs:          s.m.jobCountsByState(),
		Traces:        s.m.Traces().Len(),
		QueueDepth:    len(s.m.queue),
		QueueCapacity: cap(s.m.queue),
	}
	code := http.StatusOK
	if draining {
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// rejectDraining answers 503 while the server shuts down.
func (s *Server) rejectDraining(w http.ResponseWriter) bool {
	if draining, _ := s.m.Draining(); draining {
		writeError(w, http.StatusServiceUnavailable, "%v", ErrDraining)
		return true
	}
	return false
}
