package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bpred/internal/obs"
)

// jobRecord is the persisted form of one job. Results are kept in
// separate per-job files (results/<id>.json) so the table stays small
// enough to rewrite on every transition.
type jobRecord struct {
	ID          string    `json:"id"`
	Key         string    `json:"key"`
	Spec        JobSpec   `json:"spec"`
	Tenant      string    `json:"tenant,omitempty"`
	State       State     `json:"state"`
	Error       string    `json:"error,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`
}

// jobTable is the jobs.json layout.
type jobTable struct {
	Seq  uint64      `json:"seq"`
	Jobs []jobRecord `json:"jobs"`
}

func (m *Manager) jobsPath() string { return filepath.Join(m.cfg.DataDir, "jobs.json") }

func (m *Manager) resultPath(id string) string {
	return filepath.Join(m.cfg.DataDir, "results", id+".json")
}

// persistJobs atomically rewrites the job table.
func (m *Manager) persistJobs() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.persistJobsLocked()
}

func (m *Manager) persistJobsLocked() error {
	tbl := jobTable{Seq: m.seq, Jobs: make([]jobRecord, 0, len(m.order))}
	for _, id := range m.order {
		j := m.jobs[id]
		j.mu.Lock()
		tbl.Jobs = append(tbl.Jobs, jobRecord{
			ID:          j.ID,
			Key:         j.Key,
			Spec:        j.Spec,
			Tenant:      j.Tenant,
			State:       j.state,
			Error:       j.errText,
			SubmittedAt: j.submitted,
			StartedAt:   j.started,
			FinishedAt:  j.finished,
		})
		j.mu.Unlock()
	}
	return persistJSON(m.jobsPath(), tbl)
}

// loadJobs restores the persisted job table. Jobs the previous
// process left queued, running, or interrupted come back queued and
// are returned for re-enqueueing — their completed cells replay from
// the BPC1 cache, so resumption costs only the missing work. Jobs
// whose trace vanished from the store fail immediately instead of
// wedging a worker.
//
//bplint:exclusive runs before the manager is shared; the jobs it builds are not yet published
func (m *Manager) loadJobs() ([]*Job, error) {
	raw, err := os.ReadFile(m.jobsPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("service: reading job table: %w", err)
	}
	var tbl jobTable
	if err := json.Unmarshal(raw, &tbl); err != nil {
		return nil, fmt.Errorf("service: corrupt job table %s: %w", m.jobsPath(), err)
	}
	m.seq = tbl.Seq
	var resumable []*Job
	for _, rec := range tbl.Jobs {
		_, opts, configs, err := rec.Spec.validate()
		j := &Job{
			ID:        rec.ID,
			Key:       rec.Key,
			Spec:      rec.Spec,
			Opts:      opts,
			Configs:   configs,
			Tenant:    rec.Tenant,
			Obs:       &obs.Counters{},
			state:     rec.State,
			errText:   rec.Error,
			reason:    StateInterrupted,
			submitted: rec.SubmittedAt,
			started:   rec.StartedAt,
			finished:  rec.FinishedAt,
		}
		switch {
		case err != nil:
			// A record this process cannot re-validate (format drift)
			// is kept visible but inert.
			j.state = StateFailed
			j.errText = fmt.Sprintf("unloadable after restart: %v", err)
		case rec.State == StateQueued || rec.State == StateRunning || rec.State == StateInterrupted:
			if _, terr := m.traces.Info(rec.Spec.Trace); terr != nil {
				j.state = StateFailed
				j.errText = "trace not available after restart"
			} else {
				j.state = StateQueued
				j.started = time.Time{}
				j.finished = time.Time{}
				resumable = append(resumable, j)
			}
		}
		m.jobs[j.ID] = j
		m.order = append(m.order, j.ID)
		// Later submissions of a key supersede earlier ones, matching
		// submission-order replay.
		m.byKey[dedupKey(j.Tenant, j.Key)] = j
	}
	return resumable, nil
}

// persistResult writes a job's terminal payload.
func (m *Manager) persistResult(id string, res *JobResult) error {
	return persistJSON(m.resultPath(id), res)
}

// loadResult reads a persisted result (restart path).
func (m *Manager) loadResult(id string) (*JobResult, error) {
	raw, err := os.ReadFile(m.resultPath(id))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("service: job %s has no persisted result", id)
	}
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	var res JobResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("service: corrupt result %s: %w", m.resultPath(id), err)
	}
	return &res, nil
}
