package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// outcome is what one measured phase produced: the operation counts,
// the workload's own end-to-end figures, the exact counts and
// client-side figures the traced report uses, and readable notes.
type outcome struct {
	attempted int
	failed    int
	// wrong counts failed correctness checks; each is also a failure.
	wrong int
	// problems lists every failed operation and correctness check.
	problems []string
	e2e      map[string]float64
	layer    map[string]float64
	notes    []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail counts one failed operation and records why.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// wrongf counts one failed correctness check and records it.
func (o *outcome) wrongf(format string, args ...any) {
	o.wrong++
	o.fail(format, args...)
}

// noteTail records a latency distribution's median and highest
// well-supported tail percentile, with its sample count.
func (o *outcome) noteTail(name string, ms []float64) {
	t := tail(ms, 95)
	if !t.OK {
		o.notes = append(o.notes, fmt.Sprintf("%s latency: p50 %.1f ms over n=%d (too few samples for a tail percentile)",
			name, median(ms), t.N))
		return
	}
	o.notes = append(o.notes, fmt.Sprintf("%s latency: p50 %.1f ms, p%d %.1f ms over n=%d",
		name, median(ms), t.Pct, t.Value, t.N))
}

// digestLog keeps, per workload and seed, the result digests of the
// first run in a checkout, so that every later run with that seed is
// held to them.
type digestLog struct{ dir string }

func (l *digestLog) check(out *outcome, workload string, seed uint64, got map[string]string) error {
	path := filepath.Join(l.dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if out.failed > 0 {
			return nil // never record digests from a run that failed a check
		}
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(l.dir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, raw, 0o644)
	}
	if err != nil {
		return err
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	for k, w := range want {
		if g, ok := got[k]; ok && g != w {
			out.wrongf("%s digest %s differs from the first run of seed %d (%s)", k, g, seed, w)
		}
	}
	return nil
}
