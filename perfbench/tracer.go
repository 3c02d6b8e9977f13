package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call (the program itself is not instrumented). Work is
// what the call processed — branches, cell-branches or bytes — so a
// layer's rate is its spans' summed Work over their summed duration.
type span struct {
	ID      int               `json:"id"`
	Parent  int               `json:"parent,omitempty"`
	Name    string            `json:"name"`
	StartMS float64           `json:"start_ms"`
	EndMS   float64           `json:"end_ms"`
	Work    float64           `json:"work,omitempty"`
	Labels  map[string]string `json:"labels,omitempty"`
}

func (s span) seconds() float64 { return (s.EndMS - s.StartMS) / 1e3 }

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, which is how untraced runs stay free of
// tracing cost beyond a nil check per call. A span whose call failed
// before end is never recorded.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	ids   int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span whose call is still running.
type openSpan struct {
	t      *tracer
	id     int
	parent int
	name   string
	start  time.Time
}

// begin opens a span under parent (0 for a root span).
func (t *tracer) begin(name string, parent int) *openSpan {
	if t == nil {
		return nil
	}
	return &openSpan{t: t, id: t.newID(), parent: parent, name: name, start: time.Now()}
}

func (t *tracer) newID() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids++
	return t.ids
}

// ID returns the span's identifier for use as a parent, 0 when
// tracing is off.
func (o *openSpan) ID() int {
	if o == nil {
		return 0
	}
	return o.id
}

// end closes the span with the work it did and its labels.
func (o *openSpan) end(work float64, labels map[string]string) {
	if o == nil {
		return
	}
	o.t.record(o.id, o.parent, o.name, o.start, time.Now(), work, labels)
}

// add records a span whose interval was measured elsewhere, such as
// the service's own job timestamps.
func (t *tracer) add(name string, parent int, start, end time.Time, work float64, labels map[string]string) {
	if t == nil {
		return
	}
	t.record(t.newID(), parent, name, start, end, work, labels)
}

func (t *tracer) record(id, parent int, name string, start, end time.Time, work float64, labels map[string]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID:      id,
		Parent:  parent,
		Name:    name,
		StartMS: float64(start.Sub(t.t0).Nanoseconds()) / 1e6,
		EndMS:   float64(end.Sub(t.t0).Nanoseconds()) / 1e6,
		Work:    work,
		Labels:  labels,
	})
}

// named returns a copy of the closed spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// writeJSON writes every span, with the run's header, to path.
func (t *tracer) writeJSON(path string, header any) error {
	t.mu.Lock()
	doc := struct {
		Run   any    `json:"run"`
		Spans []span `json:"spans"`
	}{header, append([]span(nil), t.spans...)}
	t.mu.Unlock()
	raw, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
