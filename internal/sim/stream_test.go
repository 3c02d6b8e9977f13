package sim

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"bpred/internal/core"
	"bpred/internal/trace"
)

// TestStreamEquivalence is the correctness contract of the streaming
// executor: driving a sweep from a BPT2 file (one block resident at a
// time) or a BPT1 byte stream yields metrics bit-identical to the
// in-memory path, across warmup and chunk geometry, for every axis
// shape including metered and unfusable configs.
func TestStreamEquivalence(t *testing.T) {
	tr := kernelTrace(21, 20_011)
	dir := t.TempDir()
	p2 := filepath.Join(dir, "stream.bpt2")
	if err := trace.WriteFile2(p2, tr, 0); err != nil {
		t.Fatal(err)
	}
	var b1 bytes.Buffer
	w, err := trace.NewWriter(&b1, tr.Name, tr.Instructions, uint64(tr.Len()))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range tr.Branches {
		if err := w.WriteBranch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	opts := []Options{
		{},
		{Warmup: 1037},
		{Warmup: 3, Chunk: 511},
		{Warmup: 25_000, Chunk: 7}, // warmup exceeds the trace
	}
	for name, configs := range fusedAxes() {
		for oi, opt := range opts {
			want, err := RunConfigsCtx(context.Background(), configs, tr, opt)
			if err != nil {
				t.Fatalf("%s/opt%d: in-memory: %v", name, oi, err)
			}
			got, err := RunConfigsStream(context.Background(), configs, fileOpener(p2), opt)
			if err != nil {
				t.Fatalf("%s/opt%d: streaming: %v", name, oi, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/opt%d: BPT2-streamed metrics diverge from in-memory", name, oi)
			}
			got1, err := RunConfigsStream(context.Background(), configs, bytesOpener(b1.Bytes()), opt)
			if err != nil {
				t.Fatalf("%s/opt%d: BPT1 streaming: %v", name, oi, err)
			}
			if !reflect.DeepEqual(got1, want) {
				t.Fatalf("%s/opt%d: BPT1-streamed metrics diverge from in-memory", name, oi)
			}
		}
	}
}

// TestStreamCancel checks the partial-result contract: a canceled
// stream returns ctx.Err() with every entry zero.
func TestStreamCancel(t *testing.T) {
	tr := kernelTrace(5, 10_000)
	configs := []core.Config{
		{Scheme: core.SchemeGShare, RowBits: 8, ColBits: 2},
		{Scheme: core.SchemeGShare, RowBits: 9, ColBits: 2},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := RunConfigsStream(ctx, configs, resident(tr), Options{Chunk: 64})
	if err == nil {
		t.Fatal("canceled stream returned no error")
	}
	for i, m := range got {
		if m != (Metrics{}) {
			t.Fatalf("entry %d non-zero after cancellation: %+v", i, m)
		}
	}
}

// TestStreamSourceError checks a corrupt stream surfaces its decode
// error instead of returning silently short metrics.
func TestStreamSourceError(t *testing.T) {
	tr := kernelTrace(9, 5_000)
	dir := t.TempDir()
	p2 := filepath.Join(dir, "corrupt.bpt2")
	if err := trace.WriteFile2(p2, tr, 128); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0x10 // land inside a block
	configs := []core.Config{{Scheme: core.SchemeGShare, RowBits: 6, ColBits: 2}}
	if _, err := RunConfigsStream(context.Background(), configs, bytesOpener(raw), Options{}); err == nil {
		t.Fatal("corrupt stream produced metrics without an error")
	}
}

// fileOpener opens a fresh reader over a trace file per pass.
func fileOpener(path string) func() (trace.BatchSource, error) {
	return func() (trace.BatchSource, error) {
		fr, err := trace.OpenFile(path)
		if err != nil {
			return nil, err
		}
		return fr, nil
	}
}

// bytesOpener decodes an encoded trace afresh per pass.
func bytesOpener(raw []byte) func() (trace.BatchSource, error) {
	return func() (trace.BatchSource, error) { return trace.NewReader(bytes.NewReader(raw)) }
}

// ledger wraps an opener and counts the passes it opens and the
// sources the executor closes. The call numbered failOn (1-based; 0
// for none) fails with errOpen, and once cancelAt batches have been
// read across all sources, cancel fires.
type ledger struct {
	open     func() (trace.BatchSource, error)
	failOn   int32
	cancelAt int32
	cancel   context.CancelFunc

	opens, closes, batches atomic.Int32
}

var errOpen = errors.New("open refused")

func (l *ledger) opener() func() (trace.BatchSource, error) {
	return func() (trace.BatchSource, error) {
		if l.opens.Add(1) == l.failOn {
			return nil, errOpen
		}
		src, err := l.open()
		if err != nil {
			return nil, err
		}
		return &ledgerSource{BatchSource: src, l: l}, nil
	}
}

// ledgerSource is one counted pass; it forwards Err and Close.
type ledgerSource struct {
	trace.BatchSource
	l *ledger
}

func (s *ledgerSource) NextBatch(buf []trace.Branch) []trace.Branch {
	if s.l.batches.Add(1) == s.l.cancelAt {
		s.l.cancel()
	}
	return s.BatchSource.NextBatch(buf)
}

func (s *ledgerSource) Err() error {
	if es, ok := s.BatchSource.(interface{ Err() error }); ok {
		return es.Err()
	}
	return nil
}

func (s *ledgerSource) Close() error {
	s.l.closes.Add(1)
	if c, ok := s.BatchSource.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// taskCount is the number of tasks execute carves for configs at the
// current GOMAXPROCS.
func taskCount(configs []core.Config) int {
	groups, rest := fuseGroups(configs)
	w := runtime.GOMAXPROCS(0)
	n := len(strideSplit(rest, taskShare(w, len(rest), len(configs))))
	for _, g := range groups {
		n += len(strideSplit(g.idx, taskShare(w, len(g.idx), len(configs))))
	}
	return n
}

// TestStreamSourceLifecycle checks that every task opens exactly one
// pass and that every source opened is closed: after a clean run, a
// mid-run cancel, a corrupt trace, and an opener failing on its
// second call. Errors zero every entry; a cancel leaves each entry
// either complete or zero. No run leaves a goroutine behind.
func TestStreamSourceLifecycle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	tr := kernelTrace(31, 20_000)
	p2 := filepath.Join(t.TempDir(), "life.bpt2")
	if err := trace.WriteFile2(p2, tr, 0); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.Clone(raw)
	corrupt[len(corrupt)/3] ^= 0x10 // land inside a block
	configs := fusedAxes()["mixed"]
	opt := Options{Warmup: 100, Chunk: 256}
	want, err := RunConfigsCtx(context.Background(), configs, tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	tasks := taskCount(configs)
	if tasks < 2 {
		t.Fatalf("mixed axis carves %d tasks at GOMAXPROCS 3; the test needs several", tasks)
	}
	baseline := runtime.NumGoroutine()

	full := func(i int, m Metrics) bool { return m == want[i] }
	zero := func(_ int, m Metrics) bool { return m == Metrics{} }
	fullOrZero := func(i int, m Metrics) bool { return full(i, m) || zero(i, m) }
	cases := []struct {
		name     string
		open     func() (trace.BatchSource, error)
		failOn   int32
		cancelAt int32
		wantErr  func(error) bool
		entryOK  func(i int, m Metrics) bool
	}{
		{"clean", fileOpener(p2), 0, 0, func(err error) bool { return err == nil }, full},
		{"cancel", fileOpener(p2), 0, 5, func(err error) bool { return errors.Is(err, context.Canceled) }, fullOrZero},
		{"corrupt", bytesOpener(corrupt), 0, 0, func(err error) bool { return err != nil && !errors.Is(err, errOpen) }, zero},
		{"open-fails", fileOpener(p2), 2, 0, func(err error) bool { return errors.Is(err, errOpen) }, zero},
	}
	for _, c := range cases {
		ctx, cancel := context.WithCancel(context.Background())
		l := &ledger{open: c.open, failOn: c.failOn, cancelAt: c.cancelAt, cancel: cancel}
		got, err := RunConfigsStream(ctx, configs, l.opener(), opt)
		cancel()
		if !c.wantErr(err) {
			t.Fatalf("%s: err = %v", c.name, err)
		}
		opens, closes := l.opens.Load(), l.closes.Load()
		if opens != int32(tasks) {
			t.Errorf("%s: %d opens for %d tasks", c.name, opens, tasks)
		}
		opened := opens
		if c.failOn != 0 {
			opened-- // the refused call opened nothing
		}
		if closes != opened {
			t.Errorf("%s: %d of %d opened sources closed", c.name, closes, opened)
		}
		if len(got) != len(configs) {
			t.Fatalf("%s: %d entries for %d configs", c.name, len(got), len(configs))
		}
		for i, m := range got {
			if !c.entryOK(i, m) {
				t.Errorf("%s: entry %d = %+v (complete: %+v)", c.name, i, m, want[i])
			}
		}
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
