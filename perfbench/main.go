// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload from a seed, measures it for a fixed window,
// checks every simulated result, and prints each metric by name with
// its unit; the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
// Untraced runs (-trace 0) report the end-to-end metrics. A traced run
// (-trace 1) records spans around the benchmark's calls into each
// layer, writes them as JSON, and reports the per-layer metrics plus
// the tracing overhead against the untraced median. README.md in this
// directory describes the workloads and metrics.
//
// Run it from the repository root through the launcher, which builds
// it first:
//
//	bash perfbench/run.sh --workload sweep-classic --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed whose sweep CSV digests are recorded in
// digests.go.
const defaultSeed = 1

// setupReps is how many times a run repeats its set-up; setup_s is
// the median.
const setupReps = 5

// bench is one workload: set-up builds its inputs (timed, repeated),
// measure runs it for the window and checks what it produced.
type bench interface {
	setup(t *tracer) error
	measure(ctx context.Context, window time.Duration, t *tracer) (*outcome, error)
}

// workloads names every workload and why it exists.
var workloads = []struct{ name, why string }{
	{"sweep-classic", "Figure-4 sweep of GAs, gshare and path at tiers 4..14 over a 10M-branch trace: the 1996 kernels and the sweep executor"},
	{"sweep-modern", "TAGE, perceptron and tournament sweeps at tiers 4..10 over a 1M-branch trace: the modern kernels alone"},
	{"serve-mixed", "two closed-loop clients upload, submit, wait and fetch over HTTP: ingest, load, streaming, BPC1, dedup and single-flight"},
}

func newBench(name string, seed uint64, workdir string) (bench, error) {
	log := &digestLog{dir: filepath.Join(workdir, "digests")}
	switch name {
	case "sweep-classic":
		return newSweepClassic(seed, log), nil
	case "sweep-modern":
		return newSweepModern(seed, log), nil
	case "serve-mixed":
		return &serveBench{seed: seed, workdir: workdir}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", defaultSeed, "seed for every generated input")
	seconds := fs.Float64("seconds", 20, "length of the measured window")
	traced := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for run data, logs and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive, -trace 0 or 1, and no positional arguments")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, err := newBench(*name, *seed, *workdir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := execute(ctx, b, *name, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *workdir, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	raw, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(raw))
	if !res.Correct {
		return 1
	}
	return 0
}

// runHeader identifies a run in its logs and span file.
type runHeader struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Traced   bool     `json:"traced"`
	Host     hostInfo `json:"host"`
}

func execute(ctx context.Context, b bench, name string, seed uint64, window time.Duration, traced bool, workdir string, stdout io.Writer) (*result, error) {
	hdr := runHeader{Workload: name, Seed: seed, Seconds: window.Seconds(), Traced: traced, Host: probeHost()}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%v\n", name, seed, hdr.Seconds, traced)
	fmt.Fprintf(stdout, "host: %s, nproc %d, GOMAXPROCS %d, %s, calibration loop %.2f ms\n",
		hdr.Host.CPU, hdr.Host.NProc, hdr.Host.GOMAXPROCS, hdr.Host.Go, hdr.Host.CalibMS)

	var t *tracer
	if traced {
		t = newTracer()
	}
	var setupS []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		if err := b.setup(t); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	fmt.Fprintf(stdout, "set-up: %d repetitions, %s s\n", setupReps, joinFloats(setupS))

	logPath := filepath.Join(workdir, "results", name+".jsonl")
	untraced := func() (*outcome, map[string]float64, error) {
		resetPeakRSS()
		heap := startHeapPeak()
		out, err := b.measure(ctx, window, nil)
		heapMB := heap.end()
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(stdout, "peak resident set over the window: %.1f MB (not gated: it moves with GC timing)\n", peakRSSMB())
		m := map[string]float64{"setup_s": median(setupS), "peak_heap_mb": heapMB,
			"ok_ratio": math.Max(0, 1-ratio(float64(out.failed), float64(out.attempted)))}
		for k, x := range out.e2e {
			m[k] = x
		}
		if out.wrong == 0 {
			if err := appendLog(logPath, hdr, m); err != nil {
				return nil, nil, err
			}
		}
		return out, m, nil
	}

	var out *outcome
	var metrics map[string]float64
	defs := endToEnd
	if !traced {
		var err error
		if out, metrics, err = untraced(); err != nil {
			return nil, err
		}
	} else {
		base, n, err := loggedMedian(logPath, "mcellbr_per_s")
		if err != nil {
			return nil, err
		}
		if n == 0 {
			fmt.Fprintln(stdout, "no untraced result logged for this workload yet: measuring one first")
			first, m, err := untraced()
			if err != nil {
				return nil, err
			}
			if first.wrong > 0 {
				return report(stdout, first, endToEnd, m), nil
			}
			base, n = m["mcellbr_per_s"], 1
		}
		if out, err = b.measure(ctx, window, t); err != nil {
			return nil, err
		}
		overhead := 100 * (base/out.e2e["mcellbr_per_s"] - 1)
		fmt.Fprintf(stdout, "tracing overhead: %.2f%% (untraced median %.2f Mcellbr/s over %d logged runs, traced %.2f)\n",
			overhead, base, n, out.e2e["mcellbr_per_s"])
		metrics = layerMetrics(t, out, overhead)
		spanPath := filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
		if err := t.writeJSON(spanPath, hdr); err != nil {
			return nil, err
		}
		fmt.Fprintln(stdout, "spans:", spanPath)
		var missing []string
		for _, d := range perLayer {
			if _, ok := metrics[d.name]; !ok {
				missing = append(missing, d.name)
			}
		}
		if len(missing) > 0 {
			fmt.Fprintf(stdout, "not exercised by %s (reported as 0): %s\n", name, strings.Join(missing, " "))
		}
		defs = perLayer
	}
	return report(stdout, out, defs, metrics), nil
}

// report prints the readable summary and assembles the result line.
func report(stdout io.Writer, out *outcome, defs []metricDef, metrics map[string]float64) *result {
	for _, n := range out.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, p := range out.problems {
		fmt.Fprintln(stdout, "FAILED:", p)
	}
	res := &result{Correct: out.wrong == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: metrics[d.name], Unit: d.unit}
		fmt.Fprintf(stdout, "%-34s %16.4f %s\n", d.name, metrics[d.name], d.unit)
	}
	fmt.Fprintf(stdout, "operations: %d attempted, %d failed; correct: %v\n", out.attempted, out.failed, res.Correct)
	return res
}

// appendLog records an untraced result, so traced runs can measure
// their overhead against the median of the runs before them.
func appendLog(path string, hdr runHeader, metrics map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(struct {
		runHeader
		Metrics map[string]float64 `json:"metrics"`
	}{hdr, metrics})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loggedMedian is the median of one metric over the logged untraced
// runs, with their count.
func loggedMedian(path, metric string) (float64, int, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	var xs []float64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		var rec struct {
			Metrics map[string]float64 `json:"metrics"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", path, err)
		}
		if x, ok := rec.Metrics[metric]; ok {
			xs = append(xs, x)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	return median(xs), len(xs), nil
}

func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
