package main

// metricDef is a reported metric's name and unit; BENCHMARK.json
// lists the same names.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of untraced runs, printed for every
// workload. A "job" is one sweep.RunCtx call on the sweep workloads
// and one client submit-to-result round trip on serve-mixed.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mcellbr_per_s", "Mcellbr/s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"peak_heap_mb", "MB"},
	{"ok_ratio", "ratio"},
}

// simSchemes are the families with a sim.<scheme>.mcellbr_per_s rate.
var simSchemes = []string{"gas", "gshare", "path", "pas", "tage", "perceptron", "tournament"}

// perLayer are the metrics of traced runs. A workload that does not
// call into a layer reports its metrics as 0 and names them in the
// run's "not exercised" line.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"workload.gen_mbr_per_s", "Mbr/s"},
		{"trace.encode_mbr_per_s", "Mbr/s"},
		{"trace.readfile_mbr_per_s", "Mbr/s"},
		{"trace.digest_mbr_per_s", "Mbr/s"},
		{"trace.stream_mbr_per_s", "Mbr/s"},
	}
	for _, s := range simSchemes {
		defs = append(defs, metricDef{"sim." + s + ".mcellbr_per_s", "Mcellbr/s"})
	}
	return append(defs, []metricDef{
		{"sim.chunks", "count"},
		{"sim.branches", "count"},
		{"sim.resident_cells_ms", "ms"},
		{"sim.stream_cells_ms", "ms"},
		{"sweep.run_s", "s"},
		{"report.csv_ms", "ms"},
		{"checkpoint.read_ms", "ms"},
		{"checkpoint.write_ms", "ms"},
		{"checkpoint.ledger_bytes", "bytes"},
		{"service.queue_wait_p50_ms", "ms"},
		{"service.queue_wait_p95_ms", "ms"},
		{"service.exec_ms", "ms"},
		{"service.exec_other_ms", "ms"},
		{"service.result_ms", "ms"},
		{"service.cells_simulated", "count"},
		{"service.cache_hit_ratio", "ratio"},
		{"service.cache_hit_base", "count"},
		{"service.dedup_ratio", "ratio"},
		{"service.dedup_base", "count"},
		{"service.rejects_429", "count"},
		{"bench.job_p95_ms", "ms"},
		{"bench.job_samples", "count"},
		{"bench.upload_p50_ms", "ms"},
		{"bench.upload_samples", "count"},
		{"bench.fail_ratio", "ratio"},
		{"bench.tracing_overhead_pct", "%"},
	}...)
}()

// layerMetrics derives the per-layer figures from a traced run's
// spans plus the exact counts the outcome carries. Only metrics the
// run exercised are present in the map.
func layerMetrics(t *tracer, out *outcome, overheadPct float64) map[string]float64 {
	v := map[string]float64{}
	setRate := func(metric, spanName string) {
		if r, ok := rate(t.named(spanName), nil); ok {
			v[metric] = r / 1e6
		}
	}
	setRate("workload.gen_mbr_per_s", "workload.gen")
	setRate("trace.encode_mbr_per_s", "trace.encode")
	setRate("trace.readfile_mbr_per_s", "trace.readfile")
	setRate("trace.digest_mbr_per_s", "trace.digest")
	setRate("trace.stream_mbr_per_s", "trace.stream")

	// Every span labelled with a scheme wraps simulation of that
	// family: whole sweeps on the sweep workloads, the service's
	// RunCells calls on serve-mixed.
	var simSpans []span
	for _, name := range []string{"sweep.run", "sim.resident_cells", "sim.stream_cells"} {
		simSpans = append(simSpans, t.named(name)...)
	}
	for _, s := range simSchemes {
		if r, ok := rate(simSpans, func(sp span) bool { return sp.Labels["scheme"] == s }); ok {
			v["sim."+s+".mcellbr_per_s"] = r / 1e6
		}
	}

	resident := perJobMS(t.named("sim.resident_cells"))
	stream := perJobMS(t.named("sim.stream_cells"))
	setMedian(v, "sim.resident_cells_ms", values(resident))
	setMedian(v, "sim.stream_cells_ms", values(stream))
	if d := durations(t.named("sweep.run")); len(d) > 0 {
		v["sweep.run_s"] = median(d) / 1e3
	}
	setMedian(v, "report.csv_ms", durations(t.named("report.csv")))
	reads := t.named("checkpoint.read")
	setMedian(v, "checkpoint.read_ms", durations(reads))
	setMedian(v, "checkpoint.write_ms", durations(t.named("checkpoint.write")))
	var sizes []float64
	for _, s := range reads {
		sizes = append(sizes, s.Work)
	}
	setMedian(v, "checkpoint.ledger_bytes", sizes)

	queue := durations(t.named("service.queue"))
	setMedian(v, "service.queue_wait_p50_ms", queue)
	if q := tail(queue, 95); q.OK {
		v["service.queue_wait_p95_ms"] = q.Value
	}
	execs := t.named("service.exec")
	setMedian(v, "service.exec_ms", durations(execs))
	var other []float64
	for _, e := range execs {
		job := e.Labels["job"]
		other = append(other, (e.EndMS-e.StartMS)-resident[job]-stream[job])
	}
	setMedian(v, "service.exec_other_ms", other)
	setMedian(v, "service.result_ms", durations(t.named("client.result")))

	for k, x := range out.layer {
		v[k] = x
	}
	v["bench.fail_ratio"] = ratio(float64(out.failed), float64(out.attempted))
	v["bench.tracing_overhead_pct"] = overheadPct
	return v
}

// rate is the summed work over the summed seconds of the spans keep
// admits (all when keep is nil).
func rate(spans []span, keep func(span) bool) (float64, bool) {
	var work, secs float64
	for _, s := range spans {
		if keep == nil || keep(s) {
			work += s.Work
			secs += s.seconds()
		}
	}
	if secs <= 0 {
		return 0, false
	}
	return work / secs, true
}

// durations lists the spans' lengths in milliseconds.
func durations(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.EndMS - s.StartMS
	}
	return out
}

// perJobMS sums span milliseconds by the job they are attributed to.
func perJobMS(spans []span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Labels["job"]] += s.EndMS - s.StartMS
	}
	return out
}

func values(m map[string]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, x := range m {
		out = append(out, x)
	}
	return out
}

func setMedian(v map[string]float64, name string, xs []float64) {
	if len(xs) > 0 {
		v[name] = median(xs)
	}
}
