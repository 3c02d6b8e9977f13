package main

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"bpred/internal/checkpoint"
	"bpred/internal/core"
	"bpred/internal/service"
	"bpred/internal/sim"
	"bpred/internal/sweep"
	"bpred/internal/trace"
)

// specOptions maps the job specs the mix issues onto the sweep
// options they stand for, so the benchmark can enumerate a job's
// cells and recompute them in-process.
func specOptions(s service.JobSpec) (sweep.Options, error) {
	o := sweep.Options{
		MinBits: s.MinBits, MaxBits: s.MaxBits, Tiers: s.Tiers,
		Sim: sim.Options{Warmup: s.Warmup},
	}
	switch s.Scheme {
	case "gas":
		o.Scheme = core.SchemeGAs
	case "gshare":
		o.Scheme = core.SchemeGShare
	case "path":
		o.Scheme = core.SchemePath
	case "pas":
		o.Scheme = core.SchemePAs
	default:
		return o, fmt.Errorf("mix scheme %q has no mapping", s.Scheme)
	}
	if fl := s.FirstLevel; fl != nil {
		if fl.Kind != "setassoc" {
			return o, fmt.Errorf("mix first level %q has no mapping", fl.Kind)
		}
		o.FirstLevel = core.FirstLevel{Kind: core.FirstLevelSetAssoc, Entries: fl.Entries, Ways: fl.Ways}
	}
	return o, nil
}

// cellKey names one simulation cell: trace, warmup and configuration.
type cellKey struct {
	digest string
	warmup int
	fp     string
}

// distinctCells maps every distinct cell the finished ops asked for
// to the branches it scored.
func distinctCells(ops []*opRecord) map[cellKey]float64 {
	cells := make(map[cellKey]float64)
	for _, rec := range ops {
		for _, c := range rec.result.Cells {
			cells[cellKey{rec.digest, rec.op.Spec.Warmup, c.Fingerprint}] = float64(c.Branches)
		}
	}
	return cells
}

// canonical renders a job's cells in a form independent of order and
// JSON layout: one line per cell, sorted by fingerprint, with every
// simulated figure at full precision.
func canonical(cells []service.CellResult) string {
	lines := make([]string, len(cells))
	for i, c := range cells {
		lines[i] = strings.Join([]string{
			c.Fingerprint, c.Name,
			strconv.Itoa(c.TableBits), strconv.Itoa(c.RowBits), strconv.Itoa(c.ColBits),
			strconv.FormatUint(c.Branches, 10), strconv.FormatUint(c.Mispredicts, 10),
			strconv.FormatFloat(c.FirstLevelMissRate, 'g', -1, 64),
		}, " ")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// expectedCells is what a job over configs must return, read off an
// in-process surface covering them.
func expectedCells(s *sweep.Surface, configs []core.Config) ([]service.CellResult, error) {
	out := make([]service.CellResult, 0, len(configs))
	for _, c := range configs {
		p, ok := s.At(c.TableBits(), c.RowBits)
		if !ok {
			return nil, fmt.Errorf("reference surface lacks %s", c.Fingerprint())
		}
		out = append(out, service.CellResult{
			Name: p.Metrics.Name, Fingerprint: c.Fingerprint(),
			TableBits: c.TableBits(), RowBits: c.RowBits, ColBits: c.ColBits,
			Branches: p.Metrics.Branches, Mispredicts: p.Metrics.Mispredicts,
			FirstLevelMissRate: p.Metrics.FirstLevelMissRate,
		})
	}
	return out, nil
}

// checkResult holds one served result to the reference: complete,
// done, and cell for cell identical.
func checkResult(res *service.JobResult, want []service.CellResult) error {
	switch {
	case res.State != service.StateDone || res.Partial:
		return fmt.Errorf("state %s, partial %v", res.State, res.Partial)
	case res.CellsTotal != len(want) || len(res.Cells) != len(want):
		return fmt.Errorf("%d of %d cells, want %d", len(res.Cells), res.CellsTotal, len(want))
	case canonical(res.Cells) != canonical(want):
		return fmt.Errorf("cells differ from the in-process sweep")
	}
	return nil
}

// verify recomputes every finished op's cells with in-process
// sweep.Run calls over the same trace, outside the timed window. Ops
// sharing a trace, warmup and scheme share one sweep over the union
// of their tiers.
func (r *serveRun) verify() error {
	type groupKey struct {
		trace  int
		warmup int
		scheme string
	}
	groups := make(map[groupKey][]*opRecord)
	var keys []groupKey
	for _, rec := range r.ops {
		k := groupKey{rec.op.Trace, rec.op.Spec.Warmup, rec.op.Spec.Scheme}
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], rec)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.trace != b.trace {
			return a.trace < b.trace
		}
		if a.warmup != b.warmup {
			return a.warmup < b.warmup
		}
		return a.scheme < b.scheme
	})

	sp := r.t.begin("bench.verify", 0)
	defer sp.end(0, nil)
	var tr *trace.Trace
	decoded := -1
	for _, k := range keys {
		if k.trace != decoded {
			tr = nil // one decoded trace at a time
			var err error
			if tr, err = r.decodePoolTrace(k.trace); err != nil {
				return err
			}
			decoded = k.trace
		}
		recs := groups[k]
		opts, err := specOptions(recs[0].op.Spec)
		if err != nil {
			return err
		}
		if opts.Tiers, err = unionTiers(recs); err != nil {
			return err
		}
		surf, err := sweep.Run(opts, tr)
		if err != nil {
			return fmt.Errorf("reference sweep: %w", err)
		}
		for _, rec := range recs {
			o, err := specOptions(rec.op.Spec)
			if err != nil {
				return err
			}
			want, err := expectedCells(surf, sweep.Configs(o))
			if err != nil {
				return err
			}
			if err := checkResult(rec.result, want); err != nil {
				r.out.wrongf("job %s (%s %s w%d): %v", rec.jobID, rec.op.Kind, rec.op.Spec.Scheme, k.warmup, err)
			}
		}
	}
	return nil
}

// decodePoolTrace decodes pool trace i from its upload body and holds
// it to the digest the service returned for that upload.
func (r *serveRun) decodePoolTrace(i int) (*trace.Trace, error) {
	rd, err := trace.NewReader(bytes.NewReader(r.b.pool[i].body))
	if err != nil {
		return nil, err
	}
	tr := &trace.Trace{Name: rd.Name(), Instructions: rd.Instructions(),
		Branches: make([]trace.Branch, 0, rd.Count())}
	buf := make([]trace.Branch, 8192)
	for {
		batch := rd.NextBatch(buf)
		if len(batch) == 0 {
			break
		}
		tr.Branches = append(tr.Branches, batch...)
	}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	if d := tr.Digest(); hex.EncodeToString(d[:]) != r.uploads[i].digest {
		r.out.wrongf("trace %d: service digest %s, decoded body %x", i, r.uploads[i].digest, d)
	}
	return tr, nil
}

// unionTiers is the sorted union of the ops' tiers.
func unionTiers(recs []*opRecord) ([]int, error) {
	seen := map[int]bool{}
	var tiers []int
	for _, rec := range recs {
		o, err := specOptions(rec.op.Spec)
		if err != nil {
			return nil, err
		}
		for _, c := range sweep.Configs(o) {
			if n := c.TableBits(); !seen[n] {
				seen[n] = true
				tiers = append(tiers, n)
			}
		}
	}
	sort.Ints(tiers)
	return tiers, nil
}

// serviceCounts reads the service's own counters off /metrics, holds
// them to the exactly-once property, and keeps them for the report.
func (r *serveRun) serviceCounts(metrics string, distinct int) error {
	read := func(name string) (float64, error) {
		prefix := name + `{set="bpserved"} `
		for _, line := range strings.Split(metrics, "\n") {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				return strconv.ParseFloat(v, 64)
			}
		}
		return 0, fmt.Errorf("/metrics has no %s", prefix)
	}
	vals := map[string]float64{}
	for _, name := range []string{"bpsim_configs_completed_total", "bpsim_configs_cached_total",
		"bpsim_chunks_total", "bpsim_branches_total"} {
		v, err := read(name)
		if err != nil {
			return err
		}
		vals[name] = v
	}
	simulated, cached := vals["bpsim_configs_completed_total"], vals["bpsim_configs_cached_total"]
	if int(simulated) != distinct {
		r.out.wrongf("exactly-once: service simulated %v cells, jobs asked for %d distinct", simulated, distinct)
	}
	var deduped int
	for _, rec := range r.ops {
		if rec.deduped {
			deduped++
		}
	}
	l := r.out.layer
	l["service.cells_simulated"] = simulated
	l["service.cache_hit_base"] = simulated + cached
	l["service.cache_hit_ratio"] = ratio(cached, simulated+cached)
	l["service.dedup_base"] = float64(len(r.ops))
	l["service.dedup_ratio"] = ratio(float64(deduped), float64(len(r.ops)))
	l["service.rejects_429"] = float64(r.rejects)
	l["sim.chunks"] = vals["bpsim_chunks_total"]
	l["sim.branches"] = vals["bpsim_branches_total"]
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// serviceSpans turns each job's own timestamps, as JobStatus reports
// them, into queue and exec spans, and keeps each op's result fetch.
func (r *serveRun) serviceSpans() {
	seen := map[string]bool{}
	for _, rec := range r.ops {
		st := rec.status
		if seen[rec.jobID] || st.StartedAt == nil || st.FinishedAt == nil {
			continue
		}
		seen[rec.jobID] = true
		labels := map[string]string{"job": rec.jobID}
		r.t.add("service.queue", 0, st.SubmittedAt, *st.StartedAt, 0, labels)
		r.t.add("service.exec", 0, *st.StartedAt, *st.FinishedAt, 0, labels)
	}
}

// probeFiles times the trace and checkpoint layers on the files the
// run left behind: full loads and digests of the small canonical
// .bpt2 files, streamed reads of the large ones, and a read and a
// durable rewrite of every BPC1 ledger.
func (r *serveRun) probeFiles(dir string) error {
	for i := range r.uploads {
		u := &r.uploads[i]
		if u.err != nil || u.digest == "" {
			continue
		}
		path := filepath.Join(dir, "traces", u.digest+".bpt2")
		n := float64(r.b.pool[i].branches)
		if r.b.pool[i].large {
			if err := streamFile(r.t, path, n); err != nil {
				return err
			}
			continue
		}
		sp := r.t.begin("trace.readfile", 0)
		tr, err := trace.ReadFile(path)
		sp.end(n, nil)
		if err != nil {
			return err
		}
		sp = r.t.begin("trace.digest", 0)
		d := tr.Digest()
		sp.end(n, nil)
		if hex.EncodeToString(d[:]) != u.digest {
			r.out.wrongf("stored trace %s reads back with digest %x", u.digest, d)
		}
	}

	type ledgerKey struct {
		digest string
		warmup int
	}
	ledgers := map[ledgerKey][]string{} // served fingerprints per ledger
	for _, rec := range r.ops {
		k := ledgerKey{rec.digest, rec.op.Spec.Warmup}
		for _, c := range rec.result.Cells {
			ledgers[k] = append(ledgers[k], c.Fingerprint)
		}
	}
	for k, fps := range ledgers {
		raw, err := hex.DecodeString(k.digest)
		if err != nil || len(raw) != 32 {
			return fmt.Errorf("bad digest %q", k.digest)
		}
		digest := [32]byte(raw)
		path := checkpoint.PathFor(filepath.Join(dir, "checkpoints"), digest, uint64(k.warmup))
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		sp := r.t.begin("checkpoint.read", 0)
		st, err := checkpoint.Open(path, digest, uint64(k.warmup))
		sp.end(float64(info.Size()), nil)
		if err != nil {
			return err
		}
		m, ok := st.Lookup(fps[0])
		if !ok {
			r.out.wrongf("ledger %s lacks served cell %s", filepath.Base(path), fps[0])
			continue
		}
		st.Add(fps[0], m) // marks the store dirty, so Flush rewrites the file
		sp = r.t.begin("checkpoint.write", 0)
		err = st.Flush()
		sp.end(float64(info.Size()), nil)
		if err != nil {
			return err
		}
	}
	return nil
}

// streamFile reads a trace file block by block, the way the
// streaming executor does, without holding it decoded.
func streamFile(t *tracer, path string, n float64) error {
	sp := t.begin("trace.stream", 0)
	fr, err := trace.OpenFile(path)
	if err != nil {
		return err
	}
	defer fr.Close()
	buf := make([]trace.Branch, 8192)
	for len(fr.NextBatch(buf)) > 0 {
	}
	sp.end(n, nil)
	return fr.Err()
}
