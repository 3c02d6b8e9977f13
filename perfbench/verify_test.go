package main

import (
	"encoding/hex"
	"strconv"
	"strings"
	"testing"

	"bpred/internal/service"
	"bpred/internal/sweep"
	"bpred/internal/workload"
)

// servedRun builds a one-op run over a small real trace whose recorded
// result is what the service would serve: the in-process sweep.
func servedRun(t *testing.T) *serveRun {
	t.Helper()
	p, _ := workload.ProfileByName("espresso")
	tr := workload.Generate(p, 5, 20_000)
	body, err := encodeBPT2(tr)
	if err != nil {
		t.Fatal(err)
	}
	d := tr.Digest()
	spec := service.JobSpec{Scheme: "gshare", MinBits: 4, MaxBits: 6, Warmup: 100}
	opts, err := specOptions(spec)
	if err != nil {
		t.Fatal(err)
	}
	surf, err := sweep.Run(opts, tr)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := expectedCells(surf, sweep.Configs(opts))
	if err != nil {
		t.Fatal(err)
	}
	r := &serveRun{
		b:       &serveBench{pool: []*poolTrace{{profile: "espresso", branches: tr.Len(), body: body}}},
		uploads: []uploadSlot{{digest: hex.EncodeToString(d[:])}},
		out:     newOutcome(),
	}
	r.ops = []*opRecord{{
		op:     op{Kind: kindBase, Trace: 0, Spec: spec},
		digest: r.uploads[0].digest,
		jobID:  "job-000001",
		result: &service.JobResult{State: service.StateDone, CellsTotal: len(cells), Cells: cells},
	}}
	r.out.attempted = 1
	return r
}

func TestCanonicalIgnoresOrderOnly(t *testing.T) {
	r := servedRun(t)
	cells := r.ops[0].result.Cells
	rev := make([]service.CellResult, len(cells))
	for i, c := range cells {
		rev[len(cells)-1-i] = c
	}
	if canonical(rev) != canonical(cells) {
		t.Fatal("cell order changed the canonical form")
	}
	changed := append([]service.CellResult(nil), cells...)
	changed[2].FirstLevelMissRate += 1e-12
	if canonical(changed) == canonical(cells) {
		t.Fatal("a last-digit change left the canonical form unchanged")
	}
	if n := strings.Count(canonical(cells), "\n") + 1; n != len(cells) {
		t.Fatalf("%d canonical lines for %d cells", n, len(cells))
	}
}

func TestVerifyPassesServedResult(t *testing.T) {
	r := servedRun(t)
	if err := r.verify(); err != nil {
		t.Fatal(err)
	}
	if r.out.failed != 0 || r.out.wrong != 0 {
		t.Fatalf("untampered result failed: %v", r.out.problems)
	}
}

// TestVerifyCountsTamperedResults checks each way a served result can
// be wrong is counted as one failed, incorrect operation.
func TestVerifyCountsTamperedResults(t *testing.T) {
	for name, tamper := range map[string]func(*service.JobResult){
		"mispredicts": func(res *service.JobResult) { res.Cells[3].Mispredicts++ },
		"branches":    func(res *service.JobResult) { res.Cells[0].Branches-- },
		"missing":     func(res *service.JobResult) { res.Cells = res.Cells[1:] },
		"partial":     func(res *service.JobResult) { res.Partial = true },
		"canceled":    func(res *service.JobResult) { res.State = service.StateCanceled },
		"relabelled":  func(res *service.JobResult) { res.Cells[0].Fingerprint = res.Cells[1].Fingerprint },
	} {
		t.Run(name, func(t *testing.T) {
			r := servedRun(t)
			tamper(r.ops[0].result)
			if err := r.verify(); err != nil {
				t.Fatal(err)
			}
			if r.out.failed != 1 || r.out.wrong != 1 || r.out.attempted != 1 {
				t.Fatalf("attempted %d, failed %d, wrong %d; want 1, 1, 1",
					r.out.attempted, r.out.failed, r.out.wrong)
			}
		})
	}
}

func TestVerifyChecksTraceDigest(t *testing.T) {
	r := servedRun(t)
	r.uploads[0].digest = strings.Repeat("0", 64)
	if err := r.verify(); err != nil {
		t.Fatal(err)
	}
	if r.out.wrong != 1 {
		t.Fatalf("a digest mismatch counted %d wrong, want 1", r.out.wrong)
	}
}

func TestExactlyOnceCount(t *testing.T) {
	r := servedRun(t)
	n := len(distinctCells(r.ops))
	metrics := func(simulated int) string {
		return strings.Join([]string{
			`bpsim_configs_completed_total{set="bpserved"} ` + strconv.Itoa(simulated),
			`bpsim_configs_cached_total{set="bpserved"} 0`,
			`bpsim_chunks_total{set="bpserved"} 10`,
			`bpsim_branches_total{set="bpserved"} 100`,
		}, "\n")
	}
	if err := r.serviceCounts(metrics(n), n); err != nil || r.out.wrong != 0 {
		t.Fatalf("exact count: err %v, wrong %d", err, r.out.wrong)
	}
	if err := r.serviceCounts(metrics(n+1), n); err != nil || r.out.wrong != 1 {
		t.Fatalf("one cell simulated twice: err %v, wrong %d", err, r.out.wrong)
	}
}
