package sim

import (
	"sort"

	"bpred/internal/core"
	"bpred/internal/trace"
)

// BranchBreakdown is one static branch's contribution to a
// predictor's mispredictions — the per-branch view behind the paper's
// observation that large-program accuracy is about "handling the most
// frequent cases well".
type BranchBreakdown struct {
	PC          uint64
	Instances   uint64
	Mispredicts uint64
}

// Rate returns the branch's own misprediction rate.
func (b BranchBreakdown) Rate() float64 {
	if b.Instances == 0 {
		return 0
	}
	return float64(b.Mispredicts) / float64(b.Instances)
}

// Breakdown couples aggregate metrics with per-branch detail.
type Breakdown struct {
	Metrics Metrics
	// Branches is sorted by descending misprediction count.
	Branches []BranchBreakdown
}

// TopContributors returns the smallest set of branches accounting for
// at least frac of all mispredictions.
func (b *Breakdown) TopContributors(frac float64) []BranchBreakdown {
	if frac <= 0 || b.Metrics.Mispredicts == 0 {
		return nil
	}
	if frac > 1 {
		frac = 1
	}
	target := uint64(frac * float64(b.Metrics.Mispredicts))
	var acc uint64
	for i, br := range b.Branches {
		acc += br.Mispredicts
		if acc >= target {
			return b.Branches[:i+1]
		}
	}
	return b.Branches
}

// RunBreakdown drives a predictor over a source collecting per-branch
// misprediction counts. It is slower and allocates per static branch;
// use Run for sweeps.
func RunBreakdown(p core.Predictor, src trace.Source, opt Options) *Breakdown {
	type cell struct{ inst, miss uint64 }
	perPC := make(map[uint64]*cell)
	m := Metrics{Name: p.Name()}
	warm := opt.Warmup
	for {
		b, ok := src.Next()
		if !ok {
			break
		}
		pred := p.Predict(b)
		p.Update(b)
		if warm > 0 {
			warm--
			continue
		}
		m.Branches++
		c := perPC[b.PC]
		if c == nil {
			c = &cell{}
			perPC[b.PC] = c
		}
		c.inst++
		if pred != b.Taken {
			m.Mispredicts++
			c.miss++
		}
	}
	finishMetrics(&m, p)
	out := &Breakdown{Metrics: m, Branches: make([]BranchBreakdown, 0, len(perPC))}
	for pc, c := range perPC {
		out.Branches = append(out.Branches, BranchBreakdown{PC: pc, Instances: c.inst, Mispredicts: c.miss})
	}
	sort.Slice(out.Branches, func(i, j int) bool {
		if out.Branches[i].Mispredicts != out.Branches[j].Mispredicts {
			return out.Branches[i].Mispredicts > out.Branches[j].Mispredicts
		}
		return out.Branches[i].PC < out.Branches[j].PC
	})
	return out
}
