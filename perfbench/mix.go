package main

import (
	"bytes"
	"fmt"
	"strings"

	"bpred/internal/rng"
	"bpred/internal/service"
	"bpred/internal/trace"
	"bpred/internal/workload"
)

// The serve-mixed trace pool: small traces the service decodes and
// pins, and large ones past its 4M-branch streaming cutoff
// (service.DefaultStreamBranches) that run from streamed BPT2 blocks.
const (
	smallTraces   = 12
	smallBranches = 500_000
	largeTraces   = 2
	largeBranches = 6_000_000
)

var (
	smallProfiles = []string{"gcc", "espresso", "real_gcc", "mpeg_play"}
	largeProfiles = []string{"gcc", "real_gcc"}
)

// poolTrace is one trace of the pool, kept only as its BPT2 upload
// body; the decoded form is dropped once encoded.
type poolTrace struct {
	profile  string
	branches int
	seed     uint64
	large    bool
	body     []byte
}

// traceSeed derives trace i's generator seed from the run seed.
func traceSeed(seed uint64, i int) uint64 {
	return rng.Mix64(seed ^ rng.Mix64(uint64(i)+1))
}

// buildPool generates and encodes the pool for a seed: small traces
// first, then the large ones.
func buildPool(seed uint64, t *tracer) ([]*poolTrace, error) {
	var pool []*poolTrace
	for i := 0; i < smallTraces+largeTraces; i++ {
		pt := &poolTrace{seed: traceSeed(seed, i)}
		if i < smallTraces {
			pt.profile, pt.branches = smallProfiles[i%len(smallProfiles)], smallBranches
		} else {
			pt.profile, pt.branches, pt.large = largeProfiles[(i-smallTraces)%len(largeProfiles)], largeBranches, true
		}
		p, ok := workload.ProfileByName(pt.profile)
		if !ok {
			return nil, fmt.Errorf("unknown workload profile %q", pt.profile)
		}
		gen := t.begin("workload.gen", 0)
		tr := workload.Generate(p, pt.seed, pt.branches)
		gen.end(float64(pt.branches), nil)

		enc := t.begin("trace.encode", 0)
		body, err := encodeBPT2(tr)
		enc.end(float64(pt.branches), nil)
		if err != nil {
			return nil, fmt.Errorf("encoding %s: %w", pt.profile, err)
		}
		pt.body = body
		pool = append(pool, pt)
	}
	return pool, nil
}

// encodeBPT2 renders a trace as the columnar BPT2 stream the service
// ingests.
func encodeBPT2(tr *trace.Trace) ([]byte, error) {
	var buf bytes.Buffer
	w, err := trace.NewWriter2(&buf, tr.Name, tr.Instructions, uint64(tr.Len()), 0)
	if err != nil {
		return nil, err
	}
	for _, b := range tr.Branches {
		if err := w.WriteBranch(b); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// op is one closed-loop client operation: make sure the trace is
// stored, submit the spec, wait for the job, fetch its result.
type op struct {
	Kind  string
	Trace int // pool index
	// Spec is complete except for Trace, the digest the upload
	// returns.
	Spec service.JobSpec
}

// The op kinds, each aimed at one service mechanism.
const (
	kindBase    = "base"    // fresh cells on a small, pinned trace
	kindOverlap = "overlap" // gshare 8..12 over an earlier gshare 4..10: tiers 8..10 hit BPC1 or single-flight
	kindPAs     = "pas"     // PAs with a 1024x4 set-associative first level
	kindRepeat  = "repeat"  // an earlier spec again: job dedup, live when it repeats the previous op
	kindLarge   = "large"   // fresh cells on a streamed trace
)

// mixLen is how many ops a run can draw before the sequence wraps;
// a run at the benchmark's window uses a few hundred.
const mixLen = 4096

// deck is one block of the mix: its cards are shuffled per block, so
// every run of any seed issues the same share of each kind. Base ops
// are over half and repeats plus overlaps about a third, so the median
// job lands inside the base ops rather than on a boundary between
// kinds.
var deck = func() []string {
	var d []string
	add := func(n int, card string) {
		for i := 0; i < n; i++ {
			d = append(d, card)
		}
	}
	add(7, "base-gshare")
	add(7, "base-gas")
	add(7, "base-path")
	add(6, kindOverlap)
	add(1, kindPAs)
	add(8, kindRepeat)
	add(2, "large-gshare")
	add(1, "large-gas")
	add(1, "large-path")
	return d
}()

// buildMix draws the seeded op sequence. Each fresh spec gets a
// warmup no earlier op on its trace used, so its cells are new to the
// service (the cell key includes warmup) and the mix stays stationary
// however long a run lasts.
func buildMix(seed uint64, n int) []op {
	g := rng.NewXoshiro256(seed ^ 0x6d6978)
	fresh := make([]int, smallTraces+largeTraces)
	warmup := func(tr int) int {
		fresh[tr]++
		return 1000 + 250*fresh[tr]
	}
	var ops []op
	var gshareBases []int // base ops an overlap op has not yet reused
	cards := append([]string(nil), deck...)
	for i := 0; i < n; i++ {
		if i%len(cards) == 0 {
			g.Shuffle(len(cards), func(a, b int) { cards[a], cards[b] = cards[b], cards[a] })
		}
		kind, scheme, _ := strings.Cut(cards[i%len(cards)], "-")
		var o op
		switch {
		case kind == kindOverlap && len(gshareBases) > 0:
			prev := ops[gshareBases[len(gshareBases)-1]]
			gshareBases = gshareBases[:len(gshareBases)-1]
			o = op{Kind: kindOverlap, Trace: prev.Trace, Spec: service.JobSpec{
				Scheme: "gshare", MinBits: 8, MaxBits: 12, Warmup: prev.Spec.Warmup}}
		case kind == kindRepeat && i > 0:
			src := i - 1
			if g.Bool(0.5) {
				src = g.Intn(i)
			}
			o = ops[src]
			o.Kind = kindRepeat
		case kind == kindPAs:
			tr := g.Intn(smallTraces)
			o = op{Kind: kindPAs, Trace: tr, Spec: service.JobSpec{
				Scheme: "pas", MinBits: 4, MaxBits: 9, Warmup: warmup(tr),
				FirstLevel: &service.FirstLevelSpec{Kind: "setassoc", Entries: 1024, Ways: 4}}}
		case kind == kindLarge:
			tr := smallTraces + g.Intn(largeTraces)
			o = op{Kind: kindLarge, Trace: tr, Spec: service.JobSpec{
				Scheme: scheme, MinBits: 4, MaxBits: 4, Warmup: warmup(tr)}}
		default: // a base card, or an overlap or repeat with nothing yet to reuse
			if scheme == "" {
				scheme = "gshare"
			}
			tr := g.Intn(smallTraces)
			o = op{Kind: kindBase, Trace: tr, Spec: service.JobSpec{
				Scheme: scheme, MinBits: 4, MaxBits: 10, Warmup: warmup(tr)}}
		}
		if o.Kind == kindBase && o.Spec.Scheme == "gshare" {
			gshareBases = append(gshareBases, i)
		}
		ops = append(ops, o)
	}
	return ops
}
