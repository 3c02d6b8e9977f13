package core

import (
	"fmt"

	"bpred/internal/cacheline"
	"bpred/internal/trace"
)

// McFarling is the concrete tournament predictor behind
// SchemeTournament: McFarling's "Combining Branch Predictors"
// arrangement of a gshare component (2^gBits counters indexed by
// history XOR PC), a bimodal component (2^bBits counters indexed by
// PC), and a chooser table (2^cBits counters indexed by PC) that
// arbitrates between them. All three tables hold two-bit counters
// initialized weakly taken; the chooser counts toward gshare when
// >= 2 and trains only on branches where the components disagree.
//
// (The generic Tournament combinator in combine.go composes arbitrary
// Predictors for experiments; this type is the monomorphic,
// kernel-friendly realization the sweep layers build.)
//
// Aliasing is metered on the gshare component — the history-indexed
// table where the paper's correlation-vs-aliasing tension lives.
type McFarling struct {
	_ cacheline.Pad // ghr and the stash are written per branch

	name  string
	gBits int
	bBits int
	cBits int

	gshare  []uint8
	bimodal []uint8
	chooser []uint8
	gMask   uint64
	bMask   uint64
	cMask   uint64
	ghr     uint64

	meter *AliasMeter

	// Per-branch stash, filled by Predict and consumed by Update.
	pG   uint64
	pB   uint64
	pC   uint64
	gp   bool
	bp   bool
	pred bool

	_ cacheline.Pad
}

// NewMcFarling builds a tournament predictor with 2^gBits gshare
// counters, 2^bBits bimodal counters, and a 2^cBits chooser.
func NewMcFarling(gBits, bBits, cBits int, metered bool) *McFarling {
	checkBits("tournament gshare", gBits, 30)
	checkBits("tournament bimodal", bBits, 30)
	checkBits("tournament chooser", cBits, 30)
	t := &McFarling{
		name:    fmt.Sprintf("tournament-g2^%d-b2^%d-c2^%d", gBits, bBits, cBits),
		gBits:   gBits,
		bBits:   bBits,
		cBits:   cBits,
		gshare:  cacheline.Make[uint8](1 << gBits),
		bimodal: cacheline.Make[uint8](1 << bBits),
		chooser: cacheline.Make[uint8](1 << cBits),
		gMask:   uint64(1)<<gBits - 1,
		bMask:   uint64(1)<<bBits - 1,
		cMask:   uint64(1)<<cBits - 1,
	}
	for i := range t.gshare {
		t.gshare[i] = 2
	}
	for i := range t.bimodal {
		t.bimodal[i] = 2
	}
	for i := range t.chooser {
		t.chooser[i] = 2
	}
	if metered {
		t.meter = NewAliasMeter(1 << gBits)
	}
	return t
}

// Predict consults the chooser to select between the gshare and
// bimodal components. It must not examine b.Taken.
func (t *McFarling) Predict(b trace.Branch) bool {
	word := b.PC >> 2
	t.pG = (t.ghr ^ word) & t.gMask
	t.pB = word & t.bMask
	t.pC = word & t.cMask
	t.gp = t.gshare[t.pG] >= 2
	t.bp = t.bimodal[t.pB] >= 2
	if t.chooser[t.pC] >= 2 {
		t.pred = t.gp
	} else {
		t.pred = t.bp
	}
	return t.pred
}

// Update trains both components every branch, the chooser on
// disagreements, and shifts history. It must follow the Predict for
// the same branch.
func (t *McFarling) Update(b trace.Branch) {
	taken := b.Taken
	if t.meter != nil {
		t.meter.Record(int(t.pG), b.PC, taken, t.ghr == t.gMask)
	}
	c := t.gshare[t.pG]
	if taken {
		if c < 3 {
			t.gshare[t.pG] = c + 1
		}
	} else if c > 0 {
		t.gshare[t.pG] = c - 1
	}
	c = t.bimodal[t.pB]
	if taken {
		if c < 3 {
			t.bimodal[t.pB] = c + 1
		}
	} else if c > 0 {
		t.bimodal[t.pB] = c - 1
	}
	if t.gp != t.bp {
		c = t.chooser[t.pC]
		if t.gp == taken {
			if c < 3 {
				t.chooser[t.pC] = c + 1
			}
		} else if c > 0 {
			t.chooser[t.pC] = c - 1
		}
	}
	t.ghr = (t.ghr<<1 | b2taken(taken)) & t.gMask
}

// Name identifies the configuration.
func (t *McFarling) Name() string { return t.name }

// Meter exposes the alias meter (nil when unmetered).
func (t *McFarling) Meter() *AliasMeter { return t.meter }

// AliasStats reports gshare-component aliasing (zero when unmetered).
func (t *McFarling) AliasStats() AliasStats {
	if t.meter == nil {
		return AliasStats{}
	}
	return t.meter.Stats()
}

var (
	_ Predictor     = (*McFarling)(nil)
	_ AliasReporter = (*McFarling)(nil)
)
