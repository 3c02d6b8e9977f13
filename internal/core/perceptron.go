package core

import (
	"fmt"

	"bpred/internal/cacheline"
	"bpred/internal/trace"
)

// Perceptron is the Jimenez & Lin perceptron predictor ("Dynamic
// branch prediction with perceptrons"): a table of 2^colBits signed
// weight vectors, one selected by low PC bits, dotted with the last
// histLen global history outcomes (+1 taken, -1 not taken) plus a
// bias weight. The branch is predicted taken when the output is
// non-negative; training bumps each weight toward agreement whenever
// the prediction was wrong or the output magnitude was within the
// threshold.
//
// Aliasing is the classic kind — two branches sharing one weight
// vector — so the standard taxonomy applies, metered at the
// perceptron-table granularity.
type Perceptron struct {
	_ cacheline.Pad // ghr and the stash are written per branch

	name      string
	histLen   int
	colBits   int
	params    PerceptronParams
	wmin      int32
	wmax      int32
	threshold int64

	// weights holds 2^colBits vectors of histLen+1 weights each,
	// bias first.
	weights  []int32
	histMask uint64
	colMask  uint64
	ghr      uint64

	meter *AliasMeter

	// Per-branch stash, filled by Predict and consumed by Update.
	pBase int
	pSum  int64
	pred  bool

	_ cacheline.Pad
}

// NewPerceptron builds a perceptron predictor with histLen history
// bits and 2^colBits weight vectors. params is normalized (zero
// fields take their defaults).
func NewPerceptron(histLen, colBits int, params PerceptronParams, metered bool) *Perceptron {
	p := params.Normalized(histLen)
	checkBits("perceptron hist", histLen, 63)
	checkBits("perceptron col", colBits, 30)
	t := &Perceptron{
		name: fmt.Sprintf("perceptron-2^%dxh%d-w%d-t%d",
			colBits, histLen, p.WeightBits, p.Threshold),
		histLen:   histLen,
		colBits:   colBits,
		params:    p,
		wmin:      -(int32(1) << (p.WeightBits - 1)),
		wmax:      int32(1)<<(p.WeightBits-1) - 1,
		threshold: int64(p.Threshold),
		weights:   cacheline.Make[int32]((1 << colBits) * (histLen + 1)),
		histMask:  uint64(1)<<histLen - 1,
		colMask:   uint64(1)<<colBits - 1,
	}
	if metered {
		t.meter = NewAliasMeter(1 << colBits)
	}
	return t
}

// Predict computes the perceptron output for the branch. It must not
// examine b.Taken.
func (t *Perceptron) Predict(b trace.Branch) bool {
	idx := (b.PC >> 2) & t.colMask
	base := int(idx) * (t.histLen + 1)
	y := int64(t.weights[base])
	h := t.ghr
	for k := 0; k < t.histLen; k++ {
		w := int64(t.weights[base+1+k])
		if h&1 != 0 {
			y += w
		} else {
			y -= w
		}
		h >>= 1
	}
	t.pBase = base
	t.pSum = y
	t.pred = y >= 0
	return t.pred
}

// Update trains the selected weight vector and shifts history. It
// must follow the Predict for the same branch.
func (t *Perceptron) Update(b trace.Branch) {
	taken := b.Taken
	if t.meter != nil {
		idx := t.pBase / (t.histLen + 1)
		t.meter.Record(idx, b.PC, taken, t.ghr&t.histMask == t.histMask)
	}
	mag := t.pSum
	if mag < 0 {
		mag = -mag
	}
	if t.pred != taken || mag <= t.threshold {
		base := t.pBase
		w := t.weights[base]
		if taken {
			if w < t.wmax {
				t.weights[base] = w + 1
			}
		} else if w > t.wmin {
			t.weights[base] = w - 1
		}
		h := t.ghr
		for k := 0; k < t.histLen; k++ {
			w := t.weights[base+1+k]
			if (h&1 != 0) == taken {
				if w < t.wmax {
					t.weights[base+1+k] = w + 1
				}
			} else if w > t.wmin {
				t.weights[base+1+k] = w - 1
			}
			h >>= 1
		}
	}
	t.ghr = (t.ghr<<1 | b2taken(taken)) & t.histMask
}

// Name identifies the configuration.
func (t *Perceptron) Name() string { return t.name }

// Meter exposes the alias meter (nil when unmetered).
func (t *Perceptron) Meter() *AliasMeter { return t.meter }

// AliasStats reports weight-vector aliasing (zero when unmetered).
func (t *Perceptron) AliasStats() AliasStats {
	if t.meter == nil {
		return AliasStats{}
	}
	return t.meter.Stats()
}

// Kernel accessors: the batched kernel hoists the raw state and
// writes the history register back per chunk.

// Weights exposes the flat weight table (vectors of HistLen()+1
// weights, bias first).
func (t *Perceptron) Weights() []int32 { return t.weights }

// HistLen returns the history length H.
func (t *Perceptron) HistLen() int { return t.histLen }

// ColMask returns the perceptron-index mask.
func (t *Perceptron) ColMask() uint64 { return t.colMask }

// HistMask returns the history-register mask.
func (t *Perceptron) HistMask() uint64 { return t.histMask }

// Threshold returns the training threshold theta.
func (t *Perceptron) Threshold() int64 { return t.threshold }

// WeightRange returns the clamp bounds.
func (t *Perceptron) WeightRange() (min, max int32) { return t.wmin, t.wmax }

// Hist returns the current history-register value.
func (t *Perceptron) Hist() uint64 { return t.ghr }

// SetHist stores the history register (the kernel's chunk-end
// write-back; v must already be masked to HistMask).
func (t *Perceptron) SetHist(v uint64) { t.ghr = v & t.histMask }

var (
	_ Predictor     = (*Perceptron)(nil)
	_ AliasReporter = (*Perceptron)(nil)
)
