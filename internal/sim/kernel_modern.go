package sim

import (
	"bpred/internal/core"
	"bpred/internal/trace"
)

// The perceptron kernel (DESIGN.md §15): raw state hoisted into
// locals, the history value carried in a register across the chunk
// and written back at the end, and the bit-identity with the generic
// Predict/Update path enforced by kernel_test.go and the refmodel
// differential harness. TAGE and the tournament have no kernel of
// their own: measured against genericKernel, theirs lost, so kernelFor
// routes them to the generic loop. Unmetered TAGE geometries that
// share parameters fuse instead (fused.go).

// perceptronKernel is the SchemePerceptron fast path: the weight
// table, clamp bounds, and history register are hoisted; the dot
// product uses a sign multiplier instead of a per-weight branch.
//
//bpred:kernel
func perceptronKernel(t *core.Perceptron) kernelFunc {
	weights := t.Weights()
	hl := t.HistLen()
	stride := hl + 1
	colMask, histMask := t.ColMask(), t.HistMask()
	theta := t.Threshold()
	wmin, wmax := t.WeightRange()
	meter := t.Meter()
	return func(chunk []trace.Branch) uint64 {
		var miss uint64
		val := t.Hist()
		for i := range chunk {
			b := chunk[i]
			idx := int((b.PC >> 2) & colMask)
			base := idx * stride
			y := int64(weights[base])
			h := val
			for k := 0; k < hl; k++ {
				sign := int64(h&1)<<1 - 1
				y += sign * int64(weights[base+1+k])
				h >>= 1
			}
			pred := y >= 0
			if meter != nil {
				meter.Record(idx, b.PC, b.Taken, val == histMask)
			}
			mag := y
			if mag < 0 {
				mag = -mag
			}
			if pred != b.Taken || mag <= theta {
				trainPerceptron(weights[base:base+stride], val, b.Taken, wmin, wmax)
			}
			val = (val<<1 | uint64(b2u8(b.Taken))) & histMask
			miss += b2u64(pred != b.Taken)
		}
		t.SetHist(val)
		return miss
	}
}

// trainPerceptron applies the clamped weight update to one vector
// (bias first). Kept out of line, off the kernel loop's common
// path; the slice header is computed from an already-masked index.
//
//bpred:kernel
func trainPerceptron(vec []int32, hist uint64, taken bool, wmin, wmax int32) {
	w := vec[0]
	if taken {
		if w < wmax {
			vec[0] = w + 1
		}
	} else if w > wmin {
		vec[0] = w - 1
	}
	h := hist
	for k := 1; k < len(vec); k++ {
		w := vec[k]
		if (h&1 != 0) == taken {
			if w < wmax {
				vec[k] = w + 1
			}
		} else if w > wmin {
			vec[k] = w - 1
		}
		h >>= 1
	}
}
