// Package trace defines the branch-trace representation driving the
// simulator, a compact binary on-disk format, and the trace
// characterization statistics behind the paper's Tables 1 and 2
// (static/dynamic branch counts, hot-set coverage, bias profile).
//
// The paper drove its simulations with pixie-derived SPECint92 traces
// and hardware-monitored IBS-Ultrix traces of MIPS R2000 workstations.
// This package is the equivalent substrate: traces are sequences of
// conditional-branch records (program counter, target, outcome), and
// every simulator component consumes them through the same interfaces
// whether they come from the synthetic workload generator or a file.
package trace

import "math/bits"

// Branch is one dynamic conditional-branch instance.
type Branch struct {
	// PC is the branch instruction's address. Word-aligned, as on MIPS.
	PC uint64
	// Target is the taken-path target address. Nair's path-history
	// scheme consumes these bits.
	Target uint64
	// Taken is the resolved direction.
	Taken bool
}

// Trace is an in-memory branch trace with workload metadata.
type Trace struct {
	// Name identifies the workload (e.g. "espresso", "mpeg_play").
	Name string
	// Instructions is the total dynamic instruction count the branch
	// stream represents. Conditional branches are 10-25% of dynamic
	// instructions in the paper's workloads (Table 1), so the
	// generator records the implied total here as metadata.
	Instructions uint64
	// Branches is the dynamic branch sequence.
	Branches []Branch
}

// Source yields branches one at a time; it is how the simulator
// consumes traces without requiring them to be memory-resident.
type Source interface {
	// Next returns the next branch. ok is false when the source is
	// exhausted.
	Next() (b Branch, ok bool)
}

// BatchSource is a Source that can also yield branches in chunks,
// the granularity the simulator's fast path consumes. NextBatch
// returns the next chunk of at most len(buf) branches; the returned
// slice is only valid until the following NextBatch call. In-memory
// sources return direct windows into the trace (buf is untouched);
// streaming sources fill buf. An empty result means exhaustion.
// Mixing Next and NextBatch calls is allowed; both advance the same
// cursor.
type BatchSource interface {
	Source
	NextBatch(buf []Branch) []Branch
}

// sliceSource adapts an in-memory trace to Source.
type sliceSource struct {
	branches []Branch
	pos      int
}

// NewSource returns a BatchSource over the trace's branches whose
// batches are zero-copy windows into the trace.
func (t *Trace) NewSource() BatchSource {
	return &sliceSource{branches: t.Branches}
}

func (s *sliceSource) Next() (Branch, bool) {
	if s.pos >= len(s.branches) {
		return Branch{}, false
	}
	b := s.branches[s.pos]
	s.pos++
	return b, true
}

// NextBatch returns a direct window of at most len(buf) branches.
func (s *sliceSource) NextBatch(buf []Branch) []Branch {
	n := len(s.branches) - s.pos
	if n <= 0 || len(buf) == 0 {
		return nil
	}
	if n > len(buf) {
		n = len(buf)
	}
	w := s.branches[s.pos : s.pos+n]
	s.pos += n
	return w
}

// Len returns the dynamic branch count.
func (t *Trace) Len() int { return len(t.Branches) }

// Append adds a branch to the trace.
func (t *Trace) Append(b Branch) { t.Branches = append(t.Branches, b) }

// Slice returns a shallow sub-trace covering branches [lo, hi),
// sharing the underlying storage. Metadata is scaled proportionally.
func (t *Trace) Slice(lo, hi int) *Trace {
	sub := &Trace{Name: t.Name, Branches: t.Branches[lo:hi]}
	if t.Len() > 0 {
		// Scale through a 128-bit product: Instructions * (hi-lo) can
		// exceed 64 bits for realistic (multi-billion-instruction)
		// traces. The quotient fits because hi-lo <= Len.
		phi, plo := bits.Mul64(t.Instructions, uint64(hi-lo))
		sub.Instructions, _ = bits.Div64(phi, plo, uint64(t.Len()))
	}
	return sub
}
