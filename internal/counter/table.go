package counter

import (
	"fmt"

	"bpred/internal/cacheline"
)

// Table is a dense 2^rows x 2^cols array of k-bit saturating counters
// — the second-level structure of Figure 1 in the paper (two-bit by
// default, the paper's machine). Rows are selected by the first-level
// mechanism (history); columns by low branch-address bits. The
// representation is one byte per counter; even the largest
// configuration studied in the paper (2^15 counters) occupies only
// 32 KiB, so packing density is traded for branch-free access on the
// simulation fast path. The counters have their cache lines to
// themselves (cacheline.Make), so tables simulated on different cores
// never share a line.
type Table struct {
	rowBits int
	colBits int
	rowMask uint64
	colMask uint64
	max     uint8 // saturation ceiling: 2^counterBits - 1
	thresh  uint8 // predict taken when state >= thresh
	init    uint8 // weakly-taken initial state
	state   []uint8
}

// NewTable returns a table with 2^rowBits rows and 2^colBits columns
// of two-bit counters initialized to weakly taken. It panics on
// negative sizes or on total sizes above 2^30 counters.
func NewTable(rowBits, colBits int) *Table {
	return NewTableBits(rowBits, colBits, 2)
}

// NewTableBits returns a table of counterBits-wide saturating
// counters (1..8), initialized to the weakly-taken state. One-bit
// counters are last-outcome predictors; wider counters add
// hysteresis, which is what lets a strongly-biased branch shrug off
// occasional aliasing hits.
func NewTableBits(rowBits, colBits, counterBits int) *Table {
	if rowBits < 0 || colBits < 0 {
		panic(fmt.Sprintf("counter: NewTableBits(%d, %d, %d) with negative bits", rowBits, colBits, counterBits))
	}
	if counterBits < 1 || counterBits > 8 {
		panic(fmt.Sprintf("counter: NewTableBits counter width %d out of [1,8]", counterBits))
	}
	total := rowBits + colBits
	if total > 30 {
		panic(fmt.Sprintf("counter: NewTableBits(%d, %d, %d) exceeds 2^30 counters", rowBits, colBits, counterBits))
	}
	max := uint8(1<<counterBits - 1)
	thresh := uint8(1 << (counterBits - 1))
	t := &Table{
		rowBits: rowBits,
		colBits: colBits,
		rowMask: (1 << rowBits) - 1,
		colMask: (1 << colBits) - 1,
		max:     max,
		thresh:  thresh,
		init:    thresh, // weakly taken
		state:   cacheline.Make[uint8](1 << total),
	}
	for i := range t.state {
		t.state[i] = t.init
	}
	return t
}

// RowBits returns log2 of the row count.
func (t *Table) RowBits() int { return t.rowBits }

// ColBits returns log2 of the column count.
func (t *Table) ColBits() int { return t.colBits }

// Rows returns the number of rows.
func (t *Table) Rows() int { return 1 << t.rowBits }

// Cols returns the number of columns.
func (t *Table) Cols() int { return 1 << t.colBits }

// Size returns the total number of counters.
func (t *Table) Size() int { return len(t.state) }

// Index computes the flat entry index for a (row, column) pair. Both
// inputs are masked to table bounds, mirroring hardware truncation of
// history and address bits.
func (t *Table) Index(row, col uint64) int {
	return int((row&t.rowMask)<<t.colBits | col&t.colMask)
}

// RowMask returns the row-index mask (Rows()-1).
func (t *Table) RowMask() uint64 { return t.rowMask }

// ColMask returns the column-index mask (Cols()-1).
func (t *Table) ColMask() uint64 { return t.colMask }

// Raw exposes the backing counter array and saturation parameters for
// the batched simulation kernels (bpred/internal/sim), which hoist
// them into loop-local registers — Go's alias analysis cannot prove a
// counter store leaves *Table fields intact, so going through the
// methods would reload every field on every branch. An entry predicts
// taken when state >= thresh; training saturates at [0, max].
// Mutating the returned slice bypasses Reset bookkeeping; only the
// kernels should use this.
func (t *Table) Raw() (state []uint8, max, thresh uint8) {
	return t.state, t.max, t.thresh
}

// CounterBits returns the counter width.
func (t *Table) CounterBits() int {
	bits := 0
	for 1<<bits-1 < int(t.max) {
		bits++
	}
	return bits
}

// Predict returns the prediction of entry idx (true = taken).
func (t *Table) Predict(idx int) bool { return t.state[idx] >= t.thresh }

// Update trains entry idx with the outcome. The saturating step is
// branchless (compare results become 0/1 masks) so the simulation hot
// loop carries no data-dependent branches of its own.
func (t *Table) Update(idx int, taken bool) {
	s := t.state[idx]
	up := b2u8(taken)
	s += up & b2u8(s < t.max)
	s -= (1 - up) & b2u8(s > 0)
	t.state[idx] = s
}

// Access is the fused predict-then-train step used by the batched
// simulation kernels: one load serves both the prediction read and the
// branchless saturating update. It is bit-identical to Predict
// followed by Update.
func (t *Table) Access(idx int, taken bool) bool {
	s := t.state[idx]
	up := b2u8(taken)
	n := s + up&b2u8(s < t.max)
	n -= (1 - up) & b2u8(s > 0)
	t.state[idx] = n
	return s >= t.thresh
}

// b2u8 converts a bool to 0/1; the compiler lowers it to a flag move,
// not a branch.
func b2u8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// State returns the raw counter state of entry idx.
func (t *Table) State(idx int) uint8 { return t.state[idx] }

// Reset restores every counter to weakly taken.
func (t *Table) Reset() {
	for i := range t.state {
		t.state[i] = t.init
	}
}
