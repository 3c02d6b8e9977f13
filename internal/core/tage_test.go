package core

import (
	"strings"
	"testing"

	"bpred/internal/rng"
	"bpred/internal/trace"
)

// foldHist XOR-folds the l most recent outcomes of hist (outcome age a
// at bit a%64 of hist[a/64]) into width bits, from scratch: chunk k
// holds ages [k*width, (k+1)*width), and the fold is the XOR of the
// chunks (0 when width is 0). It is the oracle for TAGE's
// incrementally advanced folded registers.
func foldHist(hist []uint64, l, width int) uint64 {
	if width <= 0 {
		return 0
	}
	var f uint64
	for lo := 0; lo < l; lo += width {
		var chunk uint64
		for a := lo; a < lo+width && a < l; a++ {
			chunk |= (hist[a/64] >> (a % 64) & 1) << (a - lo)
		}
		f ^= chunk
	}
	return f
}

// outcomeLog is the test's own record of a branch-outcome stream: a
// multiword shift register, newest outcome at bit 0 of word 0.
type outcomeLog []uint64

func (h outcomeLog) push(taken bool) {
	for i := len(h) - 1; i > 0; i-- {
		h[i] = h[i]<<1 | h[i-1]>>63
	}
	h[0] = h[0]<<1 | b2taken(taken)
}

// allTaken reports whether the l most recent outcomes were all taken.
func (h outcomeLog) allTaken(l int) bool {
	for a := 0; a < l; a++ {
		if h[a/64]>>(a%64)&1 == 0 {
			return false
		}
	}
	return true
}

// String renders the n most recent outcomes oldest first, the format
// of TAGE.HistoryBits.
func (h outcomeLog) String(n int) string {
	var sb strings.Builder
	for a := n - 1; a >= 0; a-- {
		sb.WriteByte(byte('0' + h[a/64]>>(a%64)&1))
	}
	return sb.String()
}

// TestTAGEFoldIdentity drives random outcome streams through TAGE and
// checks after every branch that each folded register equals a
// from-scratch fold of its table's history, and that the taken-run
// all-ones test agrees with the history itself.
func TestTAGEFoldIdentity(t *testing.T) {
	cases := []struct {
		name    string
		rowBits int
		p       TAGEParams
	}{
		// rowBits 0 is the r=0 split in every sweep tier: a
		// zero-width index fold.
		{"rows0", 0, TAGEParams{Tables: 4, MinHist: 4, MaxHist: 32, TagBits: 8}},
		// TagBits 1 makes the second tag fold zero-width.
		{"tag1", 5, TAGEParams{Tables: 3, MinHist: 3, MaxHist: 12, TagBits: 1, UPeriod: 16}},
		// L < w, L == w, and L not a multiple of w at every width.
		{"short-vs-width", 10, TAGEParams{Tables: 5, MinHist: 1, MaxHist: 11, TagBits: 10}},
		{"equal-width", 6, TAGEParams{Tables: 2, MinHist: 6, MaxHist: 12, TagBits: 7}},
		{"odd-lengths", 4, TAGEParams{Tables: 6, MinHist: 3, MaxHist: 77, TagBits: 5, UPeriod: -1}},
		// The old single-word cap, one past it, and the new cap.
		{"hist64", 7, TAGEParams{Tables: 4, MinHist: 8, MaxHist: 64, TagBits: 9, UPeriod: 3}},
		{"hist65", 3, TAGEParams{Tables: 5, MinHist: 5, MaxHist: 65, TagBits: 11}},
		{"hist640", 9, TAGEParams{Tables: 8, MinHist: 5, MaxHist: 640, TagBits: 12, UPeriod: -1}},
		{"hist640-one-table", 1, TAGEParams{Tables: 1, MinHist: 640, MaxHist: 640, TagBits: 2}},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tg := NewTAGE(tc.rowBits, 6, tc.p, true)
			p := tg.params
			var lens []int
			for i := 0; i < p.Tables; i++ {
				l := int(tg.hist.tabs[i].histLen)
				if want := min(p.MaxHist, p.MinHist<<i); l != want {
					t.Fatalf("table %d history length %d, want %d", i, l, want)
				}
				lens = append(lens, l)
			}
			hist := make(outcomeLog, (p.MaxHist+63)/64+1)
			r := rng.NewXoshiro256(uint64(ci) + 1)
			run := 0        // remaining forced-taken outcomes
			sawAllOnes := 0 // steps where the longest history was all taken
			for step := 0; step < 3000; step++ {
				// Taken runs, about half of them longer than MaxHist,
				// reach the all-ones pattern even for 640-outcome
				// histories; between runs a third of outcomes are taken.
				if run == 0 && r.Intn(300) == 0 {
					run = r.Intn(2*p.MaxHist + 40)
				}
				taken := run > 0 || r.Intn(3) == 0
				if run > 0 {
					run--
				}
				b := trace.Branch{PC: uint64(r.Intn(256)) << 2, Taken: taken}
				tg.Access(b)
				hist.push(taken)
				for i, l := range lens {
					h := &tg.hist
					e := h.tabs[i]
					checks := []struct {
						reg   string
						got   uint64
						width int
					}{
						{"index", e.fIdx, tc.rowBits},
						{"tag", e.fTag, p.TagBits},
						{"tag-1", e.fTag1, p.TagBits - 1},
					}
					for _, c := range checks {
						if want := foldHist(hist, l, c.width); c.got != want {
							t.Fatalf("step %d table %d (L=%d): %s fold at width %d = %#x, from scratch %#x",
								step, i, l, c.reg, c.width, c.got, want)
						}
					}
					if got, want := h.ones >= uint64(l), hist.allTaken(l); got != want {
						t.Fatalf("step %d table %d (L=%d): taken-run all-ones %t, history says %t",
							step, i, l, got, want)
					}
				}
				if hist.allTaken(lens[len(lens)-1]) {
					sawAllOnes++
				}
			}
			if sawAllOnes == 0 {
				t.Fatalf("the stream never filled the %d-outcome history with taken branches", lens[len(lens)-1])
			}
			if got, want := tg.HistoryBits(), hist.String(p.MaxHist); got != want {
				t.Fatalf("HistoryBits mismatch:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestTAGEHistorySharedWidths checks the identity the fused sweep
// executor rests on: one TAGEHistory with several index widths hashes,
// for every branch, exactly the tags and indices that lone predictors
// of each width compute for themselves.
func TestTAGEHistorySharedWidths(t *testing.T) {
	rows := []int{5, 0, 10, 1, 7}
	for ci, p := range []TAGEParams{
		{},
		{Tables: 8, MinHist: 5, MaxHist: 640, TagBits: 2, UPeriod: -1},
		{Tables: 3, MinHist: 3, MaxHist: 12, TagBits: 1, UPeriod: 16},
	} {
		shared := NewTAGEHistory(p, rows)
		lone := make([]*TAGE, len(rows))
		for k, r := range rows {
			lone[k] = NewTAGE(r, 4, p, false)
		}
		n := lone[0].params.Tables
		idx, tag := make([]uint32, n), make([]uint32, n)
		r := rng.NewXoshiro256(uint64(ci) + 7)
		for step := 0; step < 4000; step++ {
			b := trace.Branch{PC: uint64(r.Intn(4096)) << 2, Taken: r.Intn(3) != 0}
			word := b.PC >> 2
			for k, tg := range lone {
				tg.Predict(b)
				if k == 0 {
					shared.Hash(word, idx, tag)
				} else {
					shared.Indices(k, word, idx)
				}
				for i := 0; i < n; i++ {
					if idx[i] != tg.idx[i] || tag[i] != tg.tag[i] {
						t.Fatalf("params %d step %d width %d table %d: shared idx/tag %#x/%#x, lone %#x/%#x",
							ci, step, rows[k], i, idx[i], tag[i], tg.idx[i], tg.tag[i])
					}
				}
				tg.Update(b)
			}
			shared.Push(b.Taken)
		}
	}
}
