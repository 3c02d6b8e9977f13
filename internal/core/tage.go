package core

import (
	"fmt"

	"bpred/internal/trace"
)

// TAGE is a tagged-geometric-history predictor (Seznec & Michaud,
// "A case for (partially) TAgged GEometric history length branch
// prediction"), scaled down to this engine's deterministic,
// allocation-free discipline:
//
//   - A bimodal base table of 2^colBits two-bit counters.
//   - tables partially-tagged tables of 2^rowBits entries, table i
//     indexed by a hash of the PC and the most recent
//     L_i = min(MaxHist, MinHist<<i) global history bits, MaxHist up
//     to MaxTAGEHist. Each entry holds a TagBits partial tag, a
//     three-bit signed-ish counter (taken when >= 4), a two-bit useful
//     counter, and a valid bit.
//   - The *provider* is the matching table with the longest history;
//     the *alternate* prediction comes from the next-longest match
//     (or the base table). On a mispredict, a new entry is allocated
//     in a longer-history table whose victim has useful == 0.
//
// Aliasing in a tagged table is not silent counter sharing but tag
// conflict: a branch can only disturb another's entry by evicting it
// at allocation. The meter therefore tracks, beyond the paper's
// taxonomy applied to provider entries, the tag-hit agree/disagree
// split, live-victim evictions, and provider-vs-altpred overrides.
//
// Index and tag hashes read per-table folded-history registers that
// Update advances in O(1) per branch (the circular-shift fold of
// Michaud's PPM-like predictor): each register holds the L_i most
// recent outcomes XOR-folded to its width, the newest bit entering at
// position 0 and the bit leaving the window cancelled at position
// L_i mod width. The outcomes themselves live in a bit ring long
// enough for MaxHist, so the leaving bit is one load away.
//
// The simulator drives TAGE through its generic Predict/Update loop,
// which measured faster than a dedicated batched kernel (DESIGN.md
// §15). Predict, Update, and the history push are annotated
// //bpred:kernel so kernelpure keeps their loops free of allocation
// and dynamic dispatch.
type TAGE struct {
	name    string
	rowBits int
	colBits int
	params  TAGEParams

	base []uint8 // two-bit counters, weakly taken at reset
	// Tagged-table state, flat: table i entry e at i<<rowBits|e. A
	// live entry's tag word is its tag|tageLive; an empty one is 0, so
	// one compare checks the valid bit and the tag together.
	tags []uint64
	ctrs []uint8 // three-bit counters
	us   []uint8 // two-bit useful counters

	idxMask  uint64
	colMask  uint64
	tagMask  uint64
	tag1Mask uint64 // width TagBits-1: the tag's second fold
	// ageLeft counts branches down to the next useful-bit halving.
	ageLeft uint64

	// Global history: a ring of the last tageRingBits outcomes, the
	// newest at head-1, and the run of consecutive taken outcomes
	// ending at the newest.
	ring [tageRingBits / 64]uint64
	head uint64
	ones uint64

	tabs [16]tageTable

	meter *AliasMeter

	// Per-branch stash, filled by Predict and consumed by Update.
	pCol         uint64
	provider     int
	alt          int
	providerPred bool
	altPred      bool
	basePred     bool
	pWeak        bool
	pred         bool

	// useAlt is the adaptive use-alt-on-newly-allocated confidence, a
	// 4-bit counter: >= 8 prefers the alternate prediction when the
	// provider entry is weak and not yet useful.
	useAlt uint8
}

// tageLive is the valid bit in a tag word, above any TagBits-wide tag.
const tageLive = 1 << 63

// tageRingBits is the history ring's length: a power of two, so ring
// positions wrap with a mask, and at least MaxTAGEHist (128 bytes per
// predictor).
const tageRingBits = 1024

// tageTable is one tagged table's history view plus its slice of the
// per-branch stash.
type tageTable struct {
	// fIdx, fTag and fTag1 are the last histLen outcomes folded to
	// rowBits, TagBits and TagBits-1 bits; outIdx, outTag and outTag1
	// are histLen mod each width, where a register cancels the bit
	// leaving its window.
	fIdx, fTag, fTag1       uint64
	histLen                 uint64
	outIdx, outTag, outTag1 uint8

	// Filled by Predict and consumed by Update.
	idx, tag uint64
	match    bool
}

// NewTAGE builds a TAGE predictor with 2^rowBits entries per tagged
// table and a 2^colBits bimodal base. params is normalized (zero
// fields take their defaults).
func NewTAGE(rowBits, colBits int, params TAGEParams, metered bool) *TAGE {
	p := params.Normalized()
	checkBits("tage row", rowBits, 30)
	checkBits("tage col", colBits, 30)
	checkBits("tage max history", p.MaxHist, MaxTAGEHist)
	n := p.Tables << rowBits
	t := &TAGE{
		name: fmt.Sprintf("tage-%dx2^%d-t%d-h%d:%d+2^%d",
			p.Tables, rowBits, p.TagBits, p.MinHist, p.MaxHist, colBits),
		rowBits:  rowBits,
		colBits:  colBits,
		params:   p,
		base:     make([]uint8, 1<<colBits),
		tags:     make([]uint64, n),
		ctrs:     make([]uint8, n),
		us:       make([]uint8, n),
		idxMask:  uint64(1)<<rowBits - 1,
		colMask:  uint64(1)<<colBits - 1,
		tagMask:  uint64(1)<<p.TagBits - 1,
		tag1Mask: uint64(1)<<(p.TagBits-1) - 1,
	}
	for i := range t.base {
		t.base[i] = 2
	}
	t.useAlt = 8 // start trusting the alternate for weak providers
	if p.UPeriod > 0 {
		t.ageLeft = uint64(p.UPeriod)
	}
	for i := 0; i < p.Tables; i++ {
		l := p.MinHist << i
		if l > p.MaxHist || l <= 0 {
			l = p.MaxHist
		}
		t.tabs[i] = tageTable{
			histLen: uint64(l),
			outIdx:  foldOutPos(l, rowBits),
			outTag:  foldOutPos(l, p.TagBits),
			outTag1: foldOutPos(l, p.TagBits-1),
		}
	}
	if metered {
		// One meter cell per tagged entry plus the base table, so
		// provider-entry conflicts and base-table conflicts share the
		// paper's taxonomy.
		t.meter = NewAliasMeter(n + 1<<colBits)
	}
	return t
}

// foldOutPos is where a width-bit folded register of an l-bit history
// cancels the bit leaving the window: bit age l lands at l mod width.
// A zero-width register is constantly 0, so any position serves.
func foldOutPos(l, width int) uint8 {
	if width <= 0 {
		return 0
	}
	return uint8(l % width)
}

// foldStep advances a width-bit folded register by one outcome: in
// enters at position 0, out (the bit now L outcomes old) is cancelled
// at pos = L mod width, and the bit shifted past the top wraps to
// position 0. mask is 2^width-1; every shift count is below 64.
func foldStep(f, in, out uint64, pos uint8, width uint, mask uint64) uint64 {
	f = f<<1 | in
	f ^= out << (pos & 63)
	f ^= f >> (width & 63)
	return f & mask
}

// Predict computes the tagged-table matches and the provider/altpred
// chain for the branch. It must not examine b.Taken.
//
//bpred:kernel
func (t *TAGE) Predict(b trace.Branch) bool {
	word := b.PC >> 2
	t.pCol = word & t.colMask
	t.basePred = t.base[t.pCol] >= 2
	t.provider, t.alt = -1, -1
	tabs := t.tabs[:t.params.Tables]
	for i := range tabs {
		e := &tabs[i]
		idx := (word ^ word>>uint(t.rowBits) ^ e.fIdx ^ uint64(i)) & t.idxMask
		// The tag folds the history at a second width (TagBits-1,
		// shifted) so it is never a function of the index — with one
		// shared fold width, tag would equal idx^i and every live
		// entry would match.
		tag := (word ^ word>>uint(t.params.TagBits) ^ e.fTag ^ e.fTag1<<1) & t.tagMask
		e.idx = idx
		e.tag = tag
		flat := uint64(i)<<t.rowBits | idx
		e.match = t.tags[flat] == tag|tageLive
		if e.match {
			t.alt = t.provider
			t.provider = i
		}
	}
	t.altPred = t.basePred
	if t.alt >= 0 {
		t.altPred = t.ctrs[uint64(t.alt)<<t.rowBits|t.tabs[t.alt].idx] >= 4
	}
	if t.provider >= 0 {
		flat := uint64(t.provider)<<t.rowBits | t.tabs[t.provider].idx
		c := t.ctrs[flat]
		t.providerPred = c >= 4
		// A weak, not-yet-useful provider is likely a fresh allocation;
		// whether its direction beats the alternate is learned in the
		// useAlt counter (Seznec's USE_ALT_ON_NA).
		t.pWeak = (c == 3 || c == 4) && t.us[flat] == 0
		if t.pWeak && t.useAlt >= 8 {
			t.pred = t.altPred
		} else {
			t.pred = t.providerPred
		}
	} else {
		t.providerPred = false
		t.pWeak = false
		t.pred = t.basePred
	}
	return t.pred
}

// Update trains the provider (or base), steers useful bits, allocates
// on mispredicts, ages useful counters, and shifts history. It must
// follow the Predict for the same branch.
//
//bpred:kernel
func (t *TAGE) Update(b trace.Branch) {
	taken := b.Taken
	if t.meter != nil {
		if t.provider >= 0 {
			flat := uint64(t.provider)<<t.rowBits | t.tabs[t.provider].idx
			// The provider's L-bit history is all ones exactly when
			// the taken run covers it.
			t.meter.Record(int(flat), b.PC, taken, t.ones >= t.tabs[t.provider].histLen)
		} else {
			t.meter.Record(t.params.Tables<<t.rowBits+int(t.pCol), b.PC, taken, false)
		}
		for i, e := range t.tabs[:t.params.Tables] {
			if e.match {
				hit := t.ctrs[uint64(i)<<t.rowBits|e.idx] >= 4
				t.meter.RecordTagHit(hit == taken)
			}
		}
		if t.provider >= 0 && t.providerPred != t.altPred {
			t.meter.RecordOverride(t.providerPred == taken)
		}
	}
	if t.provider >= 0 && t.pWeak && t.providerPred != t.altPred {
		if t.providerPred == taken {
			if t.useAlt > 0 {
				t.useAlt--
			}
		} else if t.useAlt < 15 {
			t.useAlt++
		}
	}
	if t.provider >= 0 {
		flat := uint64(t.provider)<<t.rowBits | t.tabs[t.provider].idx
		if t.providerPred != t.altPred {
			u := t.us[flat]
			if t.providerPred == taken {
				if u < 3 {
					t.us[flat] = u + 1
				}
			} else if u > 0 {
				t.us[flat] = u - 1
			}
		}
		c := t.ctrs[flat]
		if taken {
			if c < 7 {
				t.ctrs[flat] = c + 1
			}
		} else if c > 0 {
			t.ctrs[flat] = c - 1
		}
	} else {
		c := t.base[t.pCol]
		if taken {
			if c < 3 {
				t.base[t.pCol] = c + 1
			}
		} else if c > 0 {
			t.base[t.pCol] = c - 1
		}
	}
	if t.pred != taken {
		allocated := false
		for j := t.provider + 1; j < t.params.Tables; j++ {
			flat := uint64(j)<<t.rowBits | t.tabs[j].idx
			if t.us[flat] == 0 {
				if t.tags[flat] != 0 && t.meter != nil {
					t.meter.RecordVictim()
				}
				t.tags[flat] = t.tabs[j].tag | tageLive
				if taken {
					t.ctrs[flat] = 4
				} else {
					t.ctrs[flat] = 3
				}
				t.us[flat] = 0
				allocated = true
				break
			}
		}
		if !allocated {
			for j := t.provider + 1; j < t.params.Tables; j++ {
				flat := uint64(j)<<t.rowBits | t.tabs[j].idx
				if t.us[flat] > 0 {
					t.us[flat]--
				}
			}
		}
	}
	if t.ageLeft > 0 {
		t.ageLeft--
		if t.ageLeft == 0 {
			for i := range t.us {
				t.us[i] >>= 1
			}
			t.ageLeft = uint64(t.params.UPeriod)
		}
	}
	t.pushHistory(b2taken(taken))
}

// pushHistory shifts one outcome into every table's folded registers,
// the ring, and the taken run.
//
//bpred:kernel
func (t *TAGE) pushHistory(in uint64) {
	rowW, tagW, tag1W := uint(t.rowBits), uint(t.params.TagBits), uint(t.params.TagBits-1)
	tabs := t.tabs[:t.params.Tables]
	for i := range tabs {
		e := &tabs[i]
		// The bit leaving the window: age histLen-1 before this push,
		// histLen after it.
		q := (t.head - e.histLen) % tageRingBits
		out := t.ring[q/64] >> (q % 64) & 1
		e.fIdx = foldStep(e.fIdx, in, out, e.outIdx, rowW, t.idxMask)
		e.fTag = foldStep(e.fTag, in, out, e.outTag, tagW, t.tagMask)
		e.fTag1 = foldStep(e.fTag1, in, out, e.outTag1, tag1W, t.tag1Mask)
	}
	q := t.head % tageRingBits
	w := &t.ring[q/64]
	*w = *w&^(1<<(q%64)) | in<<(q%64)
	t.head++
	t.ones = (t.ones + 1) * in
}

// Access is the fused per-branch step — predict, then train — and
// returns the prediction made before training.
//
//bpred:kernel
func (t *TAGE) Access(b trace.Branch) bool {
	p := t.Predict(b)
	t.Update(b)
	return p
}

// Name identifies the configuration.
func (t *TAGE) Name() string { return t.name }

// Meter exposes the alias meter (nil when unmetered).
func (t *TAGE) Meter() *AliasMeter { return t.meter }

// AliasStats reports tag-conflict and provider aliasing (zero when
// unmetered).
func (t *TAGE) AliasStats() AliasStats {
	if t.meter == nil {
		return AliasStats{}
	}
	return t.meter.Stats()
}

// HistoryBits renders the MaxHist most recent outcomes, oldest first
// (the newest is the last character), for divergence reports.
func (t *TAGE) HistoryBits() string {
	n := t.params.MaxHist
	buf := make([]byte, n)
	for a := 0; a < n; a++ {
		q := (t.head - 1 - uint64(a)) % tageRingBits
		buf[n-1-a] = byte('0' + t.ring[q/64]>>(q%64)&1)
	}
	return string(buf)
}

// b2taken converts a direction to a history bit.
func b2taken(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

var (
	_ Predictor     = (*TAGE)(nil)
	_ AliasReporter = (*TAGE)(nil)
)
