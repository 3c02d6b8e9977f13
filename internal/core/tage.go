package core

import (
	"fmt"

	"bpred/internal/cacheline"
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
// The predictor is two halves. The history half (TAGEHistory) turns
// the outcome stream into each table's index and tag for the next
// branch; the table half (tageTables) predicts and trains given those
// indices and tags. Predict and Update run both. The config-parallel
// sweep executor (internal/sim) runs one shared TAGEHistory for a
// whole sweep and steps each geometry's table half through Step, so
// both paths execute the same table code.
//
// The simulator drives a lone TAGE through the generic Predict/Update
// loop: a dedicated per-config kernel wrapped around Access measured
// slower than that loop (DESIGN.md §15). Predict, Update, the table
// step and the history push are annotated //bpred:kernel so
// kernelpure keeps their loops free of allocation and dynamic
// dispatch.
type TAGE struct {
	_ cacheline.Pad

	tab  tageTables
	hist TAGEHistory
	// This branch's per-table indices and tags, filled by Predict.
	idx, tag [16]uint32

	name    string
	rowBits int
	colBits int
	params  TAGEParams
	meter   *AliasMeter

	_ cacheline.Pad
}

// tageLive is the valid bit in a tag word, above any TagBits-wide tag.
const tageLive = 1 << 31

// tageRingBits is the history ring's length: a power of two, so ring
// positions wrap with a mask, and at least MaxTAGEHist (128 bytes per
// predictor).
const tageRingBits = 1024

// tageTables is TAGE's table half: the bimodal base, the tagged
// tables, the use-alt and aging state, and the stash predict leaves
// for update. It never sees the history, only the per-table indices
// and tags its caller hashed from it.
type tageTables struct {
	rowBits uint
	colMask uint64
	uPeriod uint64 // branches between useful-bit halvings; 0 never ages

	base []uint8 // two-bit counters, weakly taken at reset
	// Tagged-table state, flat: table i entry e at i<<rowBits|e. A
	// live entry's tag word is its tag|tageLive; an empty one is 0, so
	// one compare checks the valid bit and the tag together.
	tags []uint32
	ctrs []uint8 // three-bit counters
	us   []uint8 // two-bit useful counters

	// ageLeft counts branches down to the next useful-bit halving.
	ageLeft uint64
	// useAlt is the adaptive use-alt-on-newly-allocated confidence, a
	// 4-bit counter: >= 8 prefers the alternate prediction when the
	// provider entry is weak and not yet useful.
	useAlt uint8

	// Per-branch stash, filled by predict and consumed by update.
	pCol         uint64
	provider     int
	matches      uint16 // bit i set: table i's entry tag-matched
	providerPred bool
	altPred      bool
	pWeak        bool
	pred         bool
	victim       bool // update's allocation evicted a live entry
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
		rowBits: rowBits,
		colBits: colBits,
		params:  p,
	}
	t.tab = tageTables{
		rowBits: uint(rowBits),
		colMask: uint64(1)<<colBits - 1,
		uPeriod: uint64(max(p.UPeriod, 0)),
		base:    cacheline.Make[uint8](1 << colBits),
		tags:    cacheline.Make[uint32](n),
		ctrs:    cacheline.Make[uint8](n),
		us:      cacheline.Make[uint8](n),
		ageLeft: uint64(max(p.UPeriod, 0)),
		useAlt:  8, // start trusting the alternate for weak providers
	}
	for i := range t.tab.base {
		t.tab.base[i] = 2
	}
	t.hist.init(p, []int{rowBits})
	if metered {
		// One meter cell per tagged entry plus the base table, so
		// provider-entry conflicts and base-table conflicts share the
		// paper's taxonomy.
		t.meter = NewAliasMeter(n + 1<<colBits)
	}
	return t
}

// Predict hashes the branch's per-table indices and tags from the
// history, then finds the tagged-table matches and the provider/altpred
// chain. It must not examine b.Taken.
//
//bpred:kernel
func (t *TAGE) Predict(b trace.Branch) bool {
	word := b.PC >> 2
	idx, tag := t.idx[:t.params.Tables], t.tag[:t.params.Tables]
	t.hist.Hash(word, idx, tag)
	return t.tab.predict(word, idx, tag)
}

// Update meters the access, trains the tables, and shifts history. It
// must follow the Predict for the same branch.
//
//bpred:kernel
func (t *TAGE) Update(b trace.Branch) {
	taken := b.Taken
	idx, tag := t.idx[:t.params.Tables], t.tag[:t.params.Tables]
	if t.meter != nil {
		t.record(b, idx)
	}
	t.tab.update(idx, tag, taken)
	if t.meter != nil && t.tab.victim {
		t.meter.RecordVictim()
	}
	t.hist.Push(taken)
}

// record meters one access before training: the paper's taxonomy on
// the provider entry (or the base counter), the agree/disagree split
// of every tag hit, and the provider-vs-altpred override outcome.
func (t *TAGE) record(b trace.Branch, idx []uint32) {
	s := &t.tab
	taken := b.Taken
	if s.provider >= 0 {
		flat := uint64(s.provider)<<s.rowBits | uint64(idx[s.provider])
		// The provider's L-bit history is all ones exactly when the
		// taken run covers it.
		t.meter.Record(int(flat), b.PC, taken, t.hist.ones >= t.hist.tabs[s.provider].histLen)
	} else {
		t.meter.Record(t.params.Tables<<t.rowBits+int(s.pCol), b.PC, taken, false)
	}
	for i := range idx {
		if s.matches>>i&1 != 0 {
			hit := s.ctrs[uint64(i)<<s.rowBits|uint64(idx[i])] >= 4
			t.meter.RecordTagHit(hit == taken)
		}
	}
	if s.provider >= 0 && s.providerPred != s.altPred {
		t.meter.RecordOverride(s.providerPred == taken)
	}
}

// Step is the table half alone — predict, then train — over per-table
// indices and tags that a shared TAGEHistory hashed for this
// predictor's RowBits and TAGEParams; word is the branch PC >> 2. It
// returns the prediction made before training. Step neither meters nor
// advances the predictor's own history, so it serves unmetered
// predictors whose history lives elsewhere: the config-parallel sweep
// executor (internal/sim).
//
//bpred:kernel
func (t *TAGE) Step(word uint64, idx, tag []uint32, taken bool) bool {
	pred := t.tab.predict(word, idx, tag)
	t.tab.update(idx, tag, taken)
	return pred
}

// predict computes the tagged-table matches and the provider/altpred
// chain from the branch's per-table indices and tags (one per table).
//
//bpred:kernel
func (s *tageTables) predict(word uint64, idx, tag []uint32) bool {
	s.pCol = word & s.colMask
	basePred := s.base[s.pCol] >= 2
	provider, alt := -1, -1
	var matches uint16
	tag = tag[:len(idx)]
	for i := range idx {
		if s.tags[uint64(i)<<s.rowBits|uint64(idx[i])] == tag[i]|tageLive {
			matches |= 1 << i
			alt = provider
			provider = i
		}
	}
	s.provider, s.matches = provider, matches
	altPred := basePred
	if alt >= 0 {
		altPred = s.ctrs[uint64(alt)<<s.rowBits|uint64(idx[alt])] >= 4
	}
	s.altPred = altPred
	if provider >= 0 {
		flat := uint64(provider)<<s.rowBits | uint64(idx[provider])
		c := s.ctrs[flat]
		s.providerPred = c >= 4
		// A weak, not-yet-useful provider is likely a fresh allocation;
		// whether its direction beats the alternate is learned in the
		// useAlt counter (Seznec's USE_ALT_ON_NA).
		s.pWeak = (c == 3 || c == 4) && s.us[flat] == 0
		if s.pWeak && s.useAlt >= 8 {
			s.pred = altPred
		} else {
			s.pred = s.providerPred
		}
	} else {
		s.providerPred = false
		s.pWeak = false
		s.pred = basePred
	}
	return s.pred
}

// update trains the provider (or base), steers useful bits, allocates
// on mispredicts, and ages useful counters. It must follow the predict
// for the same branch, with the same indices and tags.
//
//bpred:kernel
func (s *tageTables) update(idx, tag []uint32, taken bool) {
	provider := s.provider
	if provider >= 0 && s.pWeak && s.providerPred != s.altPred {
		if s.providerPred == taken {
			if s.useAlt > 0 {
				s.useAlt--
			}
		} else if s.useAlt < 15 {
			s.useAlt++
		}
	}
	if provider >= 0 {
		flat := uint64(provider)<<s.rowBits | uint64(idx[provider])
		if s.providerPred != s.altPred {
			u := s.us[flat]
			if s.providerPred == taken {
				if u < 3 {
					s.us[flat] = u + 1
				}
			} else if u > 0 {
				s.us[flat] = u - 1
			}
		}
		c := s.ctrs[flat]
		if taken {
			if c < 7 {
				s.ctrs[flat] = c + 1
			}
		} else if c > 0 {
			s.ctrs[flat] = c - 1
		}
	} else {
		c := s.base[s.pCol]
		if taken {
			if c < 3 {
				s.base[s.pCol] = c + 1
			}
		} else if c > 0 {
			s.base[s.pCol] = c - 1
		}
	}
	s.victim = false
	if s.pred != taken {
		tag = tag[:len(idx)]
		allocated := false
		for j := provider + 1; j < len(idx); j++ {
			flat := uint64(j)<<s.rowBits | uint64(idx[j])
			if s.us[flat] == 0 {
				s.victim = s.tags[flat] != 0
				s.tags[flat] = tag[j] | tageLive
				if taken {
					s.ctrs[flat] = 4
				} else {
					s.ctrs[flat] = 3
				}
				allocated = true
				break
			}
		}
		if !allocated {
			for j := provider + 1; j < len(idx); j++ {
				flat := uint64(j)<<s.rowBits | uint64(idx[j])
				if s.us[flat] > 0 {
					s.us[flat]--
				}
			}
		}
	}
	if s.ageLeft > 0 {
		s.ageLeft--
		if s.ageLeft == 0 {
			for i := range s.us {
				s.us[i] >>= 1
			}
			s.ageLeft = s.uPeriod
		}
	}
}

// TAGEHistory is TAGE's history half: a ring of the last tageRingBits
// outcomes, the run of taken outcomes ending at the newest, and each
// table's history folded to the tag widths and to one or more index
// widths. Index and tag hashes read the folded registers, which Push
// advances in O(1) per branch (the circular-shift fold of Michaud's
// PPM-like predictor): each register holds the L_i most recent
// outcomes XOR-folded to its width, the newest bit entering at
// position 0 and the bit leaving the window cancelled at position
// L_i mod width. The ring keeps the leaving bit one load away.
//
// The tags depend only on TAGEParams, and the indices only on
// TAGEParams and RowBits, so geometries differing in RowBits/ColBits
// share one history: a TAGE predictor owns a TAGEHistory with its one
// index width, and the fused sweep executor runs one for a whole
// sweep, with an index width per distinct RowBits. The first index
// width lives beside the tag folds in each table's entry, so the
// single-width history of a lone predictor advances in one pass.
type TAGEHistory struct {
	_ cacheline.Pad

	ring [tageRingBits / 64]uint64
	head uint64 // the next ring position; the newest outcome is at head-1
	ones uint64 // consecutive taken outcomes ending at the newest

	tables                     int
	idxW, tagW, tag1W          uint
	idxMask, tagMask, tag1Mask uint64
	tabs                       [16]tageHistTable
	// more holds the folds for index widths after the first.
	more []tageFold

	_ cacheline.Pad
}

// tageHistTable is one table's history view.
type tageHistTable struct {
	// fIdx, fTag and fTag1 are the last histLen outcomes folded to the
	// first index width, TagBits and TagBits-1 bits; outIdx, outTag
	// and outTag1 are histLen mod each width, where a register cancels
	// the bit leaving its window.
	fIdx, fTag, fTag1       uint64
	histLen                 uint64
	outIdx, outTag, outTag1 uint8
}

// tageFold is one further index width's folded registers, one per
// table.
type tageFold struct {
	f     [16]uint64
	out   [16]uint8 // histLen mod width, per table
	width uint
	mask  uint64
}

// NewTAGEHistory returns a cleared history for TAGE predictors with
// params (normalized here), keeping index folds for each row width in
// rowBits (at least one): Hash computes the indices for rowBits[0]
// along with the tags, and Indices(k, ...) those for rowBits[k].
func NewTAGEHistory(params TAGEParams, rowBits []int) *TAGEHistory {
	p := params.Normalized()
	checkBits("tage max history", p.MaxHist, MaxTAGEHist)
	h := new(TAGEHistory)
	h.init(p, rowBits)
	return h
}

// init sets up a cleared history for normalized params p.
func (h *TAGEHistory) init(p TAGEParams, rowBits []int) {
	if len(rowBits) == 0 {
		panic("core: TAGEHistory needs at least one index width")
	}
	for _, r := range rowBits {
		checkBits("tage row", r, 30)
	}
	h.tables = p.Tables
	h.idxW, h.tagW, h.tag1W = uint(rowBits[0]), uint(p.TagBits), uint(p.TagBits-1)
	h.idxMask = uint64(1)<<rowBits[0] - 1
	h.tagMask = uint64(1)<<p.TagBits - 1
	h.tag1Mask = uint64(1)<<(p.TagBits-1) - 1
	if len(rowBits) > 1 {
		h.more = cacheline.Make[tageFold](len(rowBits) - 1)
	}
	for k, r := range rowBits[1:] {
		h.more[k].width = uint(r)
		h.more[k].mask = uint64(1)<<r - 1
	}
	for i := 0; i < p.Tables; i++ {
		l := p.MinHist << i
		if l > p.MaxHist || l <= 0 {
			l = p.MaxHist
		}
		h.tabs[i] = tageHistTable{
			histLen: uint64(l),
			outIdx:  foldOutPos(l, rowBits[0]),
			outTag:  foldOutPos(l, p.TagBits),
			outTag1: foldOutPos(l, p.TagBits-1),
		}
		for k, r := range rowBits[1:] {
			h.more[k].out[i] = foldOutPos(l, r)
		}
	}
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

// Hash writes each table's index at the first row width and its
// partial tag, for the branch at word (its PC >> 2), to idx and tag,
// one per table. The tag folds the history at a second width
// (TagBits-1, shifted) so it is never a function of the index — with
// one shared fold width, tag would equal idx^i and every live entry
// would match.
//
//bpred:kernel
func (h *TAGEHistory) Hash(word uint64, idx, tag []uint32) {
	wi := word ^ word>>h.idxW
	wt := word ^ word>>h.tagW
	idxMask, tagMask := h.idxMask, h.tagMask
	tabs := h.tabs[:h.tables]
	idx, tag = idx[:len(tabs)], tag[:len(tabs)]
	for i := range tabs {
		e := &tabs[i]
		idx[i] = uint32((wi ^ e.fIdx ^ uint64(i)) & idxMask)
		tag[i] = uint32((wt ^ e.fTag ^ e.fTag1<<1) & tagMask)
	}
}

// Indices writes each table's index at the k-th row width (k >= 1;
// Hash covers the first) for the branch at word to idx, one per table.
//
//bpred:kernel
func (h *TAGEHistory) Indices(k int, word uint64, idx []uint32) {
	b := &h.more[k-1]
	w := word ^ word>>b.width
	idx = idx[:h.tables]
	for i := range idx {
		idx[i] = uint32((w ^ b.f[i] ^ uint64(i)) & b.mask)
	}
}

// pushMore advances the folds of the index widths after the first;
// Push calls it before the ring moves.
//
//bpred:kernel
func (h *TAGEHistory) pushMore(in uint64) {
	more := h.more
	tabs := h.tabs[:h.tables]
	for i := range tabs {
		q := (h.head - tabs[i].histLen) % tageRingBits
		out := h.ring[q/64] >> (q % 64) & 1
		for k := range more {
			b := &more[k]
			b.f[i] = foldStep(b.f[i], in, out, b.out[i], b.width, b.mask)
		}
	}
}

// Push shifts one outcome into every folded register, the ring, and
// the taken run.
//
//bpred:kernel
func (h *TAGEHistory) Push(taken bool) {
	in := b2taken(taken)
	rowW, tagW, tag1W := h.idxW, h.tagW, h.tag1W
	tabs := h.tabs[:h.tables]
	for i := range tabs {
		e := &tabs[i]
		// The bit leaving the window: age histLen-1 before this push,
		// histLen after it.
		q := (h.head - e.histLen) % tageRingBits
		out := h.ring[q/64] >> (q % 64) & 1
		e.fIdx = foldStep(e.fIdx, in, out, e.outIdx, rowW, h.idxMask)
		e.fTag = foldStep(e.fTag, in, out, e.outTag, tagW, h.tagMask)
		e.fTag1 = foldStep(e.fTag1, in, out, e.outTag1, tag1W, h.tag1Mask)
	}
	if len(h.more) > 0 {
		h.pushMore(in)
	}
	q := h.head % tageRingBits
	w := &h.ring[q/64]
	*w = *w&^(1<<(q%64)) | in<<(q%64)
	h.head++
	h.ones = (h.ones + 1) * in
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

// RowBits returns log2 of the entries per tagged table.
func (t *TAGE) RowBits() int { return t.rowBits }

// Params returns the normalized TAGE parameters.
func (t *TAGE) Params() TAGEParams { return t.params }

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
	h := &t.hist
	buf := make([]byte, n)
	for a := 0; a < n; a++ {
		q := (h.head - 1 - uint64(a)) % tageRingBits
		buf[n-1-a] = byte('0' + h.ring[q/64]>>(q%64)&1)
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
