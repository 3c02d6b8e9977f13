package refmodel

import (
	"strings"

	"bpred/internal/trace"
)

// Reference implementations of the modern schemes (DESIGN.md §15),
// kept in this package's deliberately different style: sparse maps
// instead of dense arrays, modular arithmetic instead of masks, plain
// ints instead of clamped machine words. Each step follows the same
// documented order as the production predictor — predict, meter,
// train, allocate, age, shift — because that order is part of the
// specification, but every index, tag, and counter is computed
// through independent code.

// tageEntry is one live tagged-table entry. Presence in the table map
// is the entry's valid bit.
type tageEntry struct {
	tag    uint64
	ctr    int // 0..7, predicts taken at >= 4
	useful int // 0..3
}

// tageState is the TAGE reference state.
type tageState struct {
	base   map[uint64]int         // base-table counter, absent = 2
	tab    []map[uint64]tageEntry // per tagged table: index -> entry
	hist   []int                  // the last MaxHist outcomes (0 or 1), newest first
	tick   uint64                 // update counter driving aging
	useAlt int                    // 0..15; >= 8 prefers altpred for weak providers
}

func newTAGEState(cfg Config) *tageState {
	s := &tageState{base: make(map[uint64]int), hist: make([]int, cfg.TAGEMaxHist), useAlt: 8}
	for i := 0; i < cfg.TAGETables; i++ {
		s.tab = append(s.tab, make(map[uint64]tageEntry))
	}
	return s
}

// tageHistLen returns table i's history length: the geometric series
// min(MaxHist, MinHist*2^i).
func (m *Model) tageHistLen(i int) int {
	l := m.cfg.TAGEMinHist
	for j := 0; j < i; j++ {
		l *= 2
		if l >= m.cfg.TAGEMaxHist {
			return m.cfg.TAGEMaxHist
		}
	}
	if l > m.cfg.TAGEMaxHist {
		l = m.cfg.TAGEMaxHist
	}
	return l
}

// foldMod XOR-folds the history value h = sum hist[a]*2^a into the
// range [0, modulus) by repeated division — the from-scratch
// reference counterpart of the engine's incrementally folded
// registers. The history is a digit list, so "h % modulus" is the
// value of the next log2(modulus) digits and "h /= modulus" moves
// past them; modulus must be a power of two.
func foldMod(hist []int, modulus uint64) uint64 {
	if modulus <= 1 {
		return 0
	}
	var f, digit uint64
	place := uint64(1)
	for _, bit := range hist {
		digit += uint64(bit) * place
		place *= 2
		if place == modulus {
			f ^= digit
			digit, place = 0, 1
		}
	}
	return f ^ digit
}

// allTaken reports whether every outcome in hist was taken.
func allTaken(hist []int) bool {
	for _, bit := range hist {
		if bit != 1 {
			return false
		}
	}
	return true
}

// histString renders hist oldest first, so the newest outcome is the
// last character.
func histString(hist []int) string {
	var sb strings.Builder
	for a := len(hist) - 1; a >= 0; a-- {
		sb.WriteByte(byte('0' + hist[a]))
	}
	return sb.String()
}

// histValue packs hist (at most 64 outcomes) into a word, newest in
// bit 0.
func histValue(hist []int) uint64 {
	var v uint64
	for a := len(hist) - 1; a >= 0; a-- {
		v = v*2 + uint64(hist[a])
	}
	return v
}

// stepTAGE is the TAGE reference step.
func (m *Model) stepTAGE(b trace.Branch) StepInfo {
	m.tot.Steps++
	s := m.tage
	w := word(b.PC)
	nt := m.cfg.TAGETables
	rowsN := uint64(1) << m.cfg.HistBits
	colsN := uint64(1) << m.cfg.ColBits
	tagN := uint64(1) << m.cfg.TAGETagBits

	colIdx := w % colsN
	baseCtr, haveBase := s.base[colIdx]
	if !haveBase {
		baseCtr = 2
	}
	basePred := baseCtr >= 2

	// Tagged lookups: every table probes (the meter needs the full
	// match set); the provider is the longest-history match, the
	// alternate the next one down.
	idxs := make([]uint64, nt)
	tags := make([]uint64, nt)
	match := make([]bool, nt)
	provider, alt := -1, -1
	for i := 0; i < nt; i++ {
		h := s.hist[:m.tageHistLen(i)]
		idxs[i] = (w ^ w/rowsN ^ foldMod(h, rowsN) ^ uint64(i)) % rowsN
		// The tag folds the history a second time at half the modulus
		// (doubled back in) so it is never a function of the index.
		tags[i] = (w ^ w/tagN ^ foldMod(h, tagN) ^ foldMod(h, tagN/2)*2) % tagN
		e, live := s.tab[i][idxs[i]]
		if live && e.tag == tags[i] {
			match[i] = true
			alt = provider
			provider = i
		}
	}
	altPred := basePred
	if alt >= 0 {
		altPred = s.tab[alt][idxs[alt]].ctr >= 4
	}
	providerPred := false
	pWeak := false
	pred := basePred
	ctrBefore := baseCtr
	if provider >= 0 {
		e := s.tab[provider][idxs[provider]]
		ctrBefore = e.ctr
		providerPred = ctrBefore >= 4
		// A weak, not-yet-useful provider is likely freshly allocated;
		// the useAlt confidence counter decides whether the alternate
		// prediction beats it (Seznec's USE_ALT_ON_NA).
		pWeak = (e.ctr == 3 || e.ctr == 4) && e.useful == 0
		if pWeak && s.useAlt >= 8 {
			pred = altPred
		} else {
			pred = providerPred
		}
	}

	s.tick++

	// Meter the deciding entry under the paper's taxonomy, then the
	// tagged-table extensions.
	var mc cell
	allOnes := false
	if provider >= 0 {
		mc = cell{uint64(provider), idxs[provider]}
		allOnes = allTaken(s.hist[:m.tageHistLen(provider)])
	} else {
		mc = cell{uint64(nt), colIdx}
	}
	m.tot.Accesses++
	if prev, seen := m.last[mc]; seen && prev.pc != b.PC {
		m.tot.Conflicts++
		if allOnes {
			m.tot.AllOnes++
		}
		if prev.taken == b.Taken {
			m.tot.Agreeing++
		} else {
			m.tot.Destructive++
		}
	}
	m.last[mc] = access{pc: b.PC, taken: b.Taken}
	for i := 0; i < nt; i++ {
		if match[i] {
			if (s.tab[i][idxs[i]].ctr >= 4) == b.Taken {
				m.tot.TagAgree++
			} else {
				m.tot.TagDisagree++
			}
		}
	}
	if provider >= 0 && providerPred != altPred {
		m.tot.Overrides++
		if providerPred == b.Taken {
			m.tot.OverrideCorrect++
		}
	}

	// Steer useAlt: on a weak-provider override, learn which side of
	// the provider/alternate disagreement to trust next time.
	if provider >= 0 && pWeak && providerPred != altPred {
		if providerPred == b.Taken {
			if s.useAlt > 0 {
				s.useAlt--
			}
		} else if s.useAlt < 15 {
			s.useAlt++
		}
	}

	// Train: useful steering on override, then the deciding counter.
	if provider >= 0 {
		e := s.tab[provider][idxs[provider]]
		if providerPred != altPred {
			if providerPred == b.Taken {
				if e.useful < 3 {
					e.useful++
				}
			} else if e.useful > 0 {
				e.useful--
			}
		}
		if b.Taken {
			if e.ctr < 7 {
				e.ctr++
			}
		} else if e.ctr > 0 {
			e.ctr--
		}
		s.tab[provider][idxs[provider]] = e
	} else {
		if b.Taken {
			if baseCtr < 3 {
				baseCtr++
			}
		} else if baseCtr > 0 {
			baseCtr--
		}
		s.base[colIdx] = baseCtr
	}

	// Allocate on a mispredict: the first longer-history table whose
	// slot has useful == 0 takes a fresh entry (a live victim is a
	// tag-conflict eviction); when none qualifies, decay every
	// longer-history candidate's useful counter instead.
	if pred != b.Taken {
		allocated := false
		for j := provider + 1; j < nt; j++ {
			e, live := s.tab[j][idxs[j]]
			if !live || e.useful == 0 {
				if live {
					m.tot.UsefulVictims++
				}
				ctr := 3
				if b.Taken {
					ctr = 4
				}
				s.tab[j][idxs[j]] = tageEntry{tag: tags[j], ctr: ctr, useful: 0}
				allocated = true
				break
			}
		}
		if !allocated {
			for j := provider + 1; j < nt; j++ {
				if e, live := s.tab[j][idxs[j]]; live && e.useful > 0 {
					e.useful--
					s.tab[j][idxs[j]] = e
				}
			}
		}
	}

	// Age: halve every useful counter each aging period.
	if m.cfg.TAGEUPeriod > 0 && s.tick%uint64(m.cfg.TAGEUPeriod) == 0 {
		for i := range s.tab {
			for k, e := range s.tab[i] {
				e.useful /= 2
				s.tab[i][k] = e
			}
		}
	}

	info := StepInfo{
		Predicted:     pred,
		Row:           mc.row,
		Col:           mc.col,
		Pattern:       histValue(s.hist[:min(len(s.hist), 64)]),
		AllOnes:       allOnes,
		CounterBefore: ctrBefore,
	}
	outcome := 0
	if b.Taken {
		outcome = 1
	}
	copy(s.hist[1:], s.hist)
	s.hist[0] = outcome

	if pred != b.Taken {
		m.tot.Mispredicts++
	}
	return info
}

// percState is the perceptron reference state.
type percState struct {
	w   map[uint64][]int // weight vector per perceptron, bias first
	ghr uint64           // outcome history, newest in bit 0
}

func newPercState() *percState { return &percState{w: make(map[uint64][]int)} }

// stepPerceptron is the perceptron reference step.
func (m *Model) stepPerceptron(b trace.Branch) StepInfo {
	m.tot.Steps++
	s := m.perc
	hl := m.cfg.HistBits
	colsN := uint64(1) << m.cfg.ColBits
	histN := uint64(1) << hl
	wmax := 1<<(m.cfg.WeightBits-1) - 1
	wmin := -(1 << (m.cfg.WeightBits - 1))

	idx := word(b.PC) % colsN
	vec, ok := s.w[idx]
	if !ok {
		vec = make([]int, hl+1)
		s.w[idx] = vec
	}
	y := vec[0]
	h := s.ghr
	for k := 0; k < hl; k++ {
		if h%2 == 1 {
			y += vec[1+k]
		} else {
			y -= vec[1+k]
		}
		h /= 2
	}
	pred := y >= 0

	// Meter at the weight-vector granularity.
	m.tot.Accesses++
	mc := cell{0, idx}
	allOnes := s.ghr == histN-1
	if prev, seen := m.last[mc]; seen && prev.pc != b.PC {
		m.tot.Conflicts++
		if allOnes {
			m.tot.AllOnes++
		}
		if prev.taken == b.Taken {
			m.tot.Agreeing++
		} else {
			m.tot.Destructive++
		}
	}
	m.last[mc] = access{pc: b.PC, taken: b.Taken}

	// Train on mispredicts and low-confidence outputs.
	mag := y
	if mag < 0 {
		mag = -mag
	}
	if pred != b.Taken || mag <= m.cfg.Threshold {
		if b.Taken {
			if vec[0] < wmax {
				vec[0]++
			}
		} else if vec[0] > wmin {
			vec[0]--
		}
		h = s.ghr
		for k := 0; k < hl; k++ {
			if (h%2 == 1) == b.Taken {
				if vec[1+k] < wmax {
					vec[1+k]++
				}
			} else if vec[1+k] > wmin {
				vec[1+k]--
			}
			h /= 2
		}
	}

	outcome := uint64(0)
	if b.Taken {
		outcome = 1
	}
	s.ghr = (s.ghr*2 + outcome) % histN

	if pred != b.Taken {
		m.tot.Mispredicts++
	}
	return StepInfo{
		Predicted:     pred,
		Row:           0,
		Col:           idx,
		Pattern:       s.ghr,
		AllOnes:       allOnes,
		CounterBefore: y,
	}
}

// tournState is the tournament reference state. Counters absent from
// a map hold the weakly-taken reset value 2.
type tournState struct {
	gshare map[uint64]int
	bim    map[uint64]int
	choose map[uint64]int
	ghr    uint64
}

func newTournState() *tournState {
	return &tournState{
		gshare: make(map[uint64]int),
		bim:    make(map[uint64]int),
		choose: make(map[uint64]int),
	}
}

// ctrAt reads a two-bit counter map with the weakly-taken default.
func ctrAt(t map[uint64]int, i uint64) int {
	if c, ok := t[i]; ok {
		return c
	}
	return 2
}

// train2 steps a two-bit counter map entry toward the outcome.
func train2(t map[uint64]int, i uint64, up bool) {
	c := ctrAt(t, i)
	if up {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	t[i] = c
}

// stepTournament is the McFarling tournament reference step.
func (m *Model) stepTournament(b trace.Branch) StepInfo {
	m.tot.Steps++
	s := m.tourn
	w := word(b.PC)
	gN := uint64(1) << m.cfg.HistBits
	bN := uint64(1) << m.cfg.ColBits
	cN := uint64(1) << m.cfg.ChooserBits

	gi := (s.ghr ^ w) % gN
	bi := w % bN
	ci := w % cN
	gp := ctrAt(s.gshare, gi) >= 2
	bp := ctrAt(s.bim, bi) >= 2
	pred := bp
	if ctrAt(s.choose, ci) >= 2 {
		pred = gp
	}

	// Meter the gshare component, where history aliasing lives.
	m.tot.Accesses++
	mc := cell{0, gi}
	allOnes := s.ghr == gN-1
	if prev, seen := m.last[mc]; seen && prev.pc != b.PC {
		m.tot.Conflicts++
		if allOnes {
			m.tot.AllOnes++
		}
		if prev.taken == b.Taken {
			m.tot.Agreeing++
		} else {
			m.tot.Destructive++
		}
	}
	m.last[mc] = access{pc: b.PC, taken: b.Taken}

	train2(s.gshare, gi, b.Taken)
	train2(s.bim, bi, b.Taken)
	if gp != bp {
		train2(s.choose, ci, gp == b.Taken)
	}

	outcome := uint64(0)
	if b.Taken {
		outcome = 1
	}
	s.ghr = (s.ghr*2 + outcome) % gN

	if pred != b.Taken {
		m.tot.Mispredicts++
	}
	return StepInfo{
		Predicted:     pred,
		Row:           0,
		Col:           gi,
		Pattern:       s.ghr,
		AllOnes:       allOnes,
		CounterBefore: ctrAt(s.gshare, gi),
	}
}
