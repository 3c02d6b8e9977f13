// Package refmodel is a deliberately slow, obviously-correct
// reference implementation of every prediction scheme in the paper's
// Figure-1 model, written straight from the paper text. It shares no
// code with the production predictor (internal/core), the history
// structures (internal/history), or the simulation engine
// (internal/sim): tables are maps instead of dense arrays, arithmetic
// is modular instead of masked, counters are plain ints instead of
// branchless uint8 updates, and history registers are maintained with
// explicit multiply/mod steps instead of shift/mask. The only shared
// type is trace.Branch, the data being predicted.
//
// The package exists to be the independent side of a differential
// test: internal/refmodel/diff replays traces through the batched
// simulation kernels and through this model in lockstep and demands
// bit-identical mispredict counts, aliasing statistics, and
// first-level miss rates. A bug shared between internal/sim's generic
// loop and its kernels passes the in-package equivalence tests
// silently; it cannot pass against this model unless the same mistake
// was made twice from independent sources.
//
// Fidelity notes, straight from the paper:
//
//   - Figure 1: a first-level mechanism selects a ROW of a table of
//     two-bit saturating counters; low branch-address bits select the
//     COLUMN. Counters start weakly taken and predict taken when at
//     or above the midpoint.
//   - §3: an access whose counter was previously touched by a
//     different static branch is an aliasing CONFLICT, "analogous to
//     the conflicts in a direct mapped cache". Conflicts under an
//     all-taken history pattern are classified all-ones (tight-loop,
//     "mostly harmless"); conflicts where the two branches' outcomes
//     agree are harmless, disagreeing ones destructive.
//   - §5: a finite per-address history table is tagged and
//     set-associative with LRU replacement; a conflict (re)initializes
//     the history register to "the appropriate length prefix of the
//     pattern 0xC3FF".
package refmodel

import (
	"fmt"
	"sort"
	"strings"

	"bpred/internal/trace"
)

// Scheme enumerates the reference model's predictor families.
type Scheme int

// The families, named as the paper names them.
const (
	// Bimodal is the address-indexed baseline: one row, columns by
	// branch address.
	Bimodal Scheme = iota
	// Global is GAg/GAs: rows selected by a single global outcome
	// history register.
	Global
	// GShare is McFarling's scheme: rows selected by global history
	// XOR the address bits above column selection.
	GShare
	// Path is Nair's scheme: rows selected by a register of recent
	// branch-target address bits.
	Path
	// PerAddress is PAg/PAs: rows selected by the branch's own
	// outcome history, stored in a first-level table.
	PerAddress
	// TAGE is the tagged-geometric-history predictor: a bimodal base
	// plus TAGETables partially-tagged tables (modern.go).
	TAGE
	// Perceptron is the Jimenez & Lin perceptron predictor
	// (modern.go).
	Perceptron
	// Tournament is McFarling's gshare/bimodal/chooser combination
	// (modern.go).
	Tournament
)

// FirstLevelKind selects the PerAddress first-level realization.
type FirstLevelKind int

// The first-level models.
const (
	// Perfect is the unbounded idealized table: every branch owns a
	// register, conflicts never occur.
	Perfect FirstLevelKind = iota
	// Tagged is the finite tagged set-associative table with LRU
	// replacement and conflict reset (paper §5).
	Tagged
	// Untagged is the tagless table: branches indexing the same entry
	// silently share a register.
	Untagged
)

// ResetKind selects what a Tagged table stores into a register
// (re)allocated after a conflict.
type ResetKind int

// The reset policies (the paper uses ResetPrefix).
const (
	// ResetPrefix initializes to the width-length prefix of 0xC3FF.
	ResetPrefix ResetKind = iota
	// ResetZeros initializes to all not-taken.
	ResetZeros
	// ResetOnes initializes to all taken.
	ResetOnes
	// ResetInherit keeps the evicted branch's history.
	ResetInherit
)

// Config describes one reference predictor. HistBits is the
// row-selection width: the global/path/per-address history register
// width and log2 of the table's row count. ColBits is log2 of the
// column count.
type Config struct {
	Scheme   Scheme
	HistBits int
	ColBits  int
	// PathBits is the target-address bits recorded per event (Path
	// only; must be >= 1 for Path configs).
	PathBits int
	// CounterBits is the second-level counter width; 0 means the
	// paper's two-bit counters.
	CounterBits int
	// FirstLevel, Entries, Ways, Reset configure the PerAddress first
	// level. Entries/Ways apply to Tagged (Ways ignored for Untagged).
	FirstLevel FirstLevelKind
	Entries    int
	Ways       int
	Reset      ResetKind
	// TAGETables..TAGEUPeriod configure the TAGE scheme, for which
	// HistBits is log2 entries per tagged table and ColBits is log2
	// base-table entries. All values are explicit (no zero-value
	// defaulting here — the production side normalizes before
	// mapping). TAGEUPeriod <= 0 disables useful-bit aging.
	TAGETables  int
	TAGEMinHist int
	TAGEMaxHist int
	TAGETagBits int
	TAGEUPeriod int
	// WeightBits/Threshold configure the Perceptron scheme, for which
	// HistBits is the history length and ColBits is log2 the number
	// of weight vectors.
	WeightBits int
	Threshold  int
	// ChooserBits configures the Tournament chooser table (HistBits
	// is the gshare width, ColBits the bimodal width).
	ChooserBits int
}

// cell identifies one second-level counter by its (row, column)
// coordinates — deliberately not a flattened index, so the reference
// model cannot share an index-arithmetic bug with the dense table.
type cell struct {
	row, col uint64
}

// access is the meter's last-toucher record for one counter.
type access struct {
	pc    uint64
	taken bool
}

// flEntry is one Tagged first-level entry.
type flEntry struct {
	tag   uint64
	hist  uint64
	stamp uint64 // lookup tick of last touch; larger = more recent
}

// Totals are the model's cumulative event counts. All counts include
// every stepped branch (warmup scoring is the caller's concern, as it
// is for the engine's meters).
type Totals struct {
	// Steps is the number of branches stepped through the model.
	Steps uint64
	// Mispredicts counts wrong predictions over all steps.
	Mispredicts uint64
	// Accesses..Destructive mirror the paper's §3 aliasing taxonomy.
	Accesses    uint64
	Conflicts   uint64
	AllOnes     uint64
	Agreeing    uint64
	Destructive uint64
	// FirstLevelLookups/Misses count per-address first-level table
	// activity (zero for non-PerAddress schemes).
	FirstLevelLookups uint64
	FirstLevelMisses  uint64
	// TagAgree..OverrideCorrect extend the taxonomy to tagged tables
	// (TAGE): agreeing/disagreeing tag hits, live entries evicted at
	// allocation, and provider-over-altpred overrides with their
	// correct subset. Zero for every other scheme.
	TagAgree        uint64
	TagDisagree     uint64
	UsefulVictims   uint64
	Overrides       uint64
	OverrideCorrect uint64
}

// FirstLevelMissRate returns misses per lookup, 0 when no lookups
// occurred — the same quotient the engine reports.
func (t Totals) FirstLevelMissRate() float64 {
	if t.FirstLevelLookups == 0 {
		return 0
	}
	return float64(t.FirstLevelMisses) / float64(t.FirstLevelLookups)
}

// StepInfo reports what one Step did, for lockstep comparison and
// divergence reports.
type StepInfo struct {
	// Predicted is the model's prediction for the branch.
	Predicted bool
	// Row and Col are the selected table coordinates.
	Row, Col uint64
	// Pattern is the raw row-selection pattern before row reduction
	// (the history register or looked-up first-level register). A
	// TAGE history longer than 64 outcomes does not fit: Pattern
	// holds its newest 64, and DumpState prints all of it.
	Pattern uint64
	// AllOnes reports whether the selecting outcome history was the
	// all-taken pattern.
	AllOnes bool
	// CounterBefore is the counter state read for the prediction.
	CounterBefore int
}

// Model is one reference predictor instance. Create with New; drive
// with Step, one call per branch in trace order.
type Model struct {
	cfg    Config
	rows   uint64 // 2^HistBits
	cols   uint64 // 2^ColBits
	cmax   int    // counter ceiling
	cmid   int    // predict-taken threshold and initial state
	ghist  uint64 // Global/GShare outcome history, always < rows
	phist  uint64 // Path target-bit history, always < rows
	perf   map[uint64]uint64
	sets   [][]flEntry
	shared []uint64
	tick   uint64
	ctr    map[cell]int
	last   map[cell]access
	tot    Totals
	// Modern-scheme sub-states (modern.go); exactly one is non-nil
	// for the corresponding scheme.
	tage  *tageState
	perc  *percState
	tourn *tournState
}

// New validates cfg and returns a fresh model.
func New(cfg Config) (*Model, error) {
	if cfg.HistBits < 0 || cfg.HistBits > 32 {
		return nil, fmt.Errorf("refmodel: HistBits %d out of [0,32]", cfg.HistBits)
	}
	if cfg.ColBits < 0 || cfg.HistBits+cfg.ColBits > 30 {
		return nil, fmt.Errorf("refmodel: table bits %d+%d out of range", cfg.HistBits, cfg.ColBits)
	}
	cb := cfg.CounterBits
	if cb == 0 {
		cb = 2
	}
	if cb < 1 || cb > 8 {
		return nil, fmt.Errorf("refmodel: CounterBits %d out of [1,8]", cfg.CounterBits)
	}
	m := &Model{
		cfg:  cfg,
		rows: uint64(1) << cfg.HistBits,
		cols: uint64(1) << cfg.ColBits,
		cmax: (1 << cb) - 1,
		cmid: 1 << (cb - 1),
		ctr:  make(map[cell]int),
		last: make(map[cell]access),
	}
	switch cfg.Scheme {
	case Bimodal, Global, GShare:
	case Path:
		if cfg.PathBits < 1 || cfg.PathBits > 32 {
			return nil, fmt.Errorf("refmodel: Path needs PathBits in [1,32], got %d", cfg.PathBits)
		}
	case PerAddress:
		switch cfg.FirstLevel {
		case Perfect:
			m.perf = make(map[uint64]uint64)
		case Tagged:
			if cfg.Ways < 1 || cfg.Entries < 1 || cfg.Entries%cfg.Ways != 0 {
				return nil, fmt.Errorf("refmodel: bad tagged first level %d/%d", cfg.Entries, cfg.Ways)
			}
			nsets := cfg.Entries / cfg.Ways
			if !powerOfTwo(nsets) {
				return nil, fmt.Errorf("refmodel: tagged set count %d not a power of two", nsets)
			}
			m.sets = make([][]flEntry, nsets)
		case Untagged:
			if cfg.Entries < 1 || !powerOfTwo(cfg.Entries) {
				return nil, fmt.Errorf("refmodel: untagged entries %d not a power of two", cfg.Entries)
			}
			m.shared = make([]uint64, cfg.Entries)
		default:
			return nil, fmt.Errorf("refmodel: unknown first-level kind %d", cfg.FirstLevel)
		}
	case TAGE:
		if cfg.CounterBits != 0 {
			return nil, fmt.Errorf("refmodel: TAGE counter widths are fixed, got CounterBits %d", cfg.CounterBits)
		}
		if cfg.TAGETables < 1 || cfg.TAGETables > 16 {
			return nil, fmt.Errorf("refmodel: TAGE tables %d out of [1,16]", cfg.TAGETables)
		}
		if cfg.TAGEMinHist < 1 || cfg.TAGEMinHist > cfg.TAGEMaxHist || cfg.TAGEMaxHist > 640 {
			return nil, fmt.Errorf("refmodel: TAGE history lengths %d..%d invalid (need 1 <= min <= max <= 640)",
				cfg.TAGEMinHist, cfg.TAGEMaxHist)
		}
		if cfg.TAGETagBits < 1 || cfg.TAGETagBits > 16 {
			return nil, fmt.Errorf("refmodel: TAGE tag bits %d out of [1,16]", cfg.TAGETagBits)
		}
		m.tage = newTAGEState(cfg)
	case Perceptron:
		if cfg.CounterBits != 0 {
			return nil, fmt.Errorf("refmodel: perceptron counter widths are fixed, got CounterBits %d", cfg.CounterBits)
		}
		if cfg.WeightBits < 2 || cfg.WeightBits > 16 {
			return nil, fmt.Errorf("refmodel: perceptron weight bits %d out of [2,16]", cfg.WeightBits)
		}
		if cfg.Threshold < 0 {
			return nil, fmt.Errorf("refmodel: perceptron threshold %d negative", cfg.Threshold)
		}
		m.perc = newPercState()
	case Tournament:
		if cfg.CounterBits != 0 {
			return nil, fmt.Errorf("refmodel: tournament counter widths are fixed, got CounterBits %d", cfg.CounterBits)
		}
		if cfg.ChooserBits < 0 || cfg.ChooserBits > 30 {
			return nil, fmt.Errorf("refmodel: tournament chooser bits %d out of [0,30]", cfg.ChooserBits)
		}
		m.tourn = newTournState()
	default:
		return nil, fmt.Errorf("refmodel: unknown scheme %d", cfg.Scheme)
	}
	return m, nil
}

func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// word returns the branch address in instruction words, the unit all
// address-derived indices use (MIPS branches are word aligned).
func word(pc uint64) uint64 { return pc / 4 }

// Step predicts and trains one branch, in the strict
// predict-meter-train-record order of the Figure-1 model, and returns
// what happened.
func (m *Model) Step(b trace.Branch) StepInfo {
	switch m.cfg.Scheme {
	case TAGE:
		return m.stepTAGE(b)
	case Perceptron:
		return m.stepPerceptron(b)
	case Tournament:
		return m.stepTournament(b)
	}
	m.tot.Steps++

	// First level: produce the row-selection pattern.
	pattern, allOnes := m.selectPattern(b.PC)
	row := pattern % m.rows
	col := word(b.PC) % m.cols
	c := cell{row, col}

	// Second level: read the counter (absent = weakly taken).
	state, ok := m.ctr[c]
	if !ok {
		state = m.cmid
	}
	predicted := state >= m.cmid

	// Meter the access (paper §3): a conflict is an access whose
	// counter was last touched by a different static branch.
	m.tot.Accesses++
	if prev, seen := m.last[c]; seen && prev.pc != b.PC {
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
	m.last[c] = access{pc: b.PC, taken: b.Taken}

	// Train the counter toward the outcome, saturating.
	if b.Taken {
		if state < m.cmax {
			state++
		}
	} else if state > 0 {
		state--
	}
	m.ctr[c] = state

	// Record the outcome into the first level.
	m.recordHistory(b)

	if predicted != b.Taken {
		m.tot.Mispredicts++
	}
	return StepInfo{
		Predicted:     predicted,
		Row:           row,
		Col:           col,
		Pattern:       pattern,
		AllOnes:       allOnes,
		CounterBefore: state,
	}
}

// selectPattern produces the first-level pattern for pc and whether
// the selecting outcome history was all taken. For Tagged tables this
// is the access that may allocate, evict, and reset an entry.
func (m *Model) selectPattern(pc uint64) (pattern uint64, allOnes bool) {
	ones := m.rows - 1 // the all-taken pattern for this width
	switch m.cfg.Scheme {
	case Bimodal:
		return 0, false
	case Global:
		return m.ghist, m.ghist == ones
	case GShare:
		// XOR the history with the address bits *above* column
		// selection; all-ones classification follows the history
		// register, not the XORed row.
		addr := word(pc) >> m.cfg.ColBits
		return (m.ghist ^ addr) % m.rows, m.ghist == ones
	case Path:
		// Path history is not an outcome pattern; all-ones never
		// applies.
		return m.phist, false
	case PerAddress:
		p := m.lookupFirstLevel(pc)
		return p, p == ones
	}
	panic("refmodel: unreachable scheme")
}

// lookupFirstLevel returns pc's history register content, counting
// the lookup and, for Tagged tables, handling allocation, LRU
// eviction, and conflict reset exactly as the paper describes.
func (m *Model) lookupFirstLevel(pc uint64) uint64 {
	m.tot.FirstLevelLookups++
	switch m.cfg.FirstLevel {
	case Perfect:
		return m.perf[pc] // unseen branches hold empty history
	case Untagged:
		return m.shared[word(pc)%uint64(len(m.shared))]
	case Tagged:
		m.tick++
		nsets := uint64(len(m.sets))
		set := word(pc) % nsets
		tag := word(pc) / nsets
		entries := m.sets[set]
		for i := range entries {
			if entries[i].tag == tag {
				entries[i].stamp = m.tick
				return entries[i].hist
			}
		}
		// Miss: allocate, evicting the least recently used entry if
		// the set is full; the (re)initialized register holds the
		// reset value (InheritStale inherits the victim's history; a
		// never-used slot inherits an empty register).
		m.tot.FirstLevelMisses++
		old := uint64(0)
		if len(entries) < m.cfg.Ways {
			entries = append(entries, flEntry{})
			m.sets[set] = entries
		} else {
			lru := 0
			for i := 1; i < len(entries); i++ {
				if entries[i].stamp < entries[lru].stamp {
					lru = i
				}
			}
			old = entries[lru].hist
			entries = append(entries[:lru], entries[lru+1:]...)
			entries = append(entries, flEntry{})
			m.sets[set] = entries
		}
		e := &m.sets[set][len(m.sets[set])-1]
		e.tag = tag
		e.stamp = m.tick
		e.hist = m.resetValue(old)
		return e.hist
	}
	panic("refmodel: unreachable first-level kind")
}

// resetValue computes the post-conflict register initialization for
// the configured policy at the configured width.
func (m *Model) resetValue(old uint64) uint64 {
	w := m.cfg.HistBits
	switch m.cfg.Reset {
	case ResetPrefix:
		return PrefixOf0xC3FF(w)
	case ResetZeros:
		return 0
	case ResetOnes:
		return m.rows - 1
	case ResetInherit:
		return old % m.rows
	}
	panic("refmodel: unreachable reset kind")
}

// PrefixOf0xC3FF returns the width-bits value whose bits, read most
// significant first, are the bits of the 16-bit pattern 0xC3FF read
// most significant first, repeating for widths beyond 16 — "the
// appropriate length prefix of the pattern 0xC3FF" (paper §5).
func PrefixOf0xC3FF(width int) uint64 {
	const pattern = 0xC3FF
	var v uint64
	for j := 0; j < width; j++ {
		bit := (pattern >> (15 - j%16)) & 1
		v = v*2 + uint64(bit)
	}
	return v
}

// recordHistory shifts the resolved branch into the first level.
func (m *Model) recordHistory(b trace.Branch) {
	outcome := uint64(0)
	if b.Taken {
		outcome = 1
	}
	switch m.cfg.Scheme {
	case Bimodal:
		// No history state.
	case Global, GShare:
		m.ghist = (m.ghist*2 + outcome) % m.rows
	case Path:
		// Record bits of the next-instruction address: the target
		// when taken, the fall-through otherwise.
		next := b.PC + 4
		if b.Taken {
			next = b.Target
		}
		perEvent := uint64(1) << m.cfg.PathBits
		m.phist = (m.phist*perEvent + word(next)%perEvent) % m.rows
	case PerAddress:
		switch m.cfg.FirstLevel {
		case Perfect:
			m.perf[b.PC] = (m.perf[b.PC]*2 + outcome) % m.rows
		case Untagged:
			i := word(b.PC) % uint64(len(m.shared))
			m.shared[i] = (m.shared[i]*2 + outcome) % m.rows
		case Tagged:
			// Only a resident (tag-matching) entry is written; the
			// lookup in this same Step guarantees residency, but the
			// guard models hardware that only writes matched ways.
			nsets := uint64(len(m.sets))
			set := word(b.PC) % nsets
			tag := word(b.PC) / nsets
			for i := range m.sets[set] {
				if m.sets[set][i].tag == tag {
					m.sets[set][i].hist = (m.sets[set][i].hist*2 + outcome) % m.rows
					return
				}
			}
		}
	}
}

// Totals returns the cumulative counts.
func (m *Model) Totals() Totals { return m.tot }

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// Name renders a short scheme description for reports.
func (m *Model) Name() string {
	switch m.cfg.Scheme {
	case Bimodal:
		return fmt.Sprintf("ref-bimodal-2^%d", m.cfg.ColBits)
	case Global:
		return fmt.Sprintf("ref-global-2^%dx2^%d", m.cfg.HistBits, m.cfg.ColBits)
	case GShare:
		return fmt.Sprintf("ref-gshare-2^%dx2^%d", m.cfg.HistBits, m.cfg.ColBits)
	case Path:
		return fmt.Sprintf("ref-path%d-2^%dx2^%d", m.cfg.PathBits, m.cfg.HistBits, m.cfg.ColBits)
	case PerAddress:
		fl := "inf"
		switch m.cfg.FirstLevel {
		case Tagged:
			fl = fmt.Sprintf("%d/%dw", m.cfg.Entries, m.cfg.Ways)
		case Untagged:
			fl = fmt.Sprintf("%du", m.cfg.Entries)
		}
		return fmt.Sprintf("ref-PAs(%s)-2^%dx2^%d", fl, m.cfg.HistBits, m.cfg.ColBits)
	case TAGE:
		return fmt.Sprintf("ref-tage-%dx2^%d-t%d-h%d:%d+2^%d",
			m.cfg.TAGETables, m.cfg.HistBits, m.cfg.TAGETagBits,
			m.cfg.TAGEMinHist, m.cfg.TAGEMaxHist, m.cfg.ColBits)
	case Perceptron:
		return fmt.Sprintf("ref-perceptron-2^%dxh%d-w%d-t%d",
			m.cfg.ColBits, m.cfg.HistBits, m.cfg.WeightBits, m.cfg.Threshold)
	case Tournament:
		return fmt.Sprintf("ref-tournament-g2^%d-b2^%d-c2^%d",
			m.cfg.HistBits, m.cfg.ColBits, m.cfg.ChooserBits)
	}
	return "ref-unknown"
}

// DumpState renders the model's full predictor state for divergence
// reports: history registers, first-level contents, and every counter
// not in its initial state. Output is capped at maxEntries counter
// lines to keep reports readable on large tables.
func (m *Model) DumpState(maxEntries int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s after %d steps\n", m.Name(), m.tot.Steps)
	switch m.cfg.Scheme {
	case Global, GShare:
		fmt.Fprintf(&sb, "  global history: %0*b\n", m.cfg.HistBits, m.ghist)
	case Path:
		fmt.Fprintf(&sb, "  path history: %0*b\n", m.cfg.HistBits, m.phist)
	case PerAddress:
		switch m.cfg.FirstLevel {
		case Perfect:
			fmt.Fprintf(&sb, "  first level: perfect, %d branches tracked\n", len(m.perf))
		case Tagged:
			used := 0
			for _, s := range m.sets {
				used += len(s)
			}
			fmt.Fprintf(&sb, "  first level: tagged %d/%dw, %d entries live, %d/%d miss/lookup\n",
				m.cfg.Entries, m.cfg.Ways, used, m.tot.FirstLevelMisses, m.tot.FirstLevelLookups)
		case Untagged:
			fmt.Fprintf(&sb, "  first level: untagged %d entries\n", len(m.shared))
		}
	case TAGE:
		live := 0
		for _, t := range m.tage.tab {
			live += len(t)
		}
		fmt.Fprintf(&sb, "  history (%d outcomes, oldest first): %s\n  tick %d, tagged entries live: %d\n",
			len(m.tage.hist), histString(m.tage.hist), m.tage.tick, live)
	case Perceptron:
		fmt.Fprintf(&sb, "  ghr: %b, weight vectors touched: %d\n",
			m.perc.ghr, len(m.perc.w))
	case Tournament:
		fmt.Fprintf(&sb, "  ghr: %b, gshare/bimodal/chooser entries touched: %d/%d/%d\n",
			m.tourn.ghr, len(m.tourn.gshare), len(m.tourn.bim), len(m.tourn.choose))
	}
	cells := make([]cell, 0, len(m.ctr))
	for c, s := range m.ctr {
		if s != m.cmid {
			cells = append(cells, c)
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].row != cells[j].row {
			return cells[i].row < cells[j].row
		}
		return cells[i].col < cells[j].col
	})
	fmt.Fprintf(&sb, "  counters away from initial state: %d\n", len(cells))
	for i, c := range cells {
		if maxEntries > 0 && i >= maxEntries {
			fmt.Fprintf(&sb, "  ... %d more\n", len(cells)-i)
			break
		}
		fmt.Fprintf(&sb, "  [row %d, col %d] = %d\n", c.row, c.col, m.ctr[c])
	}
	return sb.String()
}
