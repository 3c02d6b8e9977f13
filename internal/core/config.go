package core

import (
	"fmt"

	"bpred/internal/history"
)

// Scheme enumerates the predictor families the paper studies, in its
// own terminology (the Yeh/Patt three-letter taxonomy plus McFarling's
// and Nair's named variants).
type Scheme int

// The schemes.
const (
	// SchemeAddress is the address-indexed (bimodal) baseline.
	SchemeAddress Scheme = iota
	// SchemeGAs covers GAg (ColBits=0) through the full GAs family.
	SchemeGAs
	// SchemeGShare is McFarling's XOR scheme, multi-column as in the
	// paper.
	SchemeGShare
	// SchemePath is Nair's target-address-bit history scheme.
	SchemePath
	// SchemePAs covers PAg (ColBits=0) through the PAs family; the
	// FirstLevel field chooses the history table realization.
	SchemePAs
	// SchemeTAGE is the tagged-geometric-history predictor (Seznec &
	// Michaud): a bimodal base table plus TAGE.Tables partially-tagged
	// tables indexed by geometrically growing history lengths.
	SchemeTAGE
	// SchemePerceptron is the Jimenez & Lin perceptron predictor:
	// per-branch signed weight vectors dotted with global history.
	SchemePerceptron
	// SchemeTournament is McFarling's combining predictor: gshare and
	// bimodal components arbitrated by a chooser table.
	SchemeTournament
)

// String returns the scheme family name.
func (s Scheme) String() string {
	switch s {
	case SchemeAddress:
		return "address"
	case SchemeGAs:
		return "GAs"
	case SchemeGShare:
		return "gshare"
	case SchemePath:
		return "path"
	case SchemePAs:
		return "PAs"
	case SchemeTAGE:
		return "tage"
	case SchemePerceptron:
		return "perceptron"
	case SchemeTournament:
		return "tournament"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// FirstLevelKind selects the PAs first-level history table model.
type FirstLevelKind int

// The first-level models.
const (
	// FirstLevelPerfect is the unbounded idealized table (Figure 9).
	FirstLevelPerfect FirstLevelKind = iota
	// FirstLevelSetAssoc is a finite tagged table (Figure 10).
	FirstLevelSetAssoc
	// FirstLevelUntagged is a tagless shared-register table.
	FirstLevelUntagged
)

// FirstLevel configures a PAs first-level history table.
type FirstLevel struct {
	Kind FirstLevelKind
	// Entries and Ways apply to the finite kinds. The paper's
	// Figure 10 uses 128/1024/2048 entries at 4 ways.
	Entries int
	Ways    int
	// Policy is the conflict reset policy; the zero value is the
	// paper's PrefixReset.
	Policy history.ResetPolicy
}

// TAGEParams are the SchemeTAGE geometry knobs. The zero value of
// every field means "use the default" (see Normalized).
type TAGEParams struct {
	// Tables is the number of tagged tables (besides the bimodal
	// base); 0 means 4.
	Tables int
	// MinHist and MaxHist bound the geometric history-length series
	// L_i = min(MaxHist, MinHist<<i); 0 means 4 and 32. MaxHist is at
	// most MaxTAGEHist.
	MinHist int
	MaxHist int
	// TagBits is the partial-tag width per tagged entry; 0 means 8.
	TagBits int
	// UPeriod is the useful-bit aging period in branches (all u
	// counters halve every UPeriod updates); 0 means 1<<18.
	// Negative disables aging.
	UPeriod int
}

// MaxTAGEHist is the longest TAGE history length, in branches.
const MaxTAGEHist = 640

// DefaultTAGE holds the effective defaults for zero-valued TAGEParams
// fields.
var DefaultTAGE = TAGEParams{Tables: 4, MinHist: 4, MaxHist: 32, TagBits: 8, UPeriod: 1 << 18}

// Normalized replaces zero-valued fields with their defaults and
// canonicalizes a negative UPeriod (aging off) to -1.
func (p TAGEParams) Normalized() TAGEParams {
	d := DefaultTAGE
	if p.Tables == 0 {
		p.Tables = d.Tables
	}
	if p.MinHist == 0 {
		p.MinHist = d.MinHist
	}
	if p.MaxHist == 0 {
		p.MaxHist = d.MaxHist
	}
	if p.TagBits == 0 {
		p.TagBits = d.TagBits
	}
	if p.UPeriod == 0 {
		p.UPeriod = d.UPeriod
	} else if p.UPeriod < 0 {
		p.UPeriod = -1
	}
	return p
}

// PerceptronParams are the SchemePerceptron knobs. Zero values mean
// "use the default" (see Normalized).
type PerceptronParams struct {
	// WeightBits is the signed weight width; 0 means 8.
	WeightBits int
	// Threshold is the training threshold theta; 0 means the Jimenez
	// & Lin fit floor(1.93*H + 14) for history length H.
	Threshold int
}

// Normalized replaces zero-valued fields with their defaults for a
// perceptron over histLen history bits.
func (p PerceptronParams) Normalized(histLen int) PerceptronParams {
	if p.WeightBits == 0 {
		p.WeightBits = 8
	}
	if p.Threshold == 0 {
		p.Threshold = (193*histLen + 1400) / 100
	}
	return p
}

// Config is a buildable predictor configuration: the unit of the
// design-space sweeps. RowBits+ColBits determine the counter budget
// (2^(RowBits+ColBits) two-bit counters) for the 1996 families; the
// modern schemes reinterpret the split (see each scheme's doc).
type Config struct {
	Scheme  Scheme
	RowBits int
	ColBits int
	// FirstLevel applies to SchemePAs.
	FirstLevel FirstLevel
	// PathBits applies to SchemePath; 0 means DefaultPathBits.
	PathBits int
	// CounterBits is the second-level counter width; 0 means the
	// paper's two-bit counters. Must be 0 for the modern schemes,
	// whose counter widths are fixed by their definitions.
	CounterBits int
	// TAGE applies to SchemeTAGE: RowBits is log2 entries per tagged
	// table, ColBits is log2 entries in the bimodal base table.
	TAGE TAGEParams
	// Perceptron applies to SchemePerceptron: RowBits is the global
	// history length H, ColBits is log2 the number of perceptrons.
	Perceptron PerceptronParams
	// ChooserBits applies to SchemeTournament (RowBits = gshare
	// index bits, ColBits = bimodal index bits); 0 means RowBits.
	ChooserBits int
	// Metered attaches an AliasMeter to the built predictor.
	Metered bool
}

// EffectiveChooserBits resolves the SchemeTournament chooser table
// size (0 defaults to RowBits).
func (c Config) EffectiveChooserBits() int {
	if c.ChooserBits == 0 {
		return c.RowBits
	}
	return c.ChooserBits
}

// TableBits returns log2 of the counter budget.
func (c Config) TableBits() int { return c.RowBits + c.ColBits }

// Counters returns the counter budget.
func (c Config) Counters() int { return 1 << c.TableBits() }

// Name returns the canonical configuration name without building.
func (c Config) Name() string {
	p, err := c.Build()
	if err != nil {
		return fmt.Sprintf("invalid(%v)", err)
	}
	return p.Name()
}

// Fingerprint returns a canonical, build-free identity string
// covering every field that can affect simulation results. Two
// configurations with equal fingerprints build predictors that produce
// bit-identical metrics over any trace, so the fingerprint (together
// with a trace digest and the warmup setting) keys the checkpoint
// layer's result cache. Zero-valued convenience fields are normalized
// to their effective values (PathBits 0 -> DefaultPathBits,
// CounterBits 0 -> 2) so equivalent spellings share cache cells.
func (c Config) Fingerprint() string {
	pb := c.PathBits
	if c.Scheme == SchemePath && pb == 0 {
		pb = DefaultPathBits
	}
	cb := c.CounterBits
	if cb == 0 {
		cb = 2
	}
	fl := c.FirstLevel
	if c.Scheme != SchemePAs {
		fl = FirstLevel{}
	}
	fp := fmt.Sprintf("cfg1|s%d|r%d|c%d|f%d.%d.%d.%d|p%d|b%d|m%t",
		c.Scheme, c.RowBits, c.ColBits,
		fl.Kind, fl.Entries, fl.Ways, fl.Policy,
		pb, cb, c.Metered)
	// The modern schemes append their normalized knobs as extra
	// segments, leaving the 1996 families' fingerprints byte-identical
	// to earlier releases (the checkpoint cache keys on this string).
	switch c.Scheme {
	case SchemeTAGE:
		tg := c.TAGE.Normalized()
		fp += fmt.Sprintf("|tg%d.%d.%d.%d.%d", tg.Tables, tg.MinHist, tg.MaxHist, tg.TagBits, tg.UPeriod)
	case SchemePerceptron:
		pw := c.Perceptron.Normalized(c.RowBits)
		fp += fmt.Sprintf("|pw%d.%d", pw.WeightBits, pw.Threshold)
	case SchemeTournament:
		fp += fmt.Sprintf("|ch%d", c.EffectiveChooserBits())
	}
	return fp
}

// Validate checks the configuration without building tables.
func (c Config) Validate() error {
	if c.RowBits < 0 || c.ColBits < 0 {
		return fmt.Errorf("core: negative table bits (%d, %d)", c.RowBits, c.ColBits)
	}
	if c.TableBits() > 30 {
		return fmt.Errorf("core: table bits %d exceed 30", c.TableBits())
	}
	switch c.Scheme {
	case SchemeAddress:
		if c.RowBits != 0 {
			return fmt.Errorf("core: address-indexed predictor has RowBits=%d; rows must be 0", c.RowBits)
		}
	case SchemeGAs, SchemeGShare, SchemePath:
		// any split is valid
	case SchemePAs:
		fl := c.FirstLevel
		switch fl.Kind {
		case FirstLevelPerfect:
		case FirstLevelSetAssoc:
			if fl.Entries <= 0 || fl.Ways <= 0 || fl.Entries%fl.Ways != 0 {
				return fmt.Errorf("core: bad PAs first level: %d entries, %d ways", fl.Entries, fl.Ways)
			}
			sets := fl.Entries / fl.Ways
			if sets&(sets-1) != 0 {
				return fmt.Errorf("core: PAs first level set count %d not a power of two", sets)
			}
		case FirstLevelUntagged:
			if fl.Entries <= 0 || fl.Entries&(fl.Entries-1) != 0 {
				return fmt.Errorf("core: untagged first level entries %d not a power of two", fl.Entries)
			}
		default:
			return fmt.Errorf("core: unknown first-level kind %d", fl.Kind)
		}
	case SchemeTAGE:
		tg := c.TAGE.Normalized()
		if tg.Tables < 1 || tg.Tables > 16 {
			return fmt.Errorf("core: TAGE tables %d out of [1,16]", tg.Tables)
		}
		if tg.MinHist < 1 || tg.MinHist > tg.MaxHist || tg.MaxHist > MaxTAGEHist {
			return fmt.Errorf("core: TAGE history lengths %d..%d invalid (need 1 <= min <= max <= %d)",
				tg.MinHist, tg.MaxHist, MaxTAGEHist)
		}
		if tg.TagBits < 1 || tg.TagBits > 16 {
			return fmt.Errorf("core: TAGE tag bits %d out of [1,16]", tg.TagBits)
		}
	case SchemePerceptron:
		pw := c.Perceptron.Normalized(c.RowBits)
		if pw.WeightBits < 2 || pw.WeightBits > 16 {
			return fmt.Errorf("core: perceptron weight bits %d out of [2,16]", pw.WeightBits)
		}
		if pw.Threshold < 0 {
			return fmt.Errorf("core: perceptron threshold %d negative", pw.Threshold)
		}
	case SchemeTournament:
		if c.ChooserBits < 0 || c.EffectiveChooserBits() > 30 {
			return fmt.Errorf("core: tournament chooser bits %d out of [0,30]", c.ChooserBits)
		}
	default:
		return fmt.Errorf("core: unknown scheme %d", c.Scheme)
	}
	if c.PathBits < 0 || (c.PathBits > 0 && c.Scheme != SchemePath) {
		return fmt.Errorf("core: PathBits=%d invalid for scheme %v", c.PathBits, c.Scheme)
	}
	if c.CounterBits != 0 && (c.CounterBits < 1 || c.CounterBits > 8) {
		return fmt.Errorf("core: CounterBits=%d out of [1,8]", c.CounterBits)
	}
	modern := c.Scheme == SchemeTAGE || c.Scheme == SchemePerceptron || c.Scheme == SchemeTournament
	if modern && c.CounterBits != 0 {
		return fmt.Errorf("core: CounterBits=%d invalid for scheme %v (counter widths are fixed)", c.CounterBits, c.Scheme)
	}
	if c.Scheme != SchemeTAGE && c.TAGE != (TAGEParams{}) {
		return fmt.Errorf("core: TAGE params set for scheme %v", c.Scheme)
	}
	if c.Scheme != SchemePerceptron && c.Perceptron != (PerceptronParams{}) {
		return fmt.Errorf("core: perceptron params set for scheme %v", c.Scheme)
	}
	if c.Scheme != SchemeTournament && c.ChooserBits != 0 {
		return fmt.Errorf("core: ChooserBits=%d set for scheme %v", c.ChooserBits, c.Scheme)
	}
	return nil
}

// Build constructs the predictor.
func (c Config) Build() (Predictor, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	switch c.Scheme {
	case SchemeTAGE:
		return NewTAGE(c.RowBits, c.ColBits, c.TAGE, c.Metered), nil
	case SchemePerceptron:
		return NewPerceptron(c.RowBits, c.ColBits, c.Perceptron, c.Metered), nil
	case SchemeTournament:
		return NewMcFarling(c.RowBits, c.ColBits, c.EffectiveChooserBits(), c.Metered), nil
	}
	var t *TwoLevel
	switch c.Scheme {
	case SchemeAddress:
		t = NewAddressIndexed(c.ColBits)
	case SchemeGAs:
		t = NewGAs(c.RowBits, c.ColBits)
	case SchemeGShare:
		t = NewGShare(c.RowBits, c.ColBits)
	case SchemePath:
		pb := c.PathBits
		if pb == 0 {
			pb = DefaultPathBits
		}
		t = NewPath(c.RowBits, c.ColBits, pb)
	case SchemePAs:
		var bht history.BranchHistoryTable
		switch c.FirstLevel.Kind {
		case FirstLevelPerfect:
			bht = history.NewPerfect(c.RowBits)
		case FirstLevelSetAssoc:
			bht = history.NewSetAssoc(c.FirstLevel.Entries, c.FirstLevel.Ways, c.RowBits, c.FirstLevel.Policy)
		case FirstLevelUntagged:
			bht = history.NewUntagged(c.FirstLevel.Entries, c.RowBits)
		}
		t = NewPAs(c.ColBits, bht)
	}
	if c.CounterBits != 0 && c.CounterBits != 2 {
		t.WithCounterBits(c.CounterBits)
	}
	if c.Metered {
		t.EnableMeter()
	}
	return t, nil
}

// MustBuild is Build for static configurations known to be valid; it
// panics on error.
func (c Config) MustBuild() Predictor {
	p, err := c.Build()
	if err != nil {
		panic(err)
	}
	return p
}
