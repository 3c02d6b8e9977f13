package core

import (
	"strings"
	"testing"
	"testing/quick"

	"bpred/internal/history"
)

func TestConfigBuildAllSchemes(t *testing.T) {
	configs := []struct {
		c    Config
		name string
	}{
		{Config{Scheme: SchemeAddress, ColBits: 9}, "address-2^9"},
		{Config{Scheme: SchemeGAs, RowBits: 12}, "GAg-2^12"},
		{Config{Scheme: SchemeGAs, RowBits: 6, ColBits: 3}, "GAs-2^6x2^3"},
		{Config{Scheme: SchemeGShare, RowBits: 8, ColBits: 2}, "gshare-2^8x2^2"},
		{Config{Scheme: SchemePath, RowBits: 6, ColBits: 2}, "path2-2^6x2^2"},
		{Config{Scheme: SchemePath, RowBits: 6, ColBits: 2, PathBits: 3}, "path3-2^6x2^2"},
		{Config{Scheme: SchemePAs, RowBits: 10, ColBits: 2}, "PAs(inf)-2^10x2^2"},
		{
			Config{Scheme: SchemePAs, RowBits: 8, FirstLevel: FirstLevel{
				Kind: FirstLevelSetAssoc, Entries: 1024, Ways: 4,
			}},
			"PAg(1024/4w)-2^8",
		},
		{
			Config{Scheme: SchemePAs, RowBits: 8, FirstLevel: FirstLevel{
				Kind: FirstLevelUntagged, Entries: 256,
			}},
			"PAg(256u)-2^8",
		},
	}
	for _, c := range configs {
		p, err := c.c.Build()
		if err != nil {
			t.Errorf("%+v: %v", c.c, err)
			continue
		}
		if p.Name() != c.name {
			t.Errorf("built %q, want %q", p.Name(), c.name)
		}
		if c.c.Name() != c.name {
			t.Errorf("Config.Name() = %q, want %q", c.c.Name(), c.name)
		}
	}
}

func TestConfigValidateRejects(t *testing.T) {
	bad := []Config{
		{Scheme: SchemeAddress, RowBits: 2, ColBits: 4},
		{Scheme: SchemeGAs, RowBits: -1},
		{Scheme: SchemeGAs, RowBits: 20, ColBits: 20},
		{Scheme: SchemePAs, RowBits: 8, FirstLevel: FirstLevel{Kind: FirstLevelSetAssoc, Entries: 100, Ways: 3}},
		{Scheme: SchemePAs, RowBits: 8, FirstLevel: FirstLevel{Kind: FirstLevelSetAssoc, Entries: 0, Ways: 4}},
		{Scheme: SchemePAs, RowBits: 8, FirstLevel: FirstLevel{Kind: FirstLevelUntagged, Entries: 100}},
		{Scheme: SchemePAs, RowBits: 8, FirstLevel: FirstLevel{Kind: FirstLevelKind(9)}},
		{Scheme: Scheme(42)},
		{Scheme: SchemeGAs, RowBits: 4, PathBits: 2},
		{Scheme: SchemePath, RowBits: 4, PathBits: -1},
		{Scheme: SchemeTAGE, RowBits: 4, TAGE: TAGEParams{MaxHist: MaxTAGEHist + 1}},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", c)
		}
		if _, err := c.Build(); err == nil {
			t.Errorf("Build accepted %+v", c)
		}
	}
}

func TestConfigCounters(t *testing.T) {
	c := Config{Scheme: SchemeGAs, RowBits: 6, ColBits: 9}
	if c.TableBits() != 15 || c.Counters() != 32768 {
		t.Errorf("TableBits=%d Counters=%d", c.TableBits(), c.Counters())
	}
}

func TestConfigMeteredBuild(t *testing.T) {
	c := Config{Scheme: SchemeGAs, RowBits: 4, ColBits: 4, Metered: true}
	p := c.MustBuild()
	tl := p.(*TwoLevel)
	drive(tl, br(0x100, 0x200, true))
	drive(tl, br(0x104, 0x200, true))
	if tl.AliasStats().Accesses != 2 {
		t.Error("metered build did not meter")
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic on invalid config")
		}
	}()
	Config{Scheme: Scheme(42)}.MustBuild()
}

func TestSchemeStrings(t *testing.T) {
	want := map[Scheme]string{
		SchemeAddress:    "address",
		SchemeGAs:        "GAs",
		SchemeGShare:     "gshare",
		SchemePath:       "path",
		SchemePAs:        "PAs",
		SchemeTAGE:       "tage",
		SchemePerceptron: "perceptron",
		SchemeTournament: "tournament",
		Scheme(42):       "Scheme(42)",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), str)
		}
	}
}

// Property: any valid (scheme, row, col) combination under the size
// cap builds and predicts without panicking.
func TestConfigBuildProperty(t *testing.T) {
	schemes := []Scheme{SchemeAddress, SchemeGAs, SchemeGShare, SchemePath, SchemePAs}
	f := func(schemeIdx, rowBits, colBits uint8, pcRaw uint32, taken bool) bool {
		scheme := schemes[int(schemeIdx)%len(schemes)]
		r := int(rowBits) % 9
		c := int(colBits) % 9
		if scheme == SchemeAddress {
			r = 0
		}
		cfg := Config{Scheme: scheme, RowBits: r, ColBits: c}
		p, err := cfg.Build()
		if err != nil {
			return false
		}
		b := br(uint64(pcRaw)&^3, uint64(pcRaw)&^3+8, taken)
		p.Predict(b)
		p.Update(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidConfigName(t *testing.T) {
	c := Config{Scheme: Scheme(42)}
	if !strings.HasPrefix(c.Name(), "invalid(") {
		t.Errorf("Name() = %q", c.Name())
	}
}

func TestFirstLevelPolicyPlumbed(t *testing.T) {
	c := Config{
		Scheme: SchemePAs, RowBits: 8,
		FirstLevel: FirstLevel{Kind: FirstLevelSetAssoc, Entries: 64, Ways: 4, Policy: history.OnesReset},
	}
	p := c.MustBuild().(*TwoLevel)
	sel := p.sel.(*PerAddressSelector)
	sa := sel.bht.(*history.SetAssoc)
	if sa.Policy() != history.OnesReset {
		t.Errorf("policy %v not plumbed through", sa.Policy())
	}
}

func TestConfigCounterBits(t *testing.T) {
	c := Config{Scheme: SchemeGShare, RowBits: 4, ColBits: 2, CounterBits: 1}
	p := c.MustBuild()
	if p.Name() != "gshare-2^4x2^2-1bit" {
		t.Errorf("name %q", p.Name())
	}
	tl := p.(*TwoLevel)
	if tl.Table().CounterBits() != 1 {
		t.Errorf("table width %d", tl.Table().CounterBits())
	}
	// Default width leaves names untouched.
	c2 := Config{Scheme: SchemeGShare, RowBits: 4, ColBits: 2, CounterBits: 2}
	if c2.MustBuild().Name() != "gshare-2^4x2^2" {
		t.Error("explicit 2-bit width changed the name")
	}
	bad := Config{Scheme: SchemeGAs, RowBits: 4, CounterBits: 9}
	if bad.Validate() == nil {
		t.Error("width 9 accepted")
	}
}

func TestWithCounterBitsMetered(t *testing.T) {
	p := NewGAs(3, 3).EnableMeter().WithCounterBits(3)
	b := br(0x100, 0x200, true)
	drive(p, b)
	drive(p, b)
	if p.AliasStats().Accesses != 2 {
		t.Error("meter lost across width change")
	}
}
