package diff

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"bpred/internal/core"
	"bpred/internal/history"
	"bpred/internal/refmodel"
	"bpred/internal/rng"
	"bpred/internal/sim"
	"bpred/internal/trace"
)

// requireEqual asserts a comparison came back clean, attaching the
// lockstep divergence report when it did not.
func requireEqual(t *testing.T, cfg core.Config, tr *trace.Trace, opt sim.Options) {
	t.Helper()
	res, err := Compare(cfg, tr, opt)
	if err != nil {
		t.Fatalf("Compare(%s): %v", cfg.Fingerprint(), err)
	}
	if res.Equal() {
		return
	}
	msg := res.String()
	if div, lerr := LockstepConfig(cfg, tr, 8); lerr == nil && div != nil {
		msg += "\n" + div.String()
	}
	t.Fatalf("%s on %s (warmup %d, chunk %d):\n%s",
		cfg.Fingerprint(), tr.Name, opt.Warmup, opt.Chunk, msg)
}

// TestBatteryDifferential is the core tentpole check: every scheme
// family, first-level realization, reset policy, and counter width in
// the battery must be bit-identical between the batched engine and
// the reference model — metered and unmetered, across warmups and
// chunk sizes that straddle the trace.
func TestBatteryDifferential(t *testing.T) {
	traces := []*trace.Trace{
		SynthTrace(1, 2000),
		SynthTrace(0xbeef, 500),
		SynthTrace(3, 1500),
	}
	opts := []sim.Options{
		{},
		{Warmup: 137, Chunk: 64},
		{Warmup: 10000, Chunk: 17}, // warmup beyond every trace
	}
	for _, metered := range []bool{false, true} {
		for _, cfg := range Battery(metered) {
			for _, tr := range traces {
				for _, opt := range opts {
					requireEqual(t, cfg, tr, opt)
				}
			}
		}
	}
}

// longCorrelationTrace repeats one pattern: a key branch with a random
// outcome, gap-1 iterations of an always-taken loop branch, then a
// check branch that copies the key's outcome. At the check the key is
// gap-1 outcomes old, so only a table whose history reaches that far
// can tell the two check outcomes apart.
func longCorrelationTrace(seed uint64, gap, n int) *trace.Trace {
	r := rng.NewXoshiro256(seed)
	tr := &trace.Trace{Name: fmt.Sprintf("long-correlation-%d", gap), Instructions: uint64(n) * 5}
	for len(tr.Branches) < n {
		k := r.Bool(0.5)
		tr.Branches = append(tr.Branches, trace.Branch{PC: 0x1000, Target: 0x1010, Taken: k})
		for i := 1; i < gap; i++ {
			tr.Branches = append(tr.Branches, trace.Branch{PC: 0x8000, Target: 0x7f00, Taken: true})
		}
		tr.Branches = append(tr.Branches, trace.Branch{PC: 0x2000, Target: 0x2010, Taken: k})
	}
	tr.Branches = tr.Branches[:n]
	return tr
}

// TestLongHistoryDifferential holds the battery's past-64-bit TAGE
// entries to the oracle on traces that only their longest table can
// predict, so a wrong bit anywhere in a long history changes the
// result. (On the random battery traces long histories never repeat,
// the longest tables rarely hit, and such bugs stay invisible.) The
// trace's premise is checked too: halving MaxHist must cost
// mispredicts.
func TestLongHistoryDifferential(t *testing.T) {
	long := 0
	for _, metered := range []bool{false, true} {
		for _, cfg := range Battery(metered) {
			if cfg.Scheme != core.SchemeTAGE || cfg.TAGE.MaxHist <= 64 {
				continue
			}
			long++
			tr := longCorrelationTrace(3, cfg.TAGE.MaxHist-1, 20000)
			for _, opt := range []sim.Options{{}, {Warmup: 7001, Chunk: 97}} {
				requireEqual(t, cfg, tr, opt)
			}
			short := cfg
			short.TAGE.MaxHist /= 2
			full := sim.RunTrace(cfg.MustBuild(), tr, sim.Options{})
			half := sim.RunTrace(short.MustBuild(), tr, sim.Options{})
			if full.Mispredicts >= half.Mispredicts {
				t.Errorf("%s: %d mispredicts, %d with MaxHist halved; the trace does not exercise the longest table",
					cfg.Fingerprint(), full.Mispredicts, half.Mispredicts)
			}
		}
	}
	if long == 0 {
		t.Fatal("the battery has no TAGE entry with a history past 64 bits")
	}
}

// TestLockstepAgreesOnBattery runs the generic engine path in
// lockstep with the oracle and demands no divergence anywhere.
func TestLockstepAgreesOnBattery(t *testing.T) {
	tr := SynthTrace(7, 1500)
	for _, cfg := range Battery(true) {
		div, err := LockstepConfig(cfg, tr, 8)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Fingerprint(), err)
		}
		if div != nil {
			t.Fatalf("%s diverged:\n%s", cfg.Fingerprint(), div.String())
		}
	}
}

// saboteur wraps a predictor and flips its prediction at one branch
// index, simulating a single-step engine bug.
type saboteur struct {
	core.Predictor
	at   int
	seen int
}

func (s *saboteur) Predict(b trace.Branch) bool {
	p := s.Predictor.Predict(b)
	if s.seen == s.at {
		p = !p
	}
	s.seen++
	return p
}

// TestLockstepCatchesSabotage checks Lockstep pinpoints the exact
// branch index of an injected divergence and renders both dumps.
func TestLockstepCatchesSabotage(t *testing.T) {
	cfg := core.Config{Scheme: core.SchemeGShare, RowBits: 6, ColBits: 2}
	tr := SynthTrace(3, 800)
	const at = 412
	rc, err := RefConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := mustModel(t, rc)
	p := &saboteur{Predictor: cfg.MustBuild(), at: at}
	div := Lockstep(p, m, tr.Branches, 8)
	if div == nil {
		t.Fatal("sabotaged run reported no divergence")
	}
	if div.Index != at {
		t.Fatalf("divergence at %d, sabotage was at %d", div.Index, at)
	}
	if div.EngineState == "" || div.OracleState == "" {
		t.Fatal("divergence report missing a state dump")
	}
	if !strings.Contains(div.String(), "first divergence at branch 412") {
		t.Fatalf("report missing index: %s", div.String())
	}
}

// TestBisectPrefix checks the prefix search finds the minimal failing
// prefix, including at the extremes.
func TestBisectPrefix(t *testing.T) {
	for _, first := range []int{0, 1, 137, 999} {
		idx, ok, err := bisectPrefix(1000, func(n int) (bool, error) {
			return n > first, nil
		})
		if err != nil || !ok || idx != first {
			t.Fatalf("first=%d: got (%d, %t, %v)", first, idx, ok, err)
		}
	}
	if _, ok, err := bisectPrefix(1000, func(int) (bool, error) { return false, nil }); ok || err != nil {
		t.Fatalf("clean input reported divergence (%t, %v)", ok, err)
	}
	boom := errors.New("boom")
	if _, _, err := bisectPrefix(10, func(int) (bool, error) { return false, boom }); !errors.Is(err, boom) {
		t.Fatalf("probe error not surfaced: %v", err)
	}
}

// TestBisectBatchedClean checks the end-to-end bisector reports no
// divergence on a healthy configuration.
func TestBisectBatchedClean(t *testing.T) {
	cfg := core.Config{Scheme: core.SchemePAs, RowBits: 5, ColBits: 1,
		FirstLevel: core.FirstLevel{Kind: core.FirstLevelSetAssoc, Entries: 16, Ways: 2}, Metered: true}
	_, ok, err := BisectBatched(cfg, SynthTrace(11, 600), sim.Options{Warmup: 31, Chunk: 50})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("healthy config reported a divergence")
	}
}

// TestRefConfigErrors checks invalid engine configurations are
// rejected rather than silently mismapped.
func TestRefConfigErrors(t *testing.T) {
	bad := []core.Config{
		{Scheme: core.Scheme(42), RowBits: 4},
		{Scheme: core.SchemeAddress, RowBits: 3}, // invalid per engine rules
		{Scheme: core.SchemePAs, RowBits: 4,
			FirstLevel: core.FirstLevel{Kind: core.FirstLevelSetAssoc, Entries: 12, Ways: 8}},
	}
	for _, cfg := range bad {
		if _, err := RefConfig(cfg); err == nil {
			t.Errorf("RefConfig(%+v) accepted invalid config", cfg)
		}
	}
	if _, err := RefConfig(core.Config{Scheme: core.SchemePAs, RowBits: 4,
		FirstLevel: core.FirstLevel{Kind: core.FirstLevelSetAssoc, Entries: 16, Ways: 4, Policy: history.ResetPolicy(9)}}); err == nil {
		t.Error("unmapped reset policy accepted")
	}
}

// TestSynthTraceDeterministic checks identical (seed, n) yield
// byte-identical traces and different seeds differ.
func TestSynthTraceDeterministic(t *testing.T) {
	a, b := SynthTrace(5, 300), SynthTrace(5, 300)
	if len(a.Branches) != 300 || len(b.Branches) != 300 {
		t.Fatalf("lengths %d, %d", len(a.Branches), len(b.Branches))
	}
	for i := range a.Branches {
		if a.Branches[i] != b.Branches[i] {
			t.Fatalf("branch %d differs across identical seeds", i)
		}
	}
	c := SynthTrace(6, 300)
	same := true
	for i := range a.Branches {
		if a.Branches[i] != c.Branches[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestEngineDumpOpaque checks EngineDump degrades gracefully on
// predictors without inspectable state.
func TestEngineDumpOpaque(t *testing.T) {
	s := EngineDump(opaque{}, 4)
	if !strings.Contains(s, "opaque predictor") {
		t.Fatalf("dump = %q", s)
	}
	p := core.Config{Scheme: core.SchemeGAs, RowBits: 4, ColBits: 2}.MustBuild()
	tr := SynthTrace(9, 200)
	for _, b := range tr.Branches {
		p.Predict(b)
		p.Update(b)
	}
	s = EngineDump(p, 4)
	if !strings.Contains(s, "counters away from initial state") {
		t.Fatalf("dump = %q", s)
	}
}

type opaque struct{}

func (opaque) Predict(trace.Branch) bool { return true }
func (opaque) Update(trace.Branch)       {}
func (opaque) Name() string              { return "opaque" }

func mustModel(t *testing.T, rc refmodel.Config) *refmodel.Model {
	t.Helper()
	m, err := refmodel.New(rc)
	if err != nil {
		t.Fatalf("refmodel.New(%+v): %v", rc, err)
	}
	return m
}
