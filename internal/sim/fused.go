package sim

import (
	"context"
	"runtime"
	"slices"
	"sync"

	"bpred/internal/core"
	"bpred/internal/history"
	"bpred/internal/obs"
	"bpred/internal/trace"
)

// This file is the config-parallel fast path: one trace pass drives an
// entire mask-compatible sweep axis at once, instead of re-reading the
// chunk stream once per configuration.
//
// The fusion rests on one identity. A k-bit LSB-shift-in history
// register is exactly the low k bits of any wider register fed the
// same outcomes: shifting in then masking with 2^k-1 commutes with
// masking first ((x & m) << 1 | o) & m == ((x << 1 | o) & m). So every
// geometry of a scheme that differs only in RowBits/ColBits can share
// ONE wide history value and apply its own row mask at index time —
// which is also literally what the per-config kernels compute, since
// they mask the register on every use. The same argument covers path
// registers (shift-in of bitsPerTarget target bits, for configurations
// agreeing on bitsPerTarget) and the Perfect per-address table (which
// stores unmasked outcome streams and masks on read, see
// history.Perfect). Address-indexed configurations are history lanes
// whose row mask is 0: the shared register stays 0, and the lane index
// reduces to the column bits.
//
// TAGE fuses on a second identity. Its tags hash the PC with per-table
// registers folded from the global history to TagBits and TagBits-1
// bits, and its indices with registers folded to RowBits bits; the
// folds depend on TAGEParams and the fold width alone. So every
// geometry sharing TAGEParams (one sweep: 56 geometries at tiers
// 4..10) shares one tag per table per branch, and every geometry that
// also shares RowBits (11 distinct values at tiers 4..10) shares the
// indices. A TAGE batch keeps one core.TAGEHistory with an index
// width per distinct RowBits, hashes each tile once, and steps each
// lane's tables through core.TAGE.Step — the same table code
// TAGE.Predict/Update run.
//
// Mask-compatibility therefore means: same scheme (same effective
// PathBits for path; Perfect first level for PAs; same normalized
// TAGEParams for TAGE), 2-bit counters, and no alias meter.
// SetAssoc/Untagged first levels are excluded — their conflict
// behavior (ResetPrefix(width), tag geometry) depends on the register
// width, so the lanes would not share first-level state.
// Metered configurations are excluded because the meter's per-access
// taxonomy is per-geometry work with no shared part worth fusing (a
// metered TAGE also needs the taken run and its own per-entry
// records); they fall back to the per-config kernels, as do wider
// counters.
//
// Each fused lane holds one geometry's byte-per-counter table and its
// masks; the inner loop hoists the branch decode (PC column bits, the
// outcome bit, the shared history value) once per branch and then runs
// the counter step per lane. Results are bit-identical to the
// per-config kernels — enforced by fused_test.go and the refmodel
// differential suite — so fusion changes only how often the trace is
// decoded, never what is computed: fingerprints, checkpoint cells, and
// sweep Surfaces are unaffected.

// fuseKey identifies one mask-compatible class of configurations.
type fuseKey struct {
	scheme   core.Scheme
	pathBits int
	tage     core.TAGEParams // normalized
}

// fuseKeyFor classifies a configuration, reporting false when it must
// run on the per-config path.
func fuseKeyFor(c core.Config) (fuseKey, bool) {
	if c.Metered || (c.CounterBits != 0 && c.CounterBits != 2) {
		return fuseKey{}, false
	}
	switch c.Scheme {
	case core.SchemeAddress, core.SchemeGAs, core.SchemeGShare:
		return fuseKey{scheme: c.Scheme}, true
	case core.SchemePath:
		pb := c.PathBits
		if pb == 0 {
			pb = core.DefaultPathBits
		}
		return fuseKey{scheme: c.Scheme, pathBits: pb}, true
	case core.SchemePAs:
		if c.FirstLevel.Kind == core.FirstLevelPerfect {
			return fuseKey{scheme: c.Scheme}, true
		}
	case core.SchemeTAGE:
		return fuseKey{scheme: c.Scheme, tage: c.TAGE.Normalized()}, true
	}
	return fuseKey{}, false
}

// fuseGroup is one fusable batch of configuration indices.
type fuseGroup struct {
	key fuseKey
	idx []int
}

// fuseGroups partitions configuration indices into fusable groups (in
// first-seen order) and a remainder for the per-config path. Singleton
// groups gain nothing from fusion and join the remainder.
func fuseGroups(configs []core.Config) ([]fuseGroup, []int) {
	var groups []fuseGroup
	pos := make(map[fuseKey]int)
	var rest []int
	for i, c := range configs {
		key, ok := fuseKeyFor(c)
		if !ok {
			rest = append(rest, i)
			continue
		}
		j, seen := pos[key]
		if !seen {
			j = len(groups)
			pos[key] = j
			groups = append(groups, fuseGroup{key: key})
		}
		groups[j].idx = append(groups[j].idx, i)
	}
	kept := groups[:0]
	for _, g := range groups {
		if len(g.idx) >= 2 {
			kept = append(kept, g)
		} else {
			rest = append(rest, g.idx...)
		}
	}
	return kept, rest
}

// fusedLane is one geometry's slice of a fused batch: its counter
// table plus the index masks, everything the per-branch inner loop
// needs. The lane runs on the table's own byte counters.
type fusedLane struct {
	rowMask uint64
	colMask uint64
	colBits uint
	bank    []uint8
	miss    uint64

	// TAGE lanes step their predictor's table half over the indices
	// hashed at row width tageRows.
	tage     *core.TAGE
	tageRows int
}

// fusedBatch runs one group of mask-compatible geometries over the
// trace in a single pass. It mirrors runner's warmup accounting at
// batch granularity: warm branches train every lane but score none.
type fusedBatch struct {
	run    func(chunk []trace.Branch) // scheme loop, called per tile
	lanes  []fusedLane
	names  []string
	idx    []int // out indices, parallel to lanes
	warm   int
	scored uint64
	obs    *obs.Counters

	// shared history state, per scheme
	val      uint64 // wide shift/path register value
	wideMask uint64
	bpt      uint           // path: bits per target
	tgtMask  uint64         // path: target bit extraction
	regs     *history.PCMap // PAs-Perfect: shared wide per-branch registers

	// Per-tile decode scratch, shared by every lane: the PC column
	// bits, the outcome bit, and the wide history value before each
	// branch. Decoding once and running each lane as its own tight
	// loop keeps the lane's masks, bank pointer, and miss tally in
	// registers instead of re-loading lane state per branch.
	pcs []uint64
	ups []uint8
	hs  []uint64

	// TAGE: the shared history, and per tile the per-table tags and,
	// per distinct RowBits, the per-table indices (branch j's at
	// [j*tables, (j+1)*tables)).
	hist     *core.TAGEHistory
	tables   int
	tageTags []uint32
	tageIdx  [][]uint32
}

// fusedTile is the number of branches decoded ahead of the lane loops:
// 1024 branches keep the scratch arrays (~17 KiB) L1-resident while
// every lane streams them, where a full 8192-branch chunk (~136 KiB)
// would spill each lane's re-read to L2.
const fusedTile = 1024

// newFusedBatch assembles the lanes and scheme loop for one group.
// preds must be the configurations' built predictors (TwoLevel, or
// TAGE for a TAGE group); the lanes run on their tables, and their
// names label the metrics — the predictors' own history is not run.
func newFusedBatch(key fuseKey, idx []int, preds []core.Predictor, opt Options) *fusedBatch {
	if key.scheme == core.SchemeTAGE {
		return newTAGEBatch(key.tage, idx, preds, opt)
	}
	fb := &fusedBatch{
		lanes: make([]fusedLane, len(idx)),
		names: make([]string, len(idx)),
		idx:   idx,
		warm:  opt.Warmup,
		obs:   opt.Obs,
		pcs:   make([]uint64, fusedTile),
		ups:   make([]uint8, fusedTile),
		hs:    make([]uint64, fusedTile),
	}
	for j, i := range idx {
		t := preds[i].(*core.TwoLevel)
		tab := t.Table()
		l := &fb.lanes[j]
		l.rowMask = tab.RowMask()
		l.colMask = tab.ColMask()
		l.colBits = uint(tab.ColBits())
		l.bank, _, _ = tab.Raw()
		if sel, ok := t.Selector().(*core.GShareSelector); ok {
			// The gshare lane kernels fold the XOR's address shift into
			// the shifted row mask (see laneGShare4), which is
			// only sound when the selector and the table agree on the
			// column width — true by construction in NewGShare.
			if uint(sel.ColBits()) != l.colBits {
				panic("sim: gshare selector/table column width mismatch")
			}
		}
		if l.rowMask > fb.wideMask {
			fb.wideMask = l.rowMask
		}
		fb.names[j] = t.Name()
	}
	switch key.scheme {
	case core.SchemeAddress, core.SchemeGAs:
		fb.run = fb.tiled(fusedTile, fb.runGlobal)
	case core.SchemeGShare:
		fb.run = fb.tiled(fusedTile, fb.runGShare)
	case core.SchemePath:
		fb.bpt = uint(key.pathBits)
		fb.tgtMask = uint64(1)<<fb.bpt - 1
		fb.run = fb.tiled(fusedTile, fb.runPath)
	case core.SchemePAs:
		fb.regs = history.NewPCMap()
		fb.run = fb.tiled(fusedTile, fb.runPerfect)
	default:
		panic("sim: newFusedBatch on unfusable scheme")
	}
	return fb
}

// newTAGEBatch assembles a TAGE batch: one shared history with an
// index width per distinct RowBits (in first-seen order), and a lane
// per geometry stepping its predictor's tables.
func newTAGEBatch(p core.TAGEParams, idx []int, preds []core.Predictor, opt Options) *fusedBatch {
	fb := &fusedBatch{
		lanes:  make([]fusedLane, len(idx)),
		names:  make([]string, len(idx)),
		idx:    idx,
		warm:   opt.Warmup,
		obs:    opt.Obs,
		pcs:    make([]uint64, tageTile),
		ups:    make([]uint8, tageTile),
		tables: p.Tables,
	}
	var rows []int
	for j, i := range idx {
		t := preds[i].(*core.TAGE)
		if t.Params() != p || t.Meter() != nil {
			panic("sim: TAGE lane outside its fuse key")
		}
		k := slices.Index(rows, t.RowBits())
		if k < 0 {
			k = len(rows)
			rows = append(rows, t.RowBits())
			fb.tageIdx = append(fb.tageIdx, make([]uint32, tageTile*p.Tables))
		}
		fb.lanes[j] = fusedLane{tage: t, tageRows: k}
		fb.names[j] = t.Name()
	}
	fb.hist = core.NewTAGEHistory(p, rows)
	fb.tageTags = make([]uint32, tageTile*p.Tables)
	fb.run = fb.tiled(tageTile, fb.runTAGE)
	return fb
}

// tageTile is the TAGE batch's tile. A lane streams the tile's PC
// words, outcomes, tags and its RowBits' indices (~41 KiB at four
// tables) while probing its own tables; 1024 branches per tile
// measured ahead of 256 and 4096. The scratch is (1 + distinct
// RowBits) x tables x 4 KiB per batch, ~200 KiB for a whole
// default-parameter sweep.
const tageTile = 1024

// feed processes one chunk with runner.feed's exact warmup semantics:
// warm branches train every lane, and lane tallies reset at the warm
// boundary so only scored branches count. The obs hook fires once per
// lane per chunk, matching the per-config path's accounting.
func (f *fusedBatch) feed(chunk []trace.Branch) {
	if f.obs != nil {
		for range f.lanes {
			f.obs.AddChunk(uint64(len(chunk)))
		}
	}
	warm, chunk := splitWarm(&f.warm, chunk)
	if len(warm) > 0 {
		f.run(warm)
		if f.warm == 0 {
			for k := range f.lanes {
				f.lanes[k].miss = 0
			}
		}
	}
	f.scored += uint64(len(chunk))
	f.run(chunk)
}

// tiled subdivides each chunk into tiles of tile branches, so the
// decode scratch stays cache-resident across the lane loops; the
// scheme loops carry history state through f, so splitting is
// invisible to them.
func (f *fusedBatch) tiled(tile int, run func([]trace.Branch)) func([]trace.Branch) {
	return func(chunk []trace.Branch) {
		for base := 0; base < len(chunk); base += tile {
			end := base + tile
			if end > len(chunk) {
				end = len(chunk)
			}
			run(chunk[base:end])
		}
	}
}

// finishInto writes each lane's Metrics to its configuration slot. The
// non-tally fields are zero by construction: fused configurations are
// unmetered (AliasStats zero), the only fused first level is Perfect,
// whose miss rate is identically 0, and TAGE has no first level.
func (f *fusedBatch) finishInto(out []Metrics) {
	for k := range f.lanes {
		miss := f.lanes[k].miss
		if f.scored == 0 {
			miss = 0 // trace ended inside warmup; nothing was scored
		}
		out[f.idx[k]] = Metrics{Name: f.names[k], Branches: f.scored, Mispredicts: miss}
	}
}

// The fused scheme loops run lane-major: one decode pass writes the
// per-branch values every geometry shares (PC column bits, outcome
// bit, the wide history value before the branch — which never depends
// on any lane), then each lane streams the decoded chunk in its own
// tight loop. That keeps the lane's masks, bank pointer, and miss
// tally in registers; the branch-major alternative re-loads lane state
// and read-modify-writes the tally in memory on every lane-branch
// step, which profiles as the dominant cost. Per-config masking
// happens where the per-config kernels do it, in the index expression.

// ctrStep fuses the 2-bit counter transition and the mispredict bit:
// ctrStep[s<<1|u] == next(s,u) | ((s>>1)^u)<<8. The table is sized 256
// and indexed by a uint8 expression so the compiler elides the bounds
// check without a masking AND; entries past 7 are never reached
// (counter states are 0..3).
var ctrStep = [256]uint16{
	0b00<<1 | 0: 0 | 0<<8, 0b00<<1 | 1: 1 | 1<<8,
	0b01<<1 | 0: 0 | 0<<8, 0b01<<1 | 1: 2 | 1<<8,
	0b10<<1 | 0: 1 | 1<<8, 0b10<<1 | 1: 3 | 0<<8,
	0b11<<1 | 0: 2 | 1<<8, 0b11<<1 | 1: 3 | 0<<8,
}

// laneHist2 runs two history lanes in one pass over the decoded
// tile (see laneGShare2).
//
//bpred:kernel
func laneHist2(l0, l1 *fusedLane, pcs, hs []uint64, ups []uint8) {
	bank0, bank1 := l0.bank, l1.bank
	rm0, colMask0, colBits0 := l0.rowMask<<l0.colBits, l0.colMask, l0.colBits
	rm1, colMask1, colBits1 := l1.rowMask<<l1.colBits, l1.colMask, l1.colBits
	miss0, miss1 := l0.miss, l1.miss
	pcs = pcs[:len(ups)]
	hs = hs[:len(ups)]
	for j := range ups {
		u := ups[j]
		pc2 := pcs[j]
		h := hs[j]
		idx0 := (h<<colBits0)&rm0 | pc2&colMask0
		idx1 := (h<<colBits1)&rm1 | pc2&colMask1
		t0 := ctrStep[bank0[idx0]<<1|u]
		t1 := ctrStep[bank1[idx1]<<1|u]
		bank0[idx0] = uint8(t0)
		bank1[idx1] = uint8(t1)
		miss0 += uint64(t0 >> 8)
		miss1 += uint64(t1 >> 8)
	}
	l0.miss = miss0
	l1.miss = miss1
}

// laneHist streams one decoded tile through a history-indexed lane
// (global, path, and per-address geometries share this index shape).
//
//bpred:kernel
func laneHist(l *fusedLane, pcs, hs []uint64, ups []uint8) {
	bank := l.bank
	rm, colMask, colBits := l.rowMask<<l.colBits, l.colMask, l.colBits
	miss := l.miss
	pcs = pcs[:len(ups)]
	hs = hs[:len(ups)]
	for j := range ups {
		u := ups[j]
		idx := (hs[j]<<colBits)&rm | pcs[j]&colMask
		t := ctrStep[bank[idx]<<1|u]
		bank[idx] = uint8(t)
		miss += uint64(t >> 8)
	}
	l.miss = miss
}

// laneGShare4 runs four gshare lanes in one pass over
// the decoded tile: each scratch load feeds all four lanes, and the
// four independent update chains overlap in the pipeline. The lane
// parameters exceed the register file, but the spill reloads hit L1
// and sit off the critical path.
//
// The index uses ((h<<cb)^pc2)&(rowMask<<cb) in place of the
// per-config ((h^(pc2>>cb))&rowMask)<<cb: the two agree bit for bit
// (the shifted mask zeroes the low cb bits either way) and the
// rewrite drops one shift from the critical path. It relies on the
// gshare XOR skipping exactly the table's column bits, asserted in
// newFusedBatch.
//
//bpred:kernel
func laneGShare4(l0, l1, l2, l3 *fusedLane, pcs, hs []uint64, ups []uint8) {
	bank0, bank1, bank2, bank3 := l0.bank, l1.bank, l2.bank, l3.bank
	rm0, colMask0, colBits0 := l0.rowMask<<l0.colBits, l0.colMask, l0.colBits
	rm1, colMask1, colBits1 := l1.rowMask<<l1.colBits, l1.colMask, l1.colBits
	rm2, colMask2, colBits2 := l2.rowMask<<l2.colBits, l2.colMask, l2.colBits
	rm3, colMask3, colBits3 := l3.rowMask<<l3.colBits, l3.colMask, l3.colBits
	miss0, miss1, miss2, miss3 := l0.miss, l1.miss, l2.miss, l3.miss
	pcs = pcs[:len(ups)]
	hs = hs[:len(ups)]
	for j := range ups {
		u := ups[j]
		pc2 := pcs[j]
		h := hs[j]
		idx0 := (h<<colBits0^pc2)&rm0 | pc2&colMask0
		idx1 := (h<<colBits1^pc2)&rm1 | pc2&colMask1
		idx2 := (h<<colBits2^pc2)&rm2 | pc2&colMask2
		idx3 := (h<<colBits3^pc2)&rm3 | pc2&colMask3
		t0 := ctrStep[bank0[idx0]<<1|u]
		t1 := ctrStep[bank1[idx1]<<1|u]
		t2 := ctrStep[bank2[idx2]<<1|u]
		t3 := ctrStep[bank3[idx3]<<1|u]
		bank0[idx0] = uint8(t0)
		bank1[idx1] = uint8(t1)
		bank2[idx2] = uint8(t2)
		bank3[idx3] = uint8(t3)
		miss0 += uint64(t0 >> 8)
		miss1 += uint64(t1 >> 8)
		miss2 += uint64(t2 >> 8)
		miss3 += uint64(t3 >> 8)
	}
	l0.miss = miss0
	l1.miss = miss1
	l2.miss = miss2
	l3.miss = miss3
}

// laneGShare2 runs two gshare lanes in one pass over
// the decoded tile: each scratch load feeds both lanes, and the two
// independent update chains overlap in the pipeline.
//
//bpred:kernel
func laneGShare2(l0, l1 *fusedLane, pcs, hs []uint64, ups []uint8) {
	bank0, bank1 := l0.bank, l1.bank
	rm0, colMask0, colBits0 := l0.rowMask<<l0.colBits, l0.colMask, l0.colBits
	rm1, colMask1, colBits1 := l1.rowMask<<l1.colBits, l1.colMask, l1.colBits
	miss0, miss1 := l0.miss, l1.miss
	pcs = pcs[:len(ups)]
	hs = hs[:len(ups)]
	for j := range ups {
		u := ups[j]
		pc2 := pcs[j]
		h := hs[j]
		idx0 := (h<<colBits0^pc2)&rm0 | pc2&colMask0
		idx1 := (h<<colBits1^pc2)&rm1 | pc2&colMask1
		t0 := ctrStep[bank0[idx0]<<1|u]
		t1 := ctrStep[bank1[idx1]<<1|u]
		bank0[idx0] = uint8(t0)
		bank1[idx1] = uint8(t1)
		miss0 += uint64(t0 >> 8)
		miss1 += uint64(t1 >> 8)
	}
	l0.miss = miss0
	l1.miss = miss1
}

// laneGShare streams one decoded tile through a gshare lane: the XOR
// happens per lane, each geometry skipping its own column bits.
//
//bpred:kernel
func laneGShare(l *fusedLane, pcs, hs []uint64, ups []uint8) {
	bank := l.bank
	rm, colMask, colBits := l.rowMask<<l.colBits, l.colMask, l.colBits
	miss := l.miss
	pcs = pcs[:len(ups)]
	hs = hs[:len(ups)]
	for j := range ups {
		u := ups[j]
		pc2 := pcs[j]
		idx := (hs[j]<<colBits^pc2)&rm | pc2&colMask
		t := ctrStep[bank[idx]<<1|u]
		bank[idx] = uint8(t)
		miss += uint64(t >> 8)
	}
	l.miss = miss
}

// histLanes dispatches the history-indexed lane loops (global, path,
// and per-address geometries share this index shape), pairing up
// lanes.
//
//bpred:kernel
func (f *fusedBatch) histLanes(pcs, hs []uint64, ups []uint8) {
	lanes := f.lanes
	for len(lanes) >= 2 {
		laneHist2(&lanes[0], &lanes[1], pcs, hs, ups)
		lanes = lanes[2:]
	}
	if len(lanes) == 1 {
		laneHist(&lanes[0], pcs, hs, ups)
	}
}

// runGlobal fuses address and GAg/GAs geometries over one wide global
// register (0 bits wide when every lane is address-indexed).
//
//bpred:kernel
func (f *fusedBatch) runGlobal(chunk []trace.Branch) {
	pcs, hs, ups := f.decodeGlobal(chunk)
	f.histLanes(pcs, hs, ups)
}

// runGShare fuses gshare geometries: the register shift-in happens
// once per branch in the decode pass, the XOR per lane.
//
//bpred:kernel
func (f *fusedBatch) runGShare(chunk []trace.Branch) {
	pcs, hs, ups := f.decodeGlobal(chunk)
	lanes := f.lanes
	for len(lanes) >= 4 {
		laneGShare4(&lanes[0], &lanes[1], &lanes[2], &lanes[3], pcs, hs, ups)
		lanes = lanes[4:]
	}
	if len(lanes) >= 2 {
		laneGShare2(&lanes[0], &lanes[1], pcs, hs, ups)
		lanes = lanes[2:]
	}
	if len(lanes) == 1 {
		laneGShare(&lanes[0], pcs, hs, ups)
	}
}

// decodeGlobal is the global-history decode pass: it writes each
// branch's PC word, outcome bit and the wide register value before
// the branch into the tile scratch, advancing the shared register.
//
//bpred:kernel
func (f *fusedBatch) decodeGlobal(chunk []trace.Branch) (pcs, hs []uint64, ups []uint8) {
	n := len(chunk)
	pcs, ups, hs = f.pcs[:n], f.ups[:n], f.hs[:n]
	val, wideMask := f.val, f.wideMask
	for i := range chunk {
		b := chunk[i]
		pcs[i] = b.PC >> 2
		u := b2u64(b.Taken)
		ups[i] = uint8(u)
		hs[i] = val
		val = (val<<1 | u) & wideMask
	}
	f.val = val
	return pcs, hs, ups
}

// runPath fuses path geometries sharing bitsPerTarget over one wide
// path register.
//
//bpred:kernel
func (f *fusedBatch) runPath(chunk []trace.Branch) {
	n := len(chunk)
	pcs, ups, hs := f.pcs[:n], f.ups[:n], f.hs[:n]
	val, wideMask := f.val, f.wideMask
	bpt, tgtMask := f.bpt, f.tgtMask
	for i := range chunk {
		b := chunk[i]
		pcs[i] = b.PC >> 2
		ups[i] = uint8(b2u64(b.Taken))
		hs[i] = val
		next := b.PC + 4
		if b.Taken {
			next = b.Target
		}
		val = (val<<bpt | (next>>2)&tgtMask) & wideMask
	}
	f.val = val
	f.histLanes(pcs, hs, ups)
}

// runPerfect fuses PAs-with-perfect-history geometries over one shared
// unmasked per-branch register table (one probe per branch serves
// every lane — see history.Perfect on why unmasked storage makes the
// wide register exact for all widths).
//
//bpred:kernel
func (f *fusedBatch) runPerfect(chunk []trace.Branch) {
	n := len(chunk)
	pcs, ups, hs := f.pcs[:n], f.ups[:n], f.hs[:n]
	regs := f.regs
	for i := range chunk {
		b := chunk[i]
		pcs[i] = b.PC >> 2
		u := b2u64(b.Taken)
		ups[i] = uint8(u)
		slot := regs.Slot(b.PC)
		h := regs.Val(slot)
		hs[i] = h
		regs.SetVal(slot, h<<1|u)
	}
	f.histLanes(pcs, hs, ups)
}

// runTAGE fuses TAGE geometries sharing TAGEParams. The history pass
// hashes every table's tag once per branch, and its index once per
// distinct RowBits, then advances the shared history; each lane then
// steps its own tables over the tile with core.TAGE's table code.
//
//bpred:kernel
func (f *fusedBatch) runTAGE(chunk []trace.Branch) {
	n, tables := len(chunk), f.tables
	pcs, ups := f.pcs[:n], f.ups[:n]
	tags, rows := f.tageTags[:n*tables], f.tageIdx
	h := f.hist
	for j := range chunk {
		b := chunk[j]
		word := b.PC >> 2
		pcs[j] = word
		ups[j] = uint8(b2u64(b.Taken))
		o := j * tables
		h.Hash(word, rows[0][o:o+tables], tags[o:o+tables])
		for k := 1; k < len(rows); k++ {
			h.Indices(k, word, rows[k][o:o+tables])
		}
		h.Push(b.Taken)
	}
	for k := range f.lanes {
		l := &f.lanes[k]
		l.miss += laneTAGE(l.tage, pcs, ups, rows[l.tageRows][:n*tables], tags, tables)
	}
}

// laneTAGE steps one TAGE lane over a hashed tile and returns its
// mispredicts.
//
//bpred:kernel
func laneTAGE(t *core.TAGE, pcs []uint64, ups []uint8, idx, tag []uint32, tables int) uint64 {
	var miss uint64
	pcs = pcs[:len(ups)]
	for j, u := range ups {
		o := j * tables
		taken := u != 0
		miss += b2u64(t.Step(pcs[j], idx[o:o+tables], tag[o:o+tables], taken) != taken)
	}
	return miss
}

// execute is the one in-memory executor. It runs each fuse group
// config-parallel and the remainder (the indices in rest) on the
// per-config batched kernels; preds are the built predictors, indexed
// like the returned slice. Each group, and the remainder, is carved
// into strided tasks sized by its share of the total count, so all
// workers stay busy and heavy geometries spread across tasks; with no
// groups that is min(GOMAXPROCS, len(preds)) batches. Each task owns
// a disjoint set of result slots and writes them only when it runs to
// completion, which is the partial-result contract of
// RunPredictorsCtx.
func execute(ctx context.Context, groups []fuseGroup, rest []int, preds []core.Predictor, t *trace.Trace, opt Options) ([]Metrics, error) {
	out := make([]Metrics, len(preds))
	workers := runtime.GOMAXPROCS(0)
	var tasks []func()
	for _, g := range groups {
		for _, sub := range strideSplit(g.idx, taskShare(workers, len(g.idx), len(preds))) {
			fb := newFusedBatch(g.key, sub, preds, opt)
			tasks = append(tasks, func() {
				if eachChunk(ctx, t.Branches, opt, fb.feed) {
					fb.finishInto(out)
				}
			})
		}
	}
	for _, sub := range strideSplit(rest, taskShare(workers, len(rest), len(preds))) {
		tasks = append(tasks, func() {
			runBatch(ctx, preds, sub, t.Branches, opt, out)
		})
	}
	if len(tasks) == 1 {
		tasks[0]()
	} else {
		var wg sync.WaitGroup
		for _, task := range tasks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				task()
			}()
		}
		wg.Wait()
	}
	return out, ctx.Err()
}

// runBatch simulates the predictors preds[i], i in idx, over one
// branch stream chunk by chunk, replaying each chunk through every
// predictor before the next. It writes out[i] only when the stream
// runs to completion; a cancel leaves the batch's entries zero.
func runBatch(ctx context.Context, preds []core.Predictor, idx []int, branches []trace.Branch, opt Options, out []Metrics) {
	rs := make([]runner, len(idx))
	for j, i := range idx {
		rs[j] = newRunner(preds[i], opt)
	}
	if !eachChunk(ctx, branches, opt, func(chunk []trace.Branch) {
		for j := range rs {
			rs[j].feed(chunk)
		}
	}) {
		return
	}
	for j, i := range idx {
		out[i] = rs[j].finish()
	}
}

// taskShare apportions worker slots to a group of n configurations out
// of total, at least one and at most n.
func taskShare(workers, n, total int) int {
	if n == 0 {
		return 0
	}
	share := workers * n / total
	if share < 1 {
		share = 1
	}
	if share > n {
		share = n
	}
	return share
}

// strideSplit partitions idx into n strided sub-slices (w, w+n, ...),
// so that sweeps enumerated small-to-large spread their heavy
// configurations across workers.
func strideSplit(idx []int, n int) [][]int {
	if n <= 0 {
		return nil
	}
	subs := make([][]int, 0, n)
	for w := 0; w < n; w++ {
		var sub []int
		for i := w; i < len(idx); i += n {
			sub = append(sub, idx[i])
		}
		if len(sub) > 0 {
			subs = append(subs, sub)
		}
	}
	return subs
}
