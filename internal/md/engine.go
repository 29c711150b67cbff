package md

import (
	"fmt"

	"sctuple/internal/cell"
	"sctuple/internal/core"
	"sctuple/internal/geom"
	"sctuple/internal/kernel"
	"sctuple/internal/nlist"
	"sctuple/internal/potential"
	"sctuple/internal/tuple"
)

// Family selects the computation-pattern family of a cell engine.
type Family int

// Pattern families.
const (
	FamilySC Family = iota // shift-collapse patterns (SC-MD)
	FamilyFS               // full-shell patterns (FS-MD)
)

// String names the family.
func (f Family) String() string {
	switch f {
	case FamilySC:
		return "SC"
	case FamilyFS:
		return "FS"
	}
	return "?"
}

// Pattern returns the family's pattern for tuple length n, or an
// error for an unknown family (matching the error handling of
// NewCellEngineRadius).
func (f Family) Pattern(n int) (*core.Pattern, error) {
	switch f {
	case FamilySC:
		return core.SC(n), nil
	case FamilyFS:
		return core.FS(n), nil
	}
	return nil, fmt.Errorf("md: unknown pattern family %v", f)
}

// CellEngine evaluates all model terms by cell-based UCP enumeration
// with one pattern per tuple length — SC-MD when built with FamilySC,
// FS-MD with FamilyFS. Following §3.1.1 ("side lengths equal or
// slightly larger than r_cut-n"), every term enumerates on its own
// cell lattice sized by its own cutoff: the silica triplet term
// searches 2.6 Å cells rather than the 5.5 Å pair cells, which is
// what keeps the SC triplet search space compact.
//
// Storage layout: Compute first sorts the system into canonical
// (cell, ID) order over the model's MaxCutoff lattice (the coarsest
// term lattice). Terms on that lattice then walk contiguous storage
// spans with no indirection at all; finer-lattice terms bin CSR with
// ID-ordered cell lists, which makes their enumeration order equal to
// the canonical one regardless of storage order. Visitors and
// enumerator keys are bound once per System, so steady-state Compute
// calls allocate nothing.
type CellEngine struct {
	family Family
	model  *potential.Model
	lats   []cell.Lattice
	bins   []*cell.Binning
	enums  []*tuple.Enumerator

	canonLat cell.Lattice
	useSpans []bool // term lattice == canonical lattice

	boundTo  *System
	visitors []tuple.Visitor

	acc   *kernel.Direct
	stats ComputeStats
}

// NewCellEngine builds the engine for a model over a box, with one
// lattice, binning, and enumerator per term.
func NewCellEngine(model *potential.Model, box geom.Box, family Family) (*CellEngine, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	e := &CellEngine{family: family, model: model, acc: kernel.NewDirect()}
	canon, err := cell.NewLattice(box, model.MaxCutoff())
	if err != nil {
		return nil, fmt.Errorf("md: %w", err)
	}
	e.canonLat = canon
	for _, term := range model.Terms {
		lat, err := cell.NewLattice(box, term.Cutoff())
		if err != nil {
			return nil, fmt.Errorf("md: term n=%d: %w", term.N(), err)
		}
		pattern, err := family.Pattern(term.N())
		if err != nil {
			return nil, err
		}
		bin := cell.NewBinning(lat, nil)
		en, err := tuple.NewEnumerator(bin, pattern, term.Cutoff(), tuple.DedupAuto)
		if err != nil {
			return nil, fmt.Errorf("md: term n=%d: %w", term.N(), err)
		}
		e.lats = append(e.lats, lat)
		e.bins = append(e.bins, bin)
		e.enums = append(e.enums, en)
		e.useSpans = append(e.useSpans, term.Cutoff() == model.MaxCutoff())
	}
	return e, nil
}

// NewCellEngineRadius builds a cell engine in the midpoint mode of the
// paper's §6: every term enumerates on a lattice with cells of side ≥
// cutoff/k using radius-k shift-collapse (or full-shell) patterns.
// Finer cells hug the cutoff ball more tightly, trading pattern size
// for fewer distance-rejected candidates; k = 1 is NewCellEngine.
func NewCellEngineRadius(model *potential.Model, box geom.Box, family Family, k int) (*CellEngine, error) {
	if k < 1 {
		return nil, fmt.Errorf("md: cell radius %d < 1", k)
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	e := &CellEngine{family: family, model: model, acc: kernel.NewDirect()}
	canon, err := cell.NewLattice(box, model.MaxCutoff())
	if err != nil {
		return nil, fmt.Errorf("md: %w", err)
	}
	e.canonLat = canon
	for _, term := range model.Terms {
		lat, err := cell.NewLattice(box, term.Cutoff()/float64(k))
		if err != nil {
			return nil, fmt.Errorf("md: term n=%d: %w", term.N(), err)
		}
		var pattern *core.Pattern
		switch family {
		case FamilySC:
			pattern = core.SCRadius(term.N(), k)
		case FamilyFS:
			pattern = core.GenerateFSRadius(term.N(), k).Sort()
		default:
			return nil, fmt.Errorf("md: unknown family %v", family)
		}
		bin := cell.NewBinning(lat, nil)
		en, err := tuple.NewEnumerator(bin, pattern, term.Cutoff(), tuple.DedupAuto)
		if err != nil {
			return nil, fmt.Errorf("md: term n=%d: %w", term.N(), err)
		}
		e.lats = append(e.lats, lat)
		e.bins = append(e.bins, bin)
		e.enums = append(e.enums, en)
		e.useSpans = append(e.useSpans, term.Cutoff()/float64(k) == model.MaxCutoff())
	}
	return e, nil
}

// Name implements Engine.
func (e *CellEngine) Name() string { return e.family.String() + "-MD" }

// Lattice returns the cell lattice of term i.
func (e *CellEngine) Lattice(i int) cell.Lattice { return e.lats[i] }

// bind caches the per-term visitors, enumerator dedup keys and species
// link tables for one System. The visitors read species, forces, and
// positions through pointers, and the keys and tables alias the
// System's arrays, so they survive re-sorts; only switching the engine
// to a different System rebuilds them.
func (e *CellEngine) bind(sys *System) {
	if e.boundTo == sys {
		return
	}
	e.boundTo = sys
	slot := e.acc.Slot(0)
	e.visitors = e.visitors[:0]
	for ti, term := range e.model.Terms {
		k := kernel.TermKernel{Term: term, Species: &sys.Species}
		e.visitors = append(e.visitors, k.Visitor(slot))
		e.enums[ti].SetKeys(sys.ID)
		e.enums[ti].SetLinks(sys.Species, potential.SpeciesLinks(term))
	}
}

// Compute implements Engine: sort storage into the canonical layout,
// rebin per term (contiguous spans on the canonical lattice, keyed CSR
// on finer ones), enumerate each term's force set, and evaluate
// through the shared kernel layer into the direct (single-buffer)
// accumulator. Steady-state calls allocate nothing.
func (e *CellEngine) Compute(sys *System) (float64, error) {
	if sys.Model != e.model {
		return 0, fmt.Errorf("md: engine model %q does not match system model %q",
			e.model.Name, sys.Model.Name)
	}
	sys.EnsureLayout(e.canonLat)
	e.bind(sys)
	e.acc.Begin(sys.Force)
	slot := e.acc.Slot(0)
	for ti := range e.model.Terms {
		if e.useSpans[ti] {
			if err := e.bins[ti].RebinSpans(sys.CanonicalCells()); err != nil {
				return 0, fmt.Errorf("md: %w", err)
			}
		} else {
			e.bins[ti].RebinKeyed(sys.Pos, sys.ID)
		}
		e.enums[ti].VisitInto(sys.Pos, e.visitors[ti], &slot.Enum)
	}
	energy, stats := e.acc.End()
	e.stats = stats
	return energy, nil
}

// Stats implements Engine.
func (e *CellEngine) Stats() ComputeStats { return e.stats }

// HybridEngine reproduces the paper's production Hybrid-MD baseline:
// the pair term is evaluated from a Verlet pair list built by a
// full-shell cell search each step, and the triplet term is pruned
// directly from that list using the shorter triplet cutoff — no
// second cell search. It supports models with exactly one pair term
// and at most one triplet term (the silica application of §5).
type HybridEngine struct {
	model   *potential.Model
	lat     cell.Lattice
	bin     *cell.Binning
	pair    potential.Term
	triplet potential.Term // nil when the model is pair-only
	// tripLinks is the triplet term's species link table: triplet
	// pruning drops neighbours whose link to the center it does not
	// admit (nil admits all).
	tripLinks [][]bool

	canonLat cell.Lattice

	// skin > 0 enables Verlet-list reuse: the list is built with
	// cutoff r+skin and refreshed in place until some atom has moved
	// more than skin/2 since the build. The list indexes storage
	// slots, so it is additionally invalidated when the system's
	// layout epoch moved (some other engine re-sorted the storage);
	// the engine itself re-sorts only at rebuild steps.
	skin       float64
	builder    *nlist.Builder
	pl         *nlist.PairList
	buildPos   []geom.Vec3
	buildEpoch uint64
	rebuilds   int64

	boundTo *System
	pairV   func(i, j int32, disp geom.Vec3, dist float64)
	tripV   func(atoms [3]int32, pos [3]geom.Vec3)

	acc   *kernel.Direct
	stats ComputeStats
}

// NewHybridEngine builds the engine; it rejects models outside the
// pair(+triplet) shape, mirroring the specialization of the production
// code the paper describes.
func NewHybridEngine(model *potential.Model, box geom.Box) (*HybridEngine, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	e := &HybridEngine{model: model, acc: kernel.NewDirect()}
	for _, t := range model.Terms {
		switch t.N() {
		case 2:
			if e.pair != nil {
				return nil, fmt.Errorf("md: hybrid engine supports one pair term")
			}
			e.pair = t
		case 3:
			if e.triplet != nil {
				return nil, fmt.Errorf("md: hybrid engine supports one triplet term")
			}
			e.triplet = t
			e.tripLinks = potential.SpeciesLinks(t)
		default:
			return nil, fmt.Errorf("md: hybrid engine cannot handle n=%d terms", t.N())
		}
	}
	if e.pair == nil {
		return nil, fmt.Errorf("md: hybrid engine needs a pair term")
	}
	if e.triplet != nil && e.triplet.Cutoff() > e.pair.Cutoff() {
		return nil, fmt.Errorf("md: hybrid engine needs r_cut3 ≤ r_cut2 (have %g > %g)",
			e.triplet.Cutoff(), e.pair.Cutoff())
	}
	lat, err := cell.NewLattice(box, e.pair.Cutoff())
	if err != nil {
		return nil, fmt.Errorf("md: %w", err)
	}
	canon, err := cell.NewLattice(box, model.MaxCutoff())
	if err != nil {
		return nil, fmt.Errorf("md: %w", err)
	}
	e.canonLat = canon
	e.lat = lat
	e.bin = cell.NewBinning(lat, nil)
	return e, nil
}

// NewHybridEngineSkin builds a Hybrid engine whose Verlet list is
// built with cutoff r+skin and reused across steps until an atom has
// moved more than skin/2 — the standard production optimization over
// the paper's per-step rebuild. The skin must be positive and small
// enough that the skinned cutoff still fits the cell lattice
// (skin ≤ r/2 is always safe).
func NewHybridEngineSkin(model *potential.Model, box geom.Box, skin float64) (*HybridEngine, error) {
	if !(skin > 0) {
		return nil, fmt.Errorf("md: skin %g must be positive", skin)
	}
	e, err := NewHybridEngine(model, box)
	if err != nil {
		return nil, err
	}
	skinned := e.pair.Cutoff() + skin
	lat, err := cell.NewLattice(box, skinned)
	if err != nil {
		return nil, fmt.Errorf("md: skinned cutoff: %w", err)
	}
	if !lat.MinSpanOK(3) {
		return nil, fmt.Errorf("md: box too small for skinned cutoff %g", skinned)
	}
	e.lat = lat
	e.bin = cell.NewBinning(lat, nil)
	e.skin = skin
	return e, nil
}

// ListRebuilds returns how many times the Verlet list was rebuilt
// (always one per Compute when no skin is configured).
func (e *HybridEngine) ListRebuilds() int64 { return e.rebuilds }

// listIsStale reports whether the Verlet list must be rebuilt: the
// storage layout moved under it (slot indices would dangle), or some
// atom moved more than skin/2 since the build.
func (e *HybridEngine) listIsStale(sys *System) bool {
	if e.pl == nil || e.buildEpoch != sys.LayoutEpoch() || len(e.buildPos) != sys.N() {
		return true
	}
	limit2 := (e.skin / 2) * (e.skin / 2)
	for i, r := range sys.Pos {
		if sys.Box.Displacement(e.buildPos[i], r).Norm2() > limit2 {
			return true
		}
	}
	return false
}

// bind caches the builder (whose pattern generation is expensive) and
// the pair/triplet visitors for one System; they read species and
// positions through pointers and so survive re-sorts.
func (e *HybridEngine) bind(sys *System) error {
	if e.boundTo == sys {
		return nil
	}
	e.boundTo = sys
	b, err := nlist.NewBuilder(e.bin, e.pair.Cutoff()+e.skin, sys.ID)
	if err != nil {
		return err
	}
	e.builder = b
	e.pl = nil // slot indices of a previous system are meaningless
	slot := e.acc.Slot(0)
	pairK := kernel.TermKernel{Term: e.pair, Species: &sys.Species}
	e.pairV = pairK.PairVisitor(slot, &sys.Pos)
	if e.triplet != nil {
		tripK := kernel.TermKernel{Term: e.triplet, Species: &sys.Species}
		e.tripV = tripK.TripletVisitor(slot)
	}
	return nil
}

// Name implements Engine.
func (e *HybridEngine) Name() string { return "Hybrid-MD" }

// Compute implements Engine. Storage is sorted into the canonical
// layout at every list rebuild (every step without a skin); between
// skinned rebuilds the storage is left untouched so the list's slot
// indices stay valid, and pair/triplet streams are walked in global-ID
// row order so the accumulation order is independent of the layout.
func (e *HybridEngine) Compute(sys *System) (float64, error) {
	if sys.Model != e.model {
		return 0, fmt.Errorf("md: engine model %q does not match system model %q",
			e.model.Name, sys.Model.Name)
	}
	if err := e.bind(sys); err != nil {
		return 0, err
	}
	rebuild := e.skin == 0 || e.listIsStale(sys)
	if rebuild {
		sys.EnsureLayout(e.canonLat)
	}
	e.acc.Begin(sys.Force)
	slot := e.acc.Slot(0)

	if rebuild {
		e.bin.RebinKeyed(sys.Pos, sys.ID)
		fresh, err := e.builder.Build(sys.Pos)
		if err != nil {
			return 0, err
		}
		e.pl = fresh
		e.buildEpoch = sys.LayoutEpoch()
		e.rebuilds++
		slot.Enum.Candidates = fresh.BuildStats.Candidates
		slot.Enum.PathApplications = fresh.BuildStats.PathApplications
		if e.skin > 0 {
			e.buildPos = append(e.buildPos[:0], sys.Pos...)
		}
	} else {
		e.pl.Refresh(sys.Box, sys.Pos)
		slot.Enum.Candidates = int64(e.pl.NumEntries())
	}
	pl := e.pl
	slot.PairEntries = int64(pl.NumEntries())

	pl.VisitPairsOrdered(sys.SlotByID(), sys.ID, e.pairV)

	if e.triplet != nil {
		tst := pl.VisitTripletsOrdered(sys.SlotByID(), sys.Pos, sys.Species, e.tripLinks, e.triplet.Cutoff(), e.tripV)
		// The pruning scan and the neighbor-pair expansion are the
		// triplet search cost of Hybrid-MD.
		slot.Enum.Candidates += tst.ShortNeighbors + tst.PairsExamined
	}
	energy, stats := e.acc.End()
	e.stats = stats
	return energy, nil
}

// Stats implements Engine.
func (e *HybridEngine) Stats() ComputeStats { return e.stats }
