package md

import (
	"fmt"
	"runtime"

	"sctuple/internal/cell"
	"sctuple/internal/geom"
	"sctuple/internal/kernel"
	"sctuple/internal/potential"
	"sctuple/internal/tuple"
)

// ConcurrentCellEngine exploits the concurrency property the paper
// highlights in §6: because SC executes different n-tuple computations
// independently — no sequential dependence like Hybrid-MD's
// list-then-prune pipeline — the cell search-spaces can be evaluated
// by any number of workers in parallel.
//
// The engine partitions each term's anchor cells across W shards of a
// kernel.Sharded accumulator; every worker enumerates its shard's
// cells with a private Enumerator and accumulates forces into the
// shard's private buffer, and the buffers are reduced in fixed shard
// order, so results are deterministic for a given worker count (force
// sums are floating-point-identical run to run, and agree with the
// serial engine to rounding).
type ConcurrentCellEngine struct {
	family  Family
	model   *potential.Model
	workers int

	lats  []cell.Lattice
	bins  []*cell.Binning
	cells [][]geom.IVec3 // all anchor cells per term

	canonLat cell.Lattice
	useSpans []bool // term lattice == canonical lattice

	// Per-worker, per-term enumerators (enumerators hold scratch and
	// must not be shared between goroutines).
	enums [][]*tuple.Enumerator

	// Per-slot, per-term visitors, bound once per System; the shard
	// function is hoisted so the step loop re-creates no closures.
	boundTo  *System
	visitors [][]tuple.Visitor
	runFn    func(w, s int)
	curTerm  int

	acc   *kernel.Sharded
	stats ComputeStats
}

// NewConcurrentCellEngine builds the engine with the given worker
// count; workers ≤ 0 selects GOMAXPROCS.
func NewConcurrentCellEngine(model *potential.Model, box geom.Box, family Family, workers int) (*ConcurrentCellEngine, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &ConcurrentCellEngine{
		family:  family,
		model:   model,
		workers: workers,
		acc:     kernel.NewSharded(workers),
	}
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
		bin := cell.NewBinning(lat, nil)
		e.lats = append(e.lats, lat)
		e.bins = append(e.bins, bin)
		e.useSpans = append(e.useSpans, term.Cutoff() == model.MaxCutoff())
		all := make([]geom.IVec3, 0, lat.NumCells())
		for i := 0; i < lat.NumCells(); i++ {
			all = append(all, lat.CellAt(i))
		}
		e.cells = append(e.cells, all)
	}
	e.enums = make([][]*tuple.Enumerator, workers)
	for w := 0; w < workers; w++ {
		for ti, term := range model.Terms {
			pattern, err := family.Pattern(term.N())
			if err != nil {
				return nil, err
			}
			en, err := tuple.NewEnumerator(e.bins[ti], pattern, term.Cutoff(), tuple.DedupAuto)
			if err != nil {
				return nil, fmt.Errorf("md: term n=%d: %w", term.N(), err)
			}
			e.enums[w] = append(e.enums[w], en)
		}
	}
	return e, nil
}

// Name implements Engine.
func (e *ConcurrentCellEngine) Name() string {
	return fmt.Sprintf("%s-MD(×%d)", e.family, e.workers)
}

// Workers returns the worker count.
func (e *ConcurrentCellEngine) Workers() int { return e.workers }

// bind caches per-slot visitors and the shard function for one
// System. Visitors read species and forces through pointers, so the
// caches survive re-sorts; only a System switch rebuilds them.
func (e *ConcurrentCellEngine) bind(sys *System) {
	if e.boundTo == sys {
		return
	}
	e.boundTo = sys
	slots := e.acc.Slots()
	e.visitors = e.visitors[:0]
	for s := 0; s < slots; s++ {
		slot := e.acc.Slot(s)
		vs := make([]tuple.Visitor, 0, len(e.model.Terms))
		for _, term := range e.model.Terms {
			k := kernel.TermKernel{Term: term, Species: &sys.Species}
			vs = append(vs, k.Visitor(slot))
		}
		e.visitors = append(e.visitors, vs)
	}
	for w := range e.enums {
		for ti, term := range e.model.Terms {
			e.enums[w][ti].SetKeys(sys.ID)
			e.enums[w][ti].SetLinks(sys.Species, potential.SpeciesLinks(term))
		}
	}
	e.runFn = func(w, s int) {
		ti := e.curTerm
		all := e.cells[ti]
		lo, hi := kernel.Chunk(len(all), e.acc.Slots(), s)
		if lo >= hi {
			return
		}
		slot := e.acc.Slot(s)
		e.enums[w][ti].VisitCellsInto(all[lo:hi], sys.Pos, e.visitors[s][ti], &slot.Enum)
	}
}

// Compute implements Engine: canonical sort, span (or keyed-CSR)
// rebin per term, then shard the anchor cells across the accumulator
// slots exactly as before — the chunk partition hangs off the cell
// list, so results stay bit-identical to the unsorted layout.
func (e *ConcurrentCellEngine) Compute(sys *System) (float64, error) {
	if sys.Model != e.model {
		return 0, fmt.Errorf("md: engine model %q does not match system model %q",
			e.model.Name, sys.Model.Name)
	}
	sys.EnsureLayout(e.canonLat)
	e.bind(sys)
	e.acc.Begin(sys.Force)
	for ti := range e.model.Terms {
		if e.useSpans[ti] {
			if err := e.bins[ti].RebinSpans(sys.CanonicalCells()); err != nil {
				return 0, fmt.Errorf("md: %w", err)
			}
		} else {
			e.bins[ti].RebinKeyed(sys.Pos, sys.ID)
		}
		e.curTerm = ti
		kernel.Run(e.acc.Slots(), e.workers, e.runFn)
	}
	// Deterministic reduction in fixed shard order.
	energy, stats := e.acc.End()
	e.stats = stats
	return energy, nil
}

// Stats implements Engine.
func (e *ConcurrentCellEngine) Stats() ComputeStats { return e.stats }
