package parmd

import (
	"time"

	"sctuple/internal/geom"
	"sctuple/internal/kernel"
)

// computeForces runs one complete force evaluation and returns this
// rank's share of the potential energy.
//
// The evaluation is two-stage in both exchange modes: interior cells
// (whose tuples touch no imported atoms) first, boundary cells second,
// with the accumulator's fixed shard order making the result
// bit-identical for every Workers setting. In the overlapped mode (the
// default) the halo exchange is posted before the interior stage and
// completed after it, so the import latency hides behind interior
// compute; the synchronous mode completes the exchange first and then
// runs the identical dispatch, so the two modes' forces agree bit for
// bit — the property the A/B determinism tests pin down.
//
// Owned cells hold only owned atoms under both binnings (halo copies
// land in margin cells), so the interior stage sees the same per-cell
// atom lists whether or not the halo has arrived; only the enumerator's
// probe of empty margin cells can differ, which affects search
// counters, never forces.
func (r *rankState) computeForces() (float64, error) {
	sp := r.rec.StartSpan(phaseBin)
	r.dropHalo()
	r.deriveOwned()
	r.canonicalizeOwned()
	sp.End()

	if r.overlap {
		sp = r.rec.StartSpan(phaseBin)
		err := r.rebin() // owned atoms only; margin cells are empty for the interior stage
		sp.End()
		if err != nil {
			return 0, r.rankErr("bin", err)
		}
		r.beginHalo()
		r.acc.Begin(r.force)
		r.evalInterior()
		if err := r.finishHalo(); err != nil {
			return 0, err
		}
		sp = r.rec.StartSpan(phaseBin)
		err = r.rebin() // full binning: the imports fill the margin cells
		sp.End()
		if err != nil {
			return 0, r.rankErr("bin", err)
		}
		r.acc.Grow(r.force) // the force array grew (and may have moved) with the imports
		r.evalBoundary()
	} else {
		if err := r.importHalo(); err != nil {
			return 0, err
		}
		sp = r.rec.StartSpan(phaseBin)
		err := r.rebin()
		sp.End()
		if err != nil {
			return 0, r.rankErr("bin", err)
		}
		r.acc.Begin(r.force)
		r.evalInterior()
		r.evalBoundary()
	}

	pe, cs := r.acc.End()
	r.stats.SearchCandidates += cs.SearchCandidates
	r.stats.TuplesEvaluated += cs.TuplesEvaluated
	r.stats.PairListEntries += cs.PairListEntries
	r.stats.Virial += cs.Virial

	if err := r.writeBackForces(); err != nil {
		return 0, err
	}
	r.stats.Steps++
	return pe, nil
}

// evalInterior runs the interior stage under the force:interior span —
// the work whose duration is the overlap budget for hiding the halo
// receives. For SC/FS it evaluates every term over interior cells; for
// Hybrid it runs the raw pair search anchored there (the evaluation
// loops need the complete directed list, so they stay in the boundary
// stage).
// Both stages also accumulate their wall time into RankStats.ForceNs —
// the force-work measure the adaptive balancer weighs ranks by. It is
// timed here, around the pure compute, so halo-wait time between the
// stages never counts as load.
func (r *rankState) evalInterior() {
	start := time.Now()
	sp := r.rec.StartSpan(phaseForceInterior)
	switch r.scheme {
	case SchemeSC, SchemeFS:
		r.evalCellTerms(false)
	case SchemeHybrid:
		r.hybridSearch(r.interiorCells, true)
	}
	sp.End()
	r.stats.ForceNs += time.Since(start).Nanoseconds()
}

// evalBoundary runs the boundary stage once the halo is complete. For
// SC/FS it is the force:boundary span over boundary cells; for Hybrid
// it finishes the raw search over boundary cells, builds the directed
// list, and runs the pair/triplet evaluation loops under their own
// spans (matching the serial Hybrid engine's phase decomposition).
func (r *rankState) evalBoundary() {
	start := time.Now()
	switch r.scheme {
	case SchemeSC, SchemeFS:
		sp := r.rec.StartSpan(phaseForceBoundary)
		r.evalCellTerms(true)
		sp.End()
	case SchemeHybrid:
		sp := r.rec.StartSpan(phaseSearch)
		r.hybridSearch(r.boundaryCells, false)
		r.hybridBuildList()
		sp.End()
		r.hybridEval()
	}
	r.stats.ForceNs += time.Since(start).Nanoseconds()
}

// evalCellTerms is the SC-/FS-MD force kernel over one stage: one
// bounded UCP enumeration per n-body term over the interior or
// boundary anchors of the term's search lattice, the cells split
// across the accumulator's shards by kernel.Chunk and executed by up
// to r.workers goroutines. The two stages' anchor lists are disjoint
// and fixed at initGeometry, so the per-shard accumulation order is a
// pure function of the partition — identical whether or not the
// stages were separated by a halo completion.
func (r *rankState) evalCellTerms(boundary bool) {
	for ti, sl := range r.termLat {
		r.curCells = sl.interior
		if boundary {
			r.curCells = sl.boundary
		}
		r.curTerm = ti
		kernel.Run(r.acc.Slots(), r.workers, r.cellFn)
	}
}

// hybridEntry is one directed Verlet-list entry i → j.
type hybridEntry struct {
	j    int32
	disp geom.Vec3
	dist float64
}

// rawPair is one raw emission of the FS(2) search, before bucketing
// into the directed list.
type rawPair struct {
	i, j int32
	disp geom.Vec3
}

// hybridSearch runs the raw full-shell pair search anchored at the
// given cell subset, appending emissions to the directed-list scratch.
// reset starts a fresh step (the interior stage); the boundary stage
// appends to it. Anchors are owned cells, so every emission's first
// atom is owned and the count array, sized by owned atoms, is valid
// even before the halo arrives. The search is serial — it is the
// sequential dependence §6 contrasts SC against.
func (r *rankState) hybridSearch(cells []geom.IVec3, reset bool) {
	slot0 := r.acc.Slot(0)
	if cap(r.hybCounts) < r.nOwned+1 {
		// Headroom: the owned count fluctuates under migration; an exact
		// fit would reallocate at every new high-water mark.
		r.hybCounts = make([]int32, r.nOwned+1+r.nOwned/8)
		r.hybFill = make([]int32, r.nOwned+r.nOwned/8)
	}
	r.hybCounts = r.hybCounts[:r.nOwned+1]
	if reset {
		clear(r.hybCounts)
		r.hybRaw = r.hybRaw[:0]
	}
	r.pairEnum.VisitCellsInto(cells, r.lpos, r.hybEmit, &slot0.Enum)
}

// hybridBuildList buckets the raw emissions into the directed list:
// start offsets per owned atom, then a stable fill. Raw order is
// interior anchors first, then boundary anchors — fixed by the cell
// partition, so the per-atom entry order (and with it the evaluation
// order) is identical in both exchange modes.
func (r *rankState) hybridBuildList() {
	counts := r.hybCounts[:r.nOwned+1]
	for i := 0; i < r.nOwned; i++ {
		counts[i+1] += counts[i]
	}
	if cap(r.hybEntries) < len(r.hybRaw) {
		// An eighth of headroom: the pair count fluctuates with thermal
		// motion, and an exact fit would reallocate at every new
		// high-water mark for the life of the run.
		r.hybEntries = make([]hybridEntry, 0, len(r.hybRaw)+len(r.hybRaw)/8)
	}
	r.hybEntries = r.hybEntries[:len(r.hybRaw)]
	entries := r.hybEntries
	fill := r.hybFill[:r.nOwned]
	clear(fill)
	for _, p := range r.hybRaw {
		k := counts[p.i] + fill[p.i]
		entries[k] = hybridEntry{j: p.j, disp: p.disp, dist: p.disp.Norm()}
		fill[p.i]++
	}
	r.acc.Slot(0).PairEntries += int64(len(entries))
}

// hybridEval is the Hybrid-MD force evaluation over the completed
// directed list: pair forces from the list (each pair evaluated on
// exactly one rank, chosen by global ID), and triplets pruned from
// each owned center's complete neighbor list. Both loops shard the
// owned atoms by global-ID rank and walk them in ID order (idOrder),
// so the accumulation stream — and with it the forces, bit for bit —
// is invariant under the canonical cell sort of the storage.
func (r *rankState) hybridEval() {
	r.ensureIDOrder()
	kernel.RunTimed(r.rec, kernel.TermPhase(2), r.acc.Slots(), r.workers, r.hybPairFn)
	if r.tripTerm != nil {
		kernel.RunTimed(r.rec, kernel.TermPhase(3), r.acc.Slots(), r.workers, r.hybTripFn)
	}
}
