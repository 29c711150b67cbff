package parmd

import (
	"time"

	"sctuple/internal/geom"
	"sctuple/internal/kernel"
	"sctuple/internal/tuple"
)

// computeForces runs one complete force evaluation and returns this
// rank's share of the potential energy.
//
// A list rebuild (r.rebuild; DESIGN.md §5.21) re-derives and re-sorts
// the owned storage, rebins, imports whole halo records and searches
// every term at r_cut + skin, recording the tuple lists (Hybrid: the
// rows) as it evaluates them. Every other evaluation keeps storage,
// binning, import set and lists: it refreshes the owned local
// positions, imports halo positions only, and evaluates the recorded
// lists with exact-cutoff link tests. Both kinds run the same pipeline
// below.
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
	if r.rebuild {
		r.dropHalo()
		r.deriveOwned()
		r.canonicalizeOwned()
	} else {
		r.refreshOwned()
	}
	sp.End()

	if r.overlap {
		// Owned atoms only: margin cells are empty for the interior stage.
		if err := r.rebinOnRebuild(); err != nil {
			return 0, err
		}
		r.acc.Begin(r.force) // rebuild: owned atoms; Grow widens it once the imports land
		if err := r.beginHalo(); err != nil {
			return 0, err
		}
		r.evalInterior()
		if err := r.finishHalo(); err != nil {
			return 0, err
		}
		// Full binning: the imports fill the margin cells.
		if err := r.rebinOnRebuild(); err != nil {
			return 0, err
		}
		r.acc.Grow(r.force) // the force array grew (and may have moved) with the imports
		r.evalBoundary()
	} else {
		if err := r.importHalo(); err != nil {
			return 0, err
		}
		if err := r.rebinOnRebuild(); err != nil {
			return 0, err
		}
		r.acc.Begin(r.force)
		r.evalInterior()
		r.evalBoundary()
	}

	pe, cs := r.acc.End()
	r.stats.SearchCandidates += cs.SearchCandidates
	r.stats.TuplesEvaluated += cs.TuplesEvaluated
	r.stats.PairListEntries += cs.PairListEntries
	r.stats.ListEntries += r.listEntries()
	r.stats.Virial += cs.Virial

	if err := r.writeBackForces(); err != nil {
		return 0, err
	}
	if r.rebuild {
		r.markBuilt()
	}
	r.stats.Steps++
	return pe, nil
}

// rebinOnRebuild rebins under the bin span on a list rebuild; between
// rebuilds the binning of the last rebuild stays in place.
func (r *rankState) rebinOnRebuild() error {
	if !r.rebuild {
		return nil
	}
	sp := r.rec.StartSpan(phaseBin)
	err := r.rebin()
	sp.End()
	if err != nil {
		return r.rankErr("bin", err)
	}
	return nil
}

// evalInterior runs the interior stage under the force:interior span —
// the work whose duration is the overlap budget for hiding the halo
// receives. For SC/FS it evaluates every term over interior cells; for
// Hybrid it fills (on a rebuild) and prunes for the triplet loop the
// list rows of the atoms in interior cells (the evaluation loops need
// the complete directed list, so they stay in the boundary stage).
// Both stages also accumulate their wall time into RankStats.ForceNs —
// the force-work measure the adaptive balancer weighs ranks by. It is
// timed here, around the pure compute, so halo-wait time between the
// stages never counts as load.
func (r *rankState) evalInterior() {
	start := time.Now()
	sp := r.rec.StartSpan(phaseForceInterior)
	switch {
	case r.scheme != SchemeHybrid:
		r.evalCellTerms(false)
	default:
		if r.rebuild {
			r.hybridFill(r.interiorCells, true, &r.acc.Slot(0).Enum)
		}
		r.hybridPrune(r.interiorCells)
	}
	sp.End()
	r.stats.ForceNs += time.Since(start).Nanoseconds()
}

// evalBoundary runs the boundary stage once the halo is complete. For
// SC/FS it is the force:boundary span over boundary cells. For Hybrid
// it fills, on a rebuild, the rows of the atoms in boundary cells,
// completing the directed list, then runs the pair and triplet loops
// under their own spans (the serial Hybrid engine's phase
// decomposition): pair forces from the list (each pair evaluated on
// exactly one rank, chosen by global ID), and triplets pruned from each
// owned center's complete row. Both loops walk owned atoms in global-ID order (idOrder), so
// the forces are bit-identical under the canonical cell sort.
func (r *rankState) evalBoundary() {
	start := time.Now()
	switch r.scheme {
	case SchemeSC, SchemeFS:
		sp := r.rec.StartSpan(phaseForceBoundary)
		r.evalCellTerms(true)
		sp.End()
	case SchemeHybrid:
		sp := r.rec.StartSpan(phaseSearch)
		slot0 := r.acc.Slot(0)
		if r.rebuild {
			r.hybridFill(r.boundaryCells, false, &slot0.Enum)
		}
		slot0.PairEntries += int64(len(r.hybEntries))
		sp.End()
		r.ensureIDOrder()
		kernel.RunTimed(r.rec, kernel.TermPhase(2), r.acc.Slots(), r.workers, r.hybPairFn)
		if r.tripTerm != nil {
			kernel.RunTimed(r.rec, kernel.TermPhase(3), r.acc.Slots(), r.workers, r.hybTripFn)
		}
	}
	r.stats.ForceNs += time.Since(start).Nanoseconds()
}

// evalCellTerms is the SC-/FS-MD force kernel over one stage. On a
// rebuild it runs one bounded UCP enumeration per n-body term over the
// interior or boundary anchors of the term's search lattice, the cells
// split across the accumulator's shards by kernel.Chunk and executed
// by up to r.workers goroutines, recording each shard's tuples; on the
// steps between it walks those per-shard lists instead. The two
// stages' anchor lists are disjoint and fixed at initGeometry, so the
// per-shard accumulation order is a pure function of the partition —
// identical whether or not the stages were separated by a halo
// completion.
func (r *rankState) evalCellTerms(boundary bool) {
	fn := r.listFn
	if r.rebuild {
		fn = r.cellFn
	}
	r.curStage = 0
	if boundary {
		r.curStage = 1
	}
	for ti, sl := range r.termLat {
		r.curCells = sl.interior
		if boundary {
			r.curCells = sl.boundary
		}
		r.curTerm = ti
		kernel.Run(r.acc.Slots(), r.workers, fn)
	}
}

// hybridFill fills the list rows of the owned atoms in the given
// anchor cells (DESIGN.md §5.19): row hybEntries[hybLo[i]:hybHi[i]] lists
// every j within the pair cutoff plus skin over the FS(2) cells in
// pattern order, each in storage order — the order a bounded FS(2)
// enumeration at r_cut2 + skin emits i's pairs in — and st gains that
// enumeration's counters. reset starts a rebuild (the interior stage).
// The fill is serial — it is the sequential dependence §6 contrasts SC
// against.
func (r *rankState) hybridFill(cells []geom.IVec3, reset bool, st *tuple.Stats) {
	if cap(r.hybLo) < r.nOwned {
		// Headroom: the owned count fluctuates under migration.
		r.hybLo, r.hybHi = make([]int32, r.nOwned+r.nOwned/8), make([]int32, r.nOwned+r.nOwned/8)
	}
	r.hybLo, r.hybHi = r.hybLo[:r.nOwned], r.hybHi[:r.nOwned]
	if reset {
		r.hybEntries, r.hybFilled = r.hybEntries[:0], 0
	}
	rl := r.pairTerm.Cutoff() + r.skin
	rl2 := rl * rl
	rows := r.hybEntries
	var lo, hi [len(r.hybOff)]int32
	for _, q := range cells {
		st.Cells++
		st.PathApplications += int64(len(r.hybOff))
		// Anchors are owned cells and the margins are at least one cell
		// thick, so every covered cell lies on the extended lattice.
		aLo, aHi := r.bin.CellSpan(r.extLat.Linear(q))
		nA, covered := int64(aHi-aLo), 0
		for c, v := range r.hybOff {
			lo[c], hi[c] = r.bin.CellSpan(r.extLat.Linear(q.Add(v)))
			if n := int(hi[c] - lo[c]); n > 0 {
				st.Candidates += nA * int64(1+n)
				covered += n
			}
		}
		for i := aLo; i < aHi; i++ {
			if len(rows)+covered > cap(rows) {
				// Grow to the step total projected from the rows filled so
				// far, plus an eighth of headroom (DESIGN.md §5.12).
				need := len(rows) + covered
				if filled := r.hybFilled + int(i-aLo); filled > 0 {
					need = max(need, len(rows)*r.nOwned/filled)
				}
				rows = append(make([]int32, 0, need+need/8), rows...)
			}
			ri := r.lpos[i]
			r.hybLo[i] = int32(len(rows))
			for c := range r.hybOff {
				for j := lo[c]; j < hi[c]; j++ {
					if j == i {
						st.DuplicateAtom++
						continue
					}
					d := r.lpos[j].Sub(ri)
					if d.Norm2() >= rl2 {
						st.DistancePruned++
						continue
					}
					rows = append(rows, j)
				}
			}
			r.hybHi[i] = int32(len(rows))
			st.Emitted += int64(r.hybHi[i] - r.hybLo[i])
		}
		r.hybFilled += int(nA)
	}
	r.hybEntries = rows
}
