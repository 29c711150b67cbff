package parmd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"sctuple/internal/cell"
	"sctuple/internal/comm"
	"sctuple/internal/core"
	"sctuple/internal/geom"
	"sctuple/internal/md"
	"sctuple/internal/potential"
	"sctuple/internal/tuple"
	"sctuple/internal/workload"
)

// referenceRows is the directed list as a Hybrid rank built it before
// rows were filled directly: a bounded FS(2) enumeration without dedup
// over the interior, then the boundary anchors, its raw pairs bucketed
// stably by first atom. It returns every owned atom's row and the
// enumeration's counters.
func referenceRows(r *rankState) ([][]hybridEntry, tuple.Stats, error) {
	en, err := tuple.NewBoundedEnumerator(r.bin, core.FS(2), r.pairTerm.Cutoff(), tuple.DedupNone)
	if err != nil {
		return nil, tuple.Stats{}, err
	}
	rows := make([][]hybridEntry, r.nOwned)
	emit := func(atoms []int32, pos []geom.Vec3) {
		d := pos[1].Sub(pos[0])
		rows[atoms[0]] = append(rows[atoms[0]], hybridEntry{j: atoms[1], disp: d, dist: d.Norm()})
	}
	var st tuple.Stats
	en.VisitCellsInto(r.interiorCells, r.lpos, emit, &st)
	en.VisitCellsInto(r.boundaryCells, r.lpos, emit, &st)
	return rows, st, nil
}

// compareRows checks every owned atom's list row against want: the
// same neighbours in the same order, with bit-identical displacements
// and distances.
func compareRows(r *rankState, want [][]hybridEntry) error {
	bits := math.Float64bits
	for i, w := range want {
		got := r.hybEntries[r.hybLo[i]:r.hybHi[i]]
		if len(got) != len(w) {
			return fmt.Errorf("atom %d (ID %d): row of %d entries, want %d", i, r.ids[i], len(got), len(w))
		}
		for k, e := range w {
			g := got[k]
			if g.j != e.j || bits(g.dist) != bits(e.dist) ||
				bits(g.disp.X) != bits(e.disp.X) || bits(g.disp.Y) != bits(e.disp.Y) || bits(g.disp.Z) != bits(e.disp.Z) {
				return fmt.Errorf("atom %d (ID %d) entry %d: got %+v, want %+v", i, r.ids[i], k, g, e)
			}
		}
	}
	return nil
}

// checkHybridRows compares the rows the last force evaluation built
// with the reference, and that evaluation's counters (RankStats deltas
// since before) with the ones the reference implies: the search's
// candidates plus the triplet pruning's, and the list entries. The
// pruning keeps an entry for the triplet expansion when it lies within
// the triplet cutoff and the triplet term's species link table admits
// its link to the center. It then refills the rows on their own and
// compares every search counter.
func checkHybridRows(r *rankState, before RankStats) error {
	want, wantSt, err := referenceRows(r)
	if err != nil {
		return err
	}
	if err := compareRows(r, want); err != nil {
		return fmt.Errorf("step rows: %w", err)
	}
	var entries, pruning int64
	rc3 := r.tripTerm.Cutoff()
	links := potential.SpeciesLinks(r.tripTerm)
	for i, row := range want {
		short := int64(0)
		for _, e := range row {
			if e.dist < rc3 && (links == nil || links[r.species[i]][r.species[e.j]]) {
				short++
			}
		}
		entries += int64(len(row))
		pruning += int64(len(row)) + short*(short-1)/2
	}
	if got := r.stats.SearchCandidates - before.SearchCandidates; got != wantSt.Candidates+pruning {
		return fmt.Errorf("step search candidates %d, want %d", got, wantSt.Candidates+pruning)
	}
	if got := r.stats.PairListEntries - before.PairListEntries; got != entries {
		return fmt.Errorf("step list entries %d, want %d", got, entries)
	}
	var st tuple.Stats
	r.hybridFill(r.interiorCells, true, &st)
	r.hybridFill(r.boundaryCells, false, &st)
	if st != wantSt {
		return fmt.Errorf("fill counters %v, want %v", st, wantSt)
	}
	if err := compareRows(r, want); err != nil {
		return fmt.Errorf("refilled rows: %w", err)
	}
	return nil
}

// canonicalOrder reports whether the owned storage is in the canonical
// (extended-lattice cell, global ID) order.
func canonicalOrder(r *rankState) bool {
	lc := make([]int32, r.nOwned)
	for i := range lc {
		lc[i] = int32(r.extLat.Linear(r.gcell[i].Sub(r.base)))
	}
	return cell.Ordered(lc, r.ids[:r.nOwned])
}

// TestHybridRowsMatchEnumerator: the rows a Hybrid rank fills directly
// are, entry for entry and bit for bit, the ones the bounded FS(2)
// enumeration plus stable bucketing produced, with identical search
// counters — on a 2-rank and a 2x2x2 topology, in both exchange modes,
// at the first step and after a step whose migration left owned
// storage out of canonical order (so the evaluation re-sorted it).
func TestHybridRowsMatchEnumerator(t *testing.T) {
	// Lattice sites sit on the rank boundary planes, so the first
	// drift migrates atoms.
	cfg, model := silicaConfig(t, 4, 600, 5)
	masses := make([]float64, len(model.Species))
	for i, s := range model.Species {
		masses[i] = s.Mass
	}
	const dt = 1.0
	for _, dims := range []geom.IVec3{{X: 2, Y: 1, Z: 1}, {X: 2, Y: 2, Z: 2}} {
		for _, overlap := range []bool{true, false} {
			label := fmt.Sprintf("%dx%dx%d/overlap=%v", dims.X, dims.Y, dims.Z, overlap)
			cart, err := comm.NewCartDims(dims)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := NewDecomp(cfg.Box, model.MaxCutoff(), cart)
			if err != nil {
				t.Fatal(err)
			}
			resorted := make([]bool, cart.Size())
			world := comm.NewWorld(cart.Size())
			defineTagClasses(world)
			err = world.Run(func(p *comm.Proc) error {
				r, err := newRankState(p, dec, model, SchemeHybrid, 2, overlap)
				if err != nil {
					return err
				}
				r.adopt(cfg)
				before := r.stats
				if _, err := r.computeForces(); err != nil {
					return err
				}
				if err := checkHybridRows(r, before); err != nil {
					return fmt.Errorf("rank %d, first step: %w", p.Rank(), err)
				}
				half := 0.5 * dt * md.ForceToAccel
				for i := 0; i < r.nOwned; i++ {
					r.vel[i] = r.vel[i].Add(r.force[i].Scale(half / masses[r.species[i]]))
					r.gpos[i] = r.gpos[i].Add(r.vel[i].Scale(dt))
				}
				if err := r.migrate(); err != nil {
					return err
				}
				resorted[p.Rank()] = !canonicalOrder(r)
				before = r.stats
				if _, err := r.computeForces(); err != nil {
					return err
				}
				if err := checkHybridRows(r, before); err != nil {
					return fmt.Errorf("rank %d, after migration: %w", p.Rank(), err)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			n := 0
			for _, s := range resorted {
				if s {
					n++
				}
			}
			if n == 0 {
				t.Fatalf("%s: no rank's storage needed a re-sort after migration", label)
			}
		}
	}
}

// BenchmarkHybridRows times one Hybrid rank's force work in the
// sc-fine layout (1,536 atoms of silica at 300 K on 2 ranks, one
// worker): filling the list rows of the interior and boundary anchors,
// then the pair and triplet evaluation over them. It reports the time
// per list entry; the steady state allocates nothing.
func BenchmarkHybridRows(b *testing.B) {
	model := potential.NewSilicaModel()
	cfg := workload.BetaCristobalite(4, 4, 4)
	cfg.Thermalize(rand.New(rand.NewSource(101)), model, 300)
	cart, _ := comm.NewCartDims(geom.IV(2, 1, 1))
	dec, err := NewDecomp(cfg.Box, model.MaxCutoff(), cart)
	if err != nil {
		b.Fatal(err)
	}
	world := comm.NewWorld(cart.Size())
	defineTagClasses(world)
	b.ReportAllocs()
	err = world.Run(func(p *comm.Proc) error {
		r, err := newRankState(p, dec, model, SchemeHybrid, 1, false)
		if err != nil {
			return err
		}
		r.adopt(cfg)
		if _, err := r.computeForces(); err != nil { // halo in place, storage warm
			return err
		}
		if p.Rank() != 0 {
			return nil
		}
		entries := len(r.hybEntries)
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			r.acc.Begin(r.force)
			r.evalInterior()
			r.evalBoundary()
			r.acc.End()
		}
		b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*entries), "ns/entry")
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
