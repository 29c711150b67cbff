package main

import (
	"fmt"
	"time"

	"sctuple/internal/cell"
	"sctuple/internal/core"
	"sctuple/internal/geom"
	"sctuple/internal/kernel"
	"sctuple/internal/md"
	"sctuple/internal/nlist"
	"sctuple/internal/parmd"
	"sctuple/internal/potential"
	"sctuple/internal/tuple"
	"sctuple/internal/workload"
)

// kernelShards matches the rank engines' fixed accumulation shard
// count, so the serial kernel pass reduces the same number of buffers.
const kernelShards = 16

// layerRig holds one configuration binned the way the workload's
// scheme bins it, on the global periodic lattice at the model's
// largest cutoff (the lattice every parallel scheme shares), plus the
// scheme's enumerators over it. All layer timings run on it.
type layerRig struct {
	s     spec
	model *potential.Model
	lat   cell.Lattice

	pos     []geom.Vec3
	species []int32
	ids     []int64

	bin   *cell.Binning
	enums []*tuple.Enumerator // SC: one per term; Hybrid: the raw FS(2) pair search
	pair  potential.Term
	trip  potential.Term

	// scratch reused across timed repetitions
	cells  []int32
	sorter cell.Sorter
	sortV  []geom.Vec3
	sortS  []int32
	sortI  []int64
}

func newLayerRig(s spec, model *potential.Model, cfg *workload.Config) (*layerRig, error) {
	lat, err := cell.NewLattice(cfg.Box, model.MaxCutoff())
	if err != nil {
		return nil, err
	}
	g := &layerRig{s: s, model: model, lat: lat}
	g.pos = append([]geom.Vec3(nil), cfg.Pos...)
	g.species = append([]int32(nil), cfg.Species...)
	g.ids = make([]int64, len(g.pos))
	for i := range g.ids {
		g.ids[i] = int64(i)
	}
	for _, t := range model.Terms {
		switch t.N() {
		case 2:
			g.pair = t
		case 3:
			g.trip = t
		}
	}
	if g.pair == nil || g.trip == nil {
		return nil, fmt.Errorf("model %q is not pair+triplet", model.Name)
	}
	g.bin = cell.NewBinning(lat, nil)
	g.rebin()
	if s.scheme == parmd.SchemeHybrid {
		en, err := tuple.NewEnumerator(g.bin, core.FS(2), g.pair.Cutoff(), tuple.DedupNone)
		if err != nil {
			return nil, err
		}
		g.enums = []*tuple.Enumerator{en}
	} else {
		for _, t := range model.Terms {
			pattern, err := md.FamilySC.Pattern(t.N())
			if err != nil {
				return nil, err
			}
			en, err := tuple.NewEnumerator(g.bin, pattern, t.Cutoff(), tuple.DedupAuto)
			if err != nil {
				return nil, err
			}
			g.enums = append(g.enums, en)
		}
	}
	for _, en := range g.enums {
		en.SetKeys(g.ids)
	}
	return g, nil
}

// rebin is the cell layer's per-step work on this configuration:
// assign cells, plan the canonical (cell, ID) sort, permute the atom
// arrays into it, and rebuild the binning.
func (g *layerRig) rebin() {
	n := len(g.pos)
	g.cells = g.cells[:0]
	for _, r := range g.pos {
		g.cells = append(g.cells, int32(g.lat.Linear(g.lat.CellOf(r))))
	}
	perm := g.sorter.Plan(g.lat.NumCells(), g.cells, g.ids)
	g.sortV = append(g.sortV[:0], g.pos...)
	g.sortS = append(g.sortS[:0], g.species...)
	g.sortI = append(g.sortI[:0], g.ids...)
	cell.Permute(g.pos[:n], g.sortV, perm)
	cell.Permute(g.species[:n], g.sortS, perm)
	cell.Permute(g.ids[:n], g.sortI, perm)
	g.bin.RebinKeyed(g.pos, g.ids)
}

// search runs the scheme's candidate search (Enumerator.Count) and
// returns the candidates it examined.
func (g *layerRig) search() int64 {
	var c int64
	for _, en := range g.enums {
		c += en.Count(g.pos).Candidates
	}
	return c
}

// tupleSet is a flat copy of the tuples of one term: species and
// image-resolved positions, n per tuple.
type tupleSet struct {
	n       int
	species []int32
	pos     []geom.Vec3
}

func (ts *tupleSet) add(sp []int32, pos []geom.Vec3) {
	ts.species = append(ts.species, sp...)
	ts.pos = append(ts.pos, pos...)
}

func (ts *tupleSet) len() int { return len(ts.species) / ts.n }

// emitted collects the tuples the workload's own traversal emits: the
// SC enumerations, or the Hybrid pair list's pairs and pruned
// triplets.
func (g *layerRig) emitted() (pairs, trips *tupleSet, err error) {
	pairs, trips = &tupleSet{n: 2}, &tupleSet{n: 3}
	var sp [3]int32
	if g.s.scheme == parmd.SchemeHybrid {
		pl, err := g.pairList()
		if err != nil {
			return nil, nil, err
		}
		pl.VisitPairs(func(i, j int32, disp geom.Vec3, _ float64) {
			if g.ids[i] < g.ids[j] {
				sp[0], sp[1] = g.species[i], g.species[j]
				pairs.add(sp[:2], []geom.Vec3{g.pos[i], g.pos[i].Add(disp)})
			}
		})
		pl.VisitTriplets(g.pos, g.trip.Cutoff(), func(atoms [3]int32, pos [3]geom.Vec3) {
			for m := range atoms {
				sp[m] = g.species[atoms[m]]
			}
			trips.add(sp[:3], pos[:])
		})
		return pairs, trips, nil
	}
	for _, en := range g.enums {
		set := pairs
		if en.N() == 3 {
			set = trips
		}
		en.Visit(g.pos, func(atoms []int32, pos []geom.Vec3) {
			for m := range atoms {
				sp[m] = g.species[atoms[m]]
			}
			set.add(sp[:len(atoms)], pos)
		})
	}
	return pairs, trips, nil
}

// pairList builds the Hybrid Verlet list over the binned configuration.
func (g *layerRig) pairList() (*nlist.PairList, error) {
	lb, err := nlist.NewBuilder(g.bin, g.pair.Cutoff(), g.ids)
	if err != nil {
		return nil, err
	}
	return lb.Build(g.pos)
}

// evalAll calls term.Eval on every tuple of the set.
func evalAll(term potential.Term, ts *tupleSet) float64 {
	var f [3]geom.Vec3
	e := 0.0
	n := ts.n
	for k := 0; k+n <= len(ts.species); k += n {
		clear(f[:n])
		e += term.Eval(ts.species[k:k+n], ts.pos[k:k+n], f[:n])
	}
	return e
}

// kernelPass is one serial full force evaluation through the kernel
// layer: TermKernel visitors writing into a Sharded accumulator, the
// scheme's own traversal (SC enumerations over all cells, split into
// shards; or the Hybrid pair list and its pruned triplets), ending at
// the fixed-order reduction.
type kernelPass struct {
	g      *layerRig
	acc    *kernel.Sharded
	force  []geom.Vec3
	cells  []geom.IVec3
	cellVs [][]tuple.Visitor                                // [slot][term]
	pairVs []func(i, j int32, disp geom.Vec3, dist float64) // [slot]
	tripV  func(atoms [3]int32, pos [3]geom.Vec3)           // slot 0
	pl     *nlist.PairList
}

func newKernelPass(g *layerRig) (*kernelPass, error) {
	k := &kernelPass{g: g, acc: kernel.NewSharded(kernelShards), force: make([]geom.Vec3, len(g.pos))}
	for i := 0; i < g.lat.NumCells(); i++ {
		k.cells = append(k.cells, g.lat.CellAt(i))
	}
	for s := 0; s < kernelShards; s++ {
		slot := k.acc.Slot(s)
		if g.s.scheme == parmd.SchemeHybrid {
			pk := kernel.TermKernel{Term: g.pair, Species: &g.species}
			k.pairVs = append(k.pairVs, pk.PairVisitor(slot, &g.pos))
			continue
		}
		var vs []tuple.Visitor
		for _, t := range g.model.Terms {
			tk := kernel.TermKernel{Term: t, Species: &g.species}
			vs = append(vs, tk.Visitor(slot))
		}
		k.cellVs = append(k.cellVs, vs)
	}
	if g.s.scheme == parmd.SchemeHybrid {
		tk := kernel.TermKernel{Term: g.trip, Species: &g.species}
		k.tripV = tk.TripletVisitor(k.acc.Slot(0))
		pl, err := g.pairList()
		if err != nil {
			return nil, err
		}
		k.pl = pl
	}
	return k, nil
}

// walk accumulates every tuple into the begun accumulator and returns
// the Hybrid triplet-pruning candidates (the SC walk counts its own
// into the slots). SC shards are cell chunks; Hybrid shards are atom
// chunks of the pair list.
func (k *kernelPass) walk() int64 {
	g := k.g
	if g.s.scheme == parmd.SchemeHybrid {
		n := len(g.pos)
		for s := 0; s < kernelShards; s++ {
			lo, hi := kernel.Chunk(n, kernelShards, s)
			pv := k.pairVs[s]
			for i := int32(lo); i < int32(hi); i++ {
				for e := k.pl.Start[i]; e < k.pl.Start[i+1]; e++ {
					if j := k.pl.Nbr[e]; g.ids[i] < g.ids[j] {
						pv(i, j, k.pl.Disp[e], k.pl.Dist[e])
					}
				}
			}
		}
		// Triplets are pruned per center from the whole list; the
		// stream goes to slot 0 (the serial layout of the engines).
		ts := k.pl.VisitTriplets(g.pos, g.trip.Cutoff(), k.tripV)
		return ts.ShortNeighbors + ts.PairsExamined
	}
	for ti, en := range g.enums {
		for s := 0; s < kernelShards; s++ {
			lo, hi := kernel.Chunk(len(k.cells), kernelShards, s)
			slot := k.acc.Slot(s)
			en.VisitCellsInto(k.cells[lo:hi], g.pos, k.cellVs[s][ti], &slot.Enum)
		}
	}
	return 0
}

// run does one timed pass: Begin, walk, End. It returns the whole
// pass's and the reduction's wall time, and the search candidates the
// walk examined (SC enumeration chains, or Hybrid triplet pruning).
func (k *kernelPass) run() (total, reduce time.Duration, candidates int64) {
	start := time.Now()
	k.acc.Begin(k.force)
	pruned := k.walk()
	mid := time.Now()
	_, cs := k.acc.End()
	end := time.Now()
	return end.Sub(start), end.Sub(mid), cs.SearchCandidates + pruned
}

// serialSim builds the plain single-threaded md baseline of the same
// system and scheme: the serial SC cell engine or the serial Hybrid
// engine.
func serialSim(s spec, model *potential.Model, cfg *workload.Config) (*md.Sim, error) {
	sys, err := md.NewSystem(cfg, model)
	if err != nil {
		return nil, err
	}
	var eng md.Engine
	if s.scheme == parmd.SchemeHybrid {
		eng, err = md.NewHybridEngine(model, cfg.Box)
	} else {
		eng, err = md.NewCellEngine(model, cfg.Box, md.FamilySC)
	}
	if err != nil {
		return nil, err
	}
	return md.NewSim(sys, eng, dtFs)
}
