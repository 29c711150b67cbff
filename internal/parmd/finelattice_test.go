package parmd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sctuple/internal/cell"
	"sctuple/internal/comm"
	"sctuple/internal/geom"
	"sctuple/internal/kernel"
	"sctuple/internal/potential"
	"sctuple/internal/tuple"
	"sctuple/internal/workload"
)

// bruteForces evaluates every model term over Γ*(n) as enumerated by
// tuple.BruteForce — no cells, minimum-image chains — and returns the
// forces by configuration index and the potential energy. Only the
// term kernel is shared with the code under test.
func bruteForces(cfg *workload.Config, model *potential.Model) ([]geom.Vec3, float64) {
	force := make([]geom.Vec3, len(cfg.Pos))
	acc := kernel.NewDirect()
	acc.Begin(force)
	species := cfg.Species
	for _, term := range model.Terms {
		visit := kernel.TermKernel{Term: term, Species: &species}.Visitor(acc.Slot(0))
		pos := make([]geom.Vec3, term.N())
		for _, chain := range tuple.BruteForce(cfg.Box, cfg.Pos, term.N(), term.Cutoff()) {
			pos[0] = cfg.Pos[chain[0]]
			for k := 1; k < len(chain); k++ {
				pos[k] = pos[k-1].Add(cfg.Box.Displacement(cfg.Pos[chain[k-1]], cfg.Pos[chain[k]]))
			}
			visit(chain, pos)
		}
	}
	pe, _ := acc.End()
	return force, pe
}

// nudgeOntoPlanes moves every atom lying within 0.25 Å of a sub-cell
// plane of the triplet search lattice over the pair lattice lat (which
// contains every pair-cell and so every rank plane) to within 1e-12 Å
// of it, alternating sides. It returns how many coordinates landed on
// sub-cell planes and how many of those on the rank planes of a 2-way
// split of every axis.
func nudgeOntoPlanes(t *testing.T, cfg *workload.Config, model *potential.Model, lat cell.Lattice) (fine, rank int) {
	t.Helper()
	k := subCells(lat.Side, model.Terms[1].Cutoff())
	if k != 2 {
		t.Fatalf("silica triplet sub-cells per pair cell = %d, want 2", k)
	}
	for i := range cfg.Pos {
		r := cfg.Pos[i]
		for axis := 0; axis < 3; axis++ {
			fineSide := lat.Side.Comp(axis) / float64(k)
			plane := math.Round(r.Comp(axis) / fineSide)
			x := plane * fineSide
			if math.Abs(r.Comp(axis)-x) > 0.25 {
				continue
			}
			fine++
			// A 2-way split puts the rank plane at pair cell ⌈dims/2⌉.
			if int(plane) == k*((lat.Dims.Comp(axis)+1)/2) {
				rank++
			}
			if (i+axis)%2 == 0 {
				x += 1e-12
			} else {
				x -= 1e-12
			}
			r.SetComp(axis, x)
		}
		cfg.Pos[i] = cfg.Box.Wrap(r)
	}
	return fine, rank
}

// requireForces compares a parallel run's forces and energy against
// the brute-force reference.
func requireForces(t *testing.T, label string, got []geom.Vec3, gotPE float64, want []geom.Vec3, wantPE float64) {
	t.Helper()
	if rel := math.Abs(gotPE-wantPE) / math.Abs(wantPE); rel > 1e-10 {
		t.Errorf("%s: PE %.12g, brute force %.12g (rel %g)", label, gotPE, wantPE, rel)
	}
	for i := range want {
		if d := got[i].Sub(want[i]).Norm(); d > 1e-8*(1+want[i].Norm()) {
			t.Errorf("%s: atom %d force differs from brute force by %g", label, i, d)
			return
		}
	}
}

// TestFineLatticeMatchesBruteForce is the adversarial check of the
// per-term rank lattices: SC-MD and FS-MD forces and energy equal the
// cell-free brute-force reference on silica with atoms pinned to
// within 1e-12 Å of the sub-cell and rank planes of the lattice each
// scheme runs on (Scheme.lattice: FS-MD's 5.73 Å cells, SC-MD's even
// 7.16 Å ones with 3.58 Å triplet sub-cells on the cubic box), on a
// cubic and a non-cubic box, 1-D and 3-D topologies, 1 and 3 workers,
// overlapped and synchronous exchange.
func TestFineLatticeMatchesBruteForce(t *testing.T) {
	if testing.Short() {
		t.Skip("32 parallel force evaluations against O(N²) references")
	}
	type pinned struct {
		cfg *workload.Config
		f   []geom.Vec3
		pe  float64
	}
	for _, uc := range []geom.IVec3{{X: 4, Y: 4, Z: 4}, {X: 5, Y: 4, Z: 4}} {
		model := potential.NewSilicaModel()
		base := workload.BetaCristobalite(uc.X, uc.Y, uc.Z)
		base.Thermalize(rand.New(rand.NewSource(int64(uc.X))), model, 300)
		// One pinned copy of the configuration, and its reference, per
		// lattice the schemes run on.
		refs := map[geom.IVec3]pinned{}
		for _, dims := range []geom.IVec3{{X: 2, Y: 1, Z: 1}, {X: 2, Y: 2, Z: 2}} {
			cart, err := comm.NewCartDims(dims)
			if err != nil {
				t.Fatal(err)
			}
			for _, scheme := range []Scheme{SchemeSC, SchemeFS} {
				lat, err := scheme.lattice(base.Box, model, cart)
				if err != nil {
					t.Fatal(err)
				}
				ref, ok := refs[lat.Dims]
				if !ok {
					cfg := *base
					cfg.Pos = append([]geom.Vec3(nil), base.Pos...)
					fine, rank := nudgeOntoPlanes(t, &cfg, model, lat)
					if fine == 0 || rank == 0 {
						t.Fatalf("%v on %v cells: nudged %d sub-cell and %d rank-plane coordinates; want both > 0",
							uc, lat.Dims, fine, rank)
					}
					ref.cfg = &cfg
					ref.f, ref.pe = bruteForces(&cfg, model)
					refs[lat.Dims] = ref
				}
				for _, workers := range []int{1, 3} {
					for _, noOverlap := range []bool{false, true} {
						label := fmt.Sprintf("%v/%v/%v on %v cells/workers=%d/sync=%v", uc, dims, scheme, lat.Dims, workers, noOverlap)
						res, err := Run(ref.cfg, model, Options{
							Scheme: scheme, Cart: cart, Dt: 1, Steps: 0,
							Workers: workers, NoOverlap: noOverlap,
						})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if res.Cells != lat.Dims {
							t.Fatalf("%s: run laid %v cells", label, res.Cells)
						}
						requireForces(t, label, res.Forces, res.InitialPotential, ref.f, ref.pe)
					}
				}
			}
		}
	}
}

// TestFineLatticeRepartitionMatchesBruteForce: after a repartition
// rebuilds the sub-cell lattices on moved slab boundaries, SC-MD and
// FS-MD forces still equal the brute-force reference.
func TestFineLatticeRepartitionMatchesBruteForce(t *testing.T) {
	cfg, model := silicaConfig(t, 4, 300, 3)
	cart, err := comm.NewCartDims(geom.IV(2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	decA, err := NewDecomp(cfg.Box, model.MaxCutoff(), cart)
	if err != nil {
		t.Fatal(err)
	}
	nudgeOntoPlanes(t, cfg, model, decA.Lat)
	wantF, wantPE := bruteForces(cfg, model)
	var starts [3][]int
	for axis := 0; axis < 3; axis++ {
		starts[axis] = decA.Starts(axis)
		starts[axis][1]--
	}
	decB, err := NewDecompStarts(decA.Lat, cart, starts)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []Scheme{SchemeSC, SchemeFS} {
		got := make([]geom.Vec3, len(cfg.Pos))
		pes := make([]float64, cart.Size())
		world := comm.NewWorld(cart.Size())
		defineTagClasses(world)
		err := world.Run(func(p *comm.Proc) error {
			r, err := newRankState(p, decA, model, scheme, 3, true)
			if err != nil {
				return err
			}
			r.adopt(cfg)
			if _, err := r.computeForces(); err != nil {
				return err
			}
			if err := r.repartition(decB); err != nil {
				return err
			}
			pe, err := r.computeForces()
			if err != nil {
				return err
			}
			pes[p.Rank()] = pe
			for i := 0; i < r.nOwned; i++ {
				got[r.ids[i]] = r.force[i]
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		pe := 0.0
		for _, e := range pes {
			pe += e
		}
		requireForces(t, scheme.String()+"/repartitioned", got, pe, wantF, wantPE)
	}
}

// TestFineLatticeGeometry: silica triplets search a 2× sub-cell
// lattice and pairs the pair lattice; a sub-cell lattice's anchors are
// exactly the children of the owned pair cells, interior exactly when
// the parent pair cell is.
func TestFineLatticeGeometry(t *testing.T) {
	cfg, model := silicaConfig(t, 4, 0, 0)
	for _, scheme := range []Scheme{SchemeSC, SchemeFS} {
		cart, _ := comm.NewCartDims(geom.IV(2, 2, 1))
		dec, err := NewDecomp(cfg.Box, model.MaxCutoff(), cart)
		if err != nil {
			t.Fatal(err)
		}
		world := comm.NewWorld(cart.Size())
		defineTagClasses(world)
		err = world.Run(func(p *comm.Proc) error {
			r, err := newRankState(p, dec, model, scheme, 1, true)
			if err != nil {
				return err
			}
			if len(r.termLat) != 2 || r.termLat[0].k != 1 || r.termLat[1].k != 2 || len(r.fine) != 1 {
				return fmt.Errorf("term lattices k = %d, %d (%d fine), want 1, 2 (1 fine)",
					r.termLat[0].k, r.termLat[1].k, len(r.fine))
			}
			if r.termLat[0].bin != r.bin {
				return fmt.Errorf("pair term does not search the span-binned pair lattice")
			}
			sl := r.termLat[1]
			if want := r.extLat.Dims.Scale(2); sl.lat.Dims != want {
				return fmt.Errorf("sub-cell lattice dims %v, want %v", sl.lat.Dims, want)
			}
			interior := map[geom.IVec3]bool{}
			for _, c := range r.interiorCells {
				interior[c] = true
			}
			owned := map[geom.IVec3]bool{}
			for _, c := range r.ownedCells {
				owned[c] = true
			}
			seen := map[geom.IVec3]bool{}
			for i, list := range [][]geom.IVec3{sl.interior, sl.boundary} {
				for _, c := range list {
					parent := geom.IV(c.X/2, c.Y/2, c.Z/2)
					if !owned[parent] || seen[c] || interior[parent] != (i == 0) {
						return fmt.Errorf("sub-cell %v (parent %v, owned %v, interior %v) in list %d",
							c, parent, owned[parent], interior[parent], i)
					}
					seen[c] = true
				}
			}
			if len(seen) != 8*len(r.ownedCells) {
				return fmt.Errorf("%d sub-cell anchors for %d owned pair cells", len(seen), len(r.ownedCells))
			}
			return nil
		})
		if err != nil {
			t.Errorf("%v: %v", scheme, err)
		}
	}
}

// TestFineLatticeHaloUnchanged asserts the exchange traffic exactly:
// searching triplets on sub-cell lattices moves no exchange traffic,
// and skin lists move only the traffic their protocol derives.
//
// With the forced-rebuild seam every step rebuilds, which is the
// exchange protocol of a search on every step; the counts are those of
// the pair-lattice search on the golden workload (six steps plus the
// initial evaluation): bytes and messages of the halo, write-back,
// migration and collective classes and the imported atoms summed over
// ranks. Hybrid-MD imports FS-MD's full shell on FS-MD's 5×5×5 lattice,
// so its rows carry the same counts; SC-MD runs on its even 4×4×4
// lattice (Scheme.lattice), one 7.16 Å octant slab deep.
// The shifted golden crystal migrates no atom in six steps, so its
// migration class is one empty message per rank, split axis and
// direction per step; the last rows run the same thermalized crystal
// unshifted, where 55 atoms cross FS-MD's rank planes and 99 SC-MD's,
// and migration carries 60-byte records. The rebuild vote adds one 8-byte message
// from each rank but 0 to rank 0 and one back, per step.
//
// Skinned, no step moves an atom half a skin, so the initial
// evaluation is the only rebuild: every step resends the positions of
// its import set (24 B per atom instead of 48), migrates nothing, and
// writes back the same forces. Halo and write-back messages, the
// collectives and the vote are unchanged. The golden crystal imports
// the same atoms either way; the thermal one keeps its initial owners
// and so imports the initial evaluation's set seven times.
func TestFineLatticeHaloUnchanged(t *testing.T) {
	thermal, model := silicaConfig(t, 4, 300, 1)
	golden, _ := silicaConfig(t, 4, 300, 1)
	for i := range golden.Pos {
		golden.Pos[i] = golden.Box.Wrap(golden.Pos[i].Add(geom.V(0.8, 0.8, 0.8)))
	}
	type traffic struct {
		haloBytes, haloMsgs, forceBytes, forceMsgs, imported int64
		migrateBytes, migrateMsgs, collBytes, collMsgs       int64
		voteBytes, voteMsgs                                  int64
	}
	const steps = 6
	cases := []struct {
		scheme Scheme
		dims   geom.IVec3
		cfg    *workload.Config
		forced traffic
		// skinImported is the skinned run's imported-atom total.
		skinImported int64
	}{
		{SchemeSC, geom.IV(2, 1, 1), golden, traffic{693504, 42, 346752, 42, 14448, 0, 24, 16, 2, 96, 12}, 14448},
		{SchemeSC, geom.IV(2, 2, 2), golden, traffic{1225728, 168, 612864, 168, 25536, 0, 288, 112, 14, 672, 84}, 25536},
		{SchemeFS, geom.IV(2, 1, 1), golden, traffic{3800832, 84, 1900416, 84, 79184, 0, 24, 16, 2, 96, 12}, 79184},
		{SchemeFS, geom.IV(2, 2, 2), golden, traffic{8606304, 336, 4303152, 336, 179298, 0, 288, 112, 14, 672, 84}, 179298},
		{SchemeHybrid, geom.IV(2, 1, 1), golden, traffic{3800832, 84, 1900416, 84, 79184, 0, 24, 16, 2, 96, 12}, 79184},
		{SchemeHybrid, geom.IV(2, 2, 2), golden, traffic{8606304, 336, 4303152, 336, 179298, 0, 288, 112, 14, 672, 84}, 179298},
		{SchemeSC, geom.IV(2, 2, 2), thermal, traffic{1221600, 168, 610800, 168, 25450, 5940, 288, 112, 14, 672, 84}, 25536},
		{SchemeFS, geom.IV(2, 2, 2), thermal, traffic{8283744, 336, 4141872, 336, 172578, 3300, 288, 112, 14, 672, 84}, 170268},
		{SchemeHybrid, geom.IV(2, 2, 2), thermal, traffic{8283744, 336, 4141872, 336, 172578, 3300, 288, 112, 14, 672, 84}, 170268},
	}
	for _, c := range cases {
		a := c.skinImported / (steps + 1) // atoms of the one import set
		skinned := c.forced
		skinned.imported = c.skinImported
		skinned.haloBytes = a * (HaloAtomWireBytes + steps*HaloPositionWireBytes)
		skinned.forceBytes = c.skinImported * ForceWireBytes
		skinned.migrateBytes, skinned.migrateMsgs = 0, 0
		for _, forced := range []bool{true, false} {
			want, wantBuilds := c.forced, int64(steps+1)
			if !forced {
				want, wantBuilds = skinned, 1
			}
			for _, noOverlap := range []bool{false, true} {
				cart, err := comm.NewCartDims(c.dims)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(c.cfg, model, Options{
					Scheme: c.scheme, Cart: cart, Dt: 0.5, Steps: steps, Workers: 2, NoOverlap: noOverlap,
					forceRebuild: forced,
				})
				if err != nil {
					t.Fatal(err)
				}
				cls := res.CommByClass
				got := traffic{
					haloBytes:    cls["halo"].Bytes,
					haloMsgs:     cls["halo"].Messages,
					forceBytes:   cls["force"].Bytes,
					forceMsgs:    cls["force"].Messages,
					migrateBytes: cls["migrate"].Bytes,
					migrateMsgs:  cls["migrate"].Messages,
					collBytes:    cls["collective"].Bytes,
					collMsgs:     cls["collective"].Messages,
					voteBytes:    cls["vote"].Bytes,
					voteMsgs:     cls["vote"].Messages,
				}
				for _, s := range res.RankStats {
					got.imported += s.AtomsImported
				}
				if got != want || res.ListRebuilds != wantBuilds {
					t.Errorf("%v %v thermal=%v sync=%v forced=%v: traffic %+v after %d list builds, want %+v after %d",
						c.scheme, c.dims, c.cfg == thermal, noOverlap, forced, got, res.ListRebuilds, want, wantBuilds)
				}
			}
		}
	}
}
