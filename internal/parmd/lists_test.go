package parmd

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sctuple/internal/cell"
	"sctuple/internal/comm"
	"sctuple/internal/geom"
	"sctuple/internal/md"
	"sctuple/internal/potential"
	"sctuple/internal/workload"
)

// skinnedTerm is a term whose cutoff is lengthened by a skin — the
// cutoff a rank's list search runs at.
type skinnedTerm struct {
	potential.Term
	skin float64
}

func (t skinnedTerm) Cutoff() float64 { return t.Term.Cutoff() + t.skin }

// skinFits reports whether searching every term of model at its cutoff
// plus s, on pair cells of the given side, keeps every sub-cell count
// and the SC halo reach of the unskinned search, with each sub-cell at
// least as wide as the skinned cutoff.
func skinFits(scheme Scheme, model *potential.Model, side, s float64) bool {
	skinned := &potential.Model{Species: model.Species}
	for _, term := range model.Terms {
		skinned.Terms = append(skinned.Terms, skinnedTerm{term, s})
	}
	for i, term := range model.Terms {
		rc := term.Cutoff()
		if scheme == SchemeHybrid {
			if term.N() == 2 && rc+s > side {
				return false
			}
			continue
		}
		k := subCells(geom.V(side, side, side), rc)
		if subCells(geom.V(side, side, side), skinned.Terms[i].Cutoff()) != k || rc+s > side/float64(k) {
			return false
		}
	}
	return scheme != SchemeSC || haloReach(skinned, side) == haloReach(model, side)
}

// TestSkinFromLattice: the skin is the largest that keeps every cell
// count, sub-cell count and halo margin — on sc-fine's 5.73 Å cells
// 0.23 Å for every scheme — for silica, Lennard-Jones and n = 4
// torsion models over a range of cell sides: it fits, and a
// thousandth more does not.
func TestSkinFromLattice(t *testing.T) {
	silica := potential.NewSilicaModel()
	cfg := workload.BetaCristobalite(4, 4, 4)
	dec, err := NewDecomp(cfg.Box, silica.MaxCutoff(), comm.NewCart(2))
	if err != nil {
		t.Fatal(err)
	}
	side := minSide(dec.Lat.Side)
	for _, scheme := range Schemes() {
		if s := scheme.skin(silica, side); math.Abs(s-(side-5.5)) > 1e-5 || math.Abs(s-0.23) > 0.005 {
			t.Errorf("%v: skin %.6f Å on %.4f Å cells, want the pair cell's slack %.6f", scheme, s, side, side-5.5)
		}
	}

	models := []*potential.Model{
		silica,
		potential.NewLJModel(0.005, 1.3, 3.4, 39.948),
		potential.NewTorsionModel(0.05, 1.8, 0.02, 1.0, 2.5, 12.0),
	}
	rng := rand.New(rand.NewSource(7))
	for _, model := range models {
		for trial := 0; trial < 200; trial++ {
			side := model.MaxCutoff() * (1 + 2*rng.Float64())
			for _, scheme := range Schemes() {
				if scheme == SchemeHybrid && model.MaxN() > 3 {
					continue
				}
				s := scheme.skin(model, side)
				if !(s >= 0) || !skinFits(scheme, model, side, s) {
					t.Fatalf("%s %v side %.4f: skin %.6f does not fit", model.Name, scheme, side, s)
				}
				if skinFits(scheme, model, side, s*1.001+1e-9) {
					t.Fatalf("%s %v side %.4f: skin %.6f is not the largest that fits", model.Name, scheme, side, s)
				}
			}
		}
	}
}

// TestSkinListsMatchBruteForce is the skin invariant, adversarially:
// with atoms pinned to within 1e-12 Å of rank and sub-cell planes,
// every atom is moved along its own random direction by just under
// half a skin from the list build — so about half of them cross a
// plane — and the reuse step's forces and energy equal the cell-free
// brute-force reference; a move just over half a skin votes a rebuild,
// whose forces equal the reference too. For every scheme on the 5.73 Å
// cells FS-MD and Hybrid-MD lay (0.23 Å skin), and for SC-MD on its
// even 7.16 Å cells (Scheme.lattice, 0.98 Å skin), on a 1-D and a 3-D
// topology, 1 and 3 workers, overlapped and synchronous exchange.
func TestSkinListsMatchBruteForce(t *testing.T) {
	if testing.Short() {
		t.Skip("64 parallel force evaluations against four O(N²) references")
	}
	base, model := silicaConfig(t, 4, 300, 3)
	rng := rand.New(rand.NewSource(11))
	dirs := make([]geom.Vec3, base.N())
	for i := range dirs {
		dirs[i] = geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Normalized()
	}
	moves := []struct {
		frac    float64 // of skin/2
		rebuild bool
	}{{1 - 1e-6, false}, {1 + 1e-6, true}}
	type ref struct {
		f  []geom.Vec3
		pe float64
	}
	// Each layout pins its own copy of the configuration to the planes
	// of the lattice its schemes run on.
	layouts := []struct {
		schemes []Scheme
		lattice func(cart comm.Cart) (cell.Lattice, error)
	}{
		{Schemes(), func(comm.Cart) (cell.Lattice, error) { return cell.NewLattice(base.Box, model.MaxCutoff()) }},
		{[]Scheme{SchemeSC}, func(cart comm.Cart) (cell.Lattice, error) { return SchemeSC.lattice(base.Box, model, cart) }},
	}
	for _, lay := range layouts {
		lat, err := lay.lattice(comm.NewCart(2))
		if err != nil {
			t.Fatal(err)
		}
		cfg := *base
		cfg.Pos = append([]geom.Vec3(nil), base.Pos...)
		nudgeOntoPlanes(t, &cfg, model, lat)
		skin := SchemeSC.skin(model, minSide(lat.Side))
		refs := make([]ref, len(moves))
		for m, mv := range moves {
			moved := cfg
			moved.Pos = make([]geom.Vec3, cfg.N())
			for i, r := range cfg.Pos {
				moved.Pos[i] = cfg.Box.Wrap(r.Add(dirs[i].Scale(mv.frac * skin / 2)))
			}
			refs[m].f, refs[m].pe = bruteForces(&moved, model)
		}

		for _, scheme := range lay.schemes {
			if s := scheme.skin(model, minSide(lat.Side)); s != skin {
				t.Fatalf("%v skin %g, SC skin %g: the moves below assume one skin", scheme, s, skin)
			}
			for _, dims := range []geom.IVec3{{X: 2, Y: 1, Z: 1}, {X: 2, Y: 2, Z: 2}} {
				cart, err := comm.NewCartDims(dims)
				if err != nil {
					t.Fatal(err)
				}
				dlat, err := lay.lattice(cart)
				if err != nil {
					t.Fatal(err)
				}
				if dlat.Dims != lat.Dims {
					t.Fatalf("%v on %v: %v cells, pinned to %v", scheme, dims, dlat.Dims, lat.Dims)
				}
				dec, err := NewDecompLattice(dlat, cart)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 3} {
					for _, overlap := range []bool{true, false} {
						label := fmt.Sprintf("%v/%v on %v cells/workers=%d/overlap=%v", scheme, dims, lat.Dims, workers, overlap)
						got := make([][]geom.Vec3, len(moves))
						for m := range got {
							got[m] = make([]geom.Vec3, cfg.N())
						}
						pes := make([][]float64, len(moves))
						for m := range pes {
							pes[m] = make([]float64, cart.Size())
						}
						world := comm.NewWorld(cart.Size())
						defineTagClasses(world)
						err := world.Run(func(p *comm.Proc) error {
							r, err := newRankState(p, dec, model, scheme, workers, overlap)
							if err != nil {
								return err
							}
							r.adopt(&cfg)
							if _, err := r.computeForces(); err != nil {
								return err
							}
							for m, mv := range moves {
								// Every move starts from the build, where each owned
								// position is the configuration's.
								for i := 0; i < r.nOwned; i++ {
									r.gpos[i] = cfg.Pos[r.ids[i]].Add(dirs[r.ids[i]].Scale(mv.frac * skin / 2))
								}
								if err := r.migrate(); err != nil {
									return err
								}
								if r.rebuild != mv.rebuild {
									return fmt.Errorf("move of %.7f half-skins: rebuild vote %v, want %v", mv.frac, r.rebuild, mv.rebuild)
								}
								pe, err := r.computeForces()
								if err != nil {
									return err
								}
								pes[m][p.Rank()] = pe
								for i := 0; i < r.nOwned; i++ {
									got[m][r.ids[i]] = r.force[i]
								}
							}
							return nil
						})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						for m, mv := range moves {
							pe := 0.0
							for _, e := range pes[m] {
								pe += e
							}
							requireForces(t, fmt.Sprintf("%s/move %.7f", label, mv.frac), got[m], pe, refs[m].f, refs[m].pe)
						}
					}
				}
			}
		}
	}
}

// TestReuseMatchesForcedRebuild checks every reuse step against the
// forced-rebuild seam, which runs the search on every step: over 40
// thermal steps (several rebuilds) per-step potential energies, final
// forces and positions agree to 8192 ulps of the largest value (the
// final forces differ by about 2,100 ulps of the largest force; a
// missed tuple would differ by some 10¹² ulps). The two runs sum each
// force in different orders once an atom has left the cell it was
// binned in, so they agree to rounding — a chaotic trajectory then
// grows those ulps slowly — not bit for bit. Rebuild steps themselves
// evaluate the unskinned tuple stream exactly: the golden fixtures pin
// that.
func TestReuseMatchesForcedRebuild(t *testing.T) {
	cfg, model := silicaConfig(t, 4, 300, 8)
	cart, err := comm.NewCartDims(geom.IV(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	const steps = 80
	ulps := func(x float64) float64 { return 8192 * math.Abs(x) * 0x1p-52 }
	for _, scheme := range Schemes() {
		var res [2]*Result
		for k, forced := range []bool{false, true} {
			res[k], err = Run(cfg, model, Options{
				Scheme: scheme, Cart: cart, Dt: 0.5, Steps: steps, TraceEnergies: true, forceRebuild: forced,
			})
			if err != nil {
				t.Fatalf("%v forced=%v: %v", scheme, forced, err)
			}
		}
		reuse, forced := res[0], res[1]
		if forced.ListRebuilds != steps+1 || !(reuse.ListRebuilds > 2 && reuse.ListRebuilds < steps/2) {
			t.Fatalf("%v: %d rebuilds skinned, %d forced; want a few and %d", scheme, reuse.ListRebuilds, forced.ListRebuilds, steps+1)
		}
		for s := range reuse.Energies {
			a, b := reuse.Energies[s].Potential, forced.Energies[s].Potential
			if math.Abs(a-b) > ulps(b) {
				t.Errorf("%v step %d: PE %.17g with lists, %.17g with a search every step", scheme, s, a, b)
			}
		}
		var fmax, dmax, pmax float64
		for i := range forced.Forces {
			fmax = math.Max(fmax, forced.Forces[i].Norm())
			dmax = math.Max(dmax, reuse.Forces[i].Sub(forced.Forces[i]).Norm())
			pmax = math.Max(pmax, cfg.Box.Displacement(forced.Final.Pos[i], reuse.Final.Pos[i]).Norm())
		}
		if dmax > ulps(fmax) || pmax > ulps(cfg.Box.L.X) {
			t.Errorf("%v: forces differ by %.3g (max force %.3g), positions by %.3g Å", scheme, dmax, fmax, pmax)
		}
	}
}

// TestReuseWorkersBitIdentical: forces, energies and trajectories stay
// bit-identical across worker counts through reuse and rebuild steps —
// the lists are recorded and walked per kernel shard, and the shard
// partition is fixed by the shard count.
func TestReuseWorkersBitIdentical(t *testing.T) {
	cfg, model := silicaConfig(t, 4, 300, 12)
	cart, err := comm.NewCartDims(geom.IV(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range Schemes() {
		var ref *Result
		for _, workers := range []int{1, 3, computeShards} {
			res, err := Run(cfg, model, Options{
				Scheme: scheme, Cart: cart, Dt: 0.5, Steps: 60, Workers: workers, TraceEnergies: true,
			})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", scheme, workers, err)
			}
			if ref == nil {
				ref = res
				if res.ListRebuilds < 2 {
					t.Fatalf("%v: %d list builds in 60 steps; the test needs a rebuild between reuse steps", scheme, res.ListRebuilds)
				}
				continue
			}
			for s := range ref.Energies {
				if res.Energies[s] != ref.Energies[s] {
					t.Fatalf("%v workers=%d step %d: energies %+v, workers=1 %+v", scheme, workers, s, res.Energies[s], ref.Energies[s])
				}
			}
			for i := range ref.Forces {
				if res.Forces[i] != ref.Forces[i] || res.Final.Pos[i] != ref.Final.Pos[i] {
					t.Fatalf("%v workers=%d: atom %d differs bitwise from workers=1", scheme, workers, i)
				}
			}
		}
	}
}

// mutateTap wraps the channel transport and rewrites the payload of
// messages in one traffic class after the first `after` have passed
// clean: corrupt appends 8 garbage bytes, truncate drops the last
// byte, drop empties the payload.
func mutateTap(ranks int, class string, after int, mode string) (*comm.Tap, error) {
	tap, _, err := classTap(comm.NewChanTransport(ranks, 0), class, func(n int64, _ int, m comm.Message) {
		if n <= int64(after) {
			return
		}
		switch mode {
		case "corrupt":
			m.Buf.Int64(0x0BAD)
		case "truncate":
			keep := m.Buf.Clone()
			m.Buf.Reset()
			if len(keep) > 0 {
				copy(m.Buf.Grow(len(keep)-1), keep)
			}
		case "drop":
			m.Buf.Reset()
		}
	})
	return tap, err
}

// TestSkinProtocolFaultsTyped: a corrupted, truncated or dropped
// payload on the positions-only halo frame of a reuse step, or on the
// rebuild vote, fails the run with one *RankError per rank — the
// detecting rank in phase "halo" or "vote" with its diagnostic, every
// other one unwound by the abort — with no panic and no deadlock. The
// halo rows let the initial evaluation's whole-record exchange (6
// messages on the (2,1,1) grid) pass clean, so the fault lands on
// step 0's positions-only frames. Taps resolve class names through the
// one tag-class table: every registered name is accepted, and the
// unknown-class row must be refused with the list of valid names.
func TestSkinProtocolFaultsTyped(t *testing.T) {
	cfg, model := silicaConfig(t, 4, 300, 47)
	cart, _ := comm.NewCartDims(geom.IV(2, 1, 1))
	for _, name := range TagClassNames() {
		if _, err := FaultTap(comm.NewChanTransport(cart.Size(), 0), name, 0); err != nil {
			t.Errorf("registered class %q refused: %v", name, err)
		}
	}
	for _, c := range []struct {
		class, phase, diag string
		after              int
	}{
		{"halo", "halo", "positions of 24 bytes", 6},
		{"vote", "vote", "malformed rebuild vote", 0},
		{"nosuch", "", "unknown fault class", 0},
	} {
		for _, mode := range []string{"corrupt", "truncate", "drop"} {
			for _, noOverlap := range []bool{false, true} {
				label := fmt.Sprintf("%s/%s/sync=%v", c.class, mode, noOverlap)
				tap, err := mutateTap(cart.Size(), c.class, c.after, mode)
				if c.phase == "" {
					if err == nil || !strings.Contains(err.Error(), c.diag) {
						t.Fatalf("%s: tap error %v, want %q", label, err, c.diag)
					}
					for _, name := range TagClassNames() {
						if !strings.Contains(err.Error(), name) {
							t.Errorf("%s: tap error %q does not list class %q", label, err, name)
						}
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				_, err = Run(cfg, model, Options{
					Scheme: SchemeSC, Cart: cart, Dt: 0.5, Steps: 2, NoOverlap: noOverlap,
					Transport: tap,
				})
				if err == nil {
					t.Fatalf("%s: faulted run succeeded", label)
				}
				rerrs := RankErrors(err)
				if len(rerrs) != cart.Size() {
					t.Fatalf("%s: %d rank errors for %d ranks: %v", label, len(rerrs), cart.Size(), err)
				}
				detected := 0
				for _, re := range rerrs {
					switch {
					case re.Phase == c.phase && re.Step == 0 && strings.Contains(re.Error(), c.diag):
						detected++
					case errors.Is(re, comm.ErrAborted):
					default:
						t.Errorf("%s: rank %d failed in phase %q at step %d without the diagnostic or an abort: %v",
							label, re.Rank, re.Phase, re.Step, re)
					}
				}
				if detected == 0 {
					t.Errorf("%s: no rank reported the fault: %v", label, err)
				}
			}
		}
	}
}

// TestListStepsZeroAllocs: after warm-up, reuse steps and rebuild steps
// alike allocate nothing, for every scheme — the step loop of
// TestStepLoopZeroAllocs with the forced-rebuild seam off (a skinned
// run, whose measured window is all reuse steps) and on (every step a
// rebuild).
func TestListStepsZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	cfg, model := silicaConfig(t, 4, 300, 22)
	for i := range cfg.Pos {
		cfg.Pos[i] = cfg.Box.Wrap(cfg.Pos[i].Add(geom.V(0.8, 0.8, 0.8)))
	}
	cart, _ := comm.NewCartDims(geom.IV(2, 1, 1))
	masses := make([]float64, len(model.Species))
	for i, s := range model.Species {
		masses[i] = s.Mass
	}
	const dt = 0.1 // no rebuild in the skinned run's 40 steps
	for _, forced := range []bool{false, true} {
		for _, scheme := range Schemes() {
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
				r.forceRebuild = forced
				r.adopt(cfg)
				if _, err := r.computeForces(); err != nil {
					return err
				}
				var stepErr error
				run := func() {
					half := 0.5 * dt * md.ForceToAccel
					for i := 0; i < r.nOwned; i++ {
						r.vel[i] = r.vel[i].Add(r.force[i].Scale(half / masses[r.species[i]]))
						r.gpos[i] = r.gpos[i].Add(r.vel[i].Scale(dt))
					}
					if err := r.migrate(); err != nil && stepErr == nil {
						stepErr = err
					}
					if _, err := r.computeForces(); err != nil && stepErr == nil {
						stepErr = err
					}
				}
				for k := 0; k < 30; k++ {
					run()
				}
				p.Barrier()
				builds := r.stats.ListRebuilds
				if p.Rank() != 0 {
					for k := 0; k < 11; k++ {
						run()
					}
					p.Barrier()
					return stepErr
				}
				allocs := testing.AllocsPerRun(10, run)
				p.Barrier()
				if stepErr != nil {
					return stepErr
				}
				wantBuilds := int64(0)
				if forced {
					wantBuilds = 11 // the warm-up call and the 10 measured
				}
				if got := r.stats.ListRebuilds - builds; got != wantBuilds {
					return fmt.Errorf("%d rebuilds in the measured window, want %d", got, wantBuilds)
				}
				if allocs != 0 {
					return fmt.Errorf("%g allocs per step", allocs)
				}
				return nil
			})
			if err != nil {
				t.Errorf("%v forced=%v: %v", scheme, forced, err)
			}
		}
	}
}
