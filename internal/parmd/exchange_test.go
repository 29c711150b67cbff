package parmd

import (
	"fmt"
	"testing"

	"sctuple/internal/comm"
	"sctuple/internal/geom"
	"sctuple/internal/potential"
	"sctuple/internal/workload"
)

// TestExchangePlanCompile: the compiled schedule has the paper's phase
// structure — 3 one-directional phases for SC-MD's octant import, 6
// for the full shell — with slab bounds matching the margins and
// symmetric peer/tag pairs.
func TestExchangePlanCompile(t *testing.T) {
	model := potential.NewSilicaModel()
	box := geom.NewCubicBox(8 * 5.5)
	cart, _ := comm.NewCartDims(geom.IV(2, 2, 2))
	dec, err := NewDecomp(box, model.MaxCutoff(), cart)
	if err != nil {
		t.Fatal(err)
	}
	side := minSide(dec.Lat.Side)
	for _, scheme := range Schemes() {
		mLo, mHi, err := scheme.margins(model, side)
		if err != nil {
			t.Fatal(err)
		}
		wantPhases := 0
		if mHi > 0 {
			wantPhases += 3
		}
		if mLo > 0 {
			wantPhases += 3
		}
		for rank := 0; rank < cart.Size(); rank++ {
			plan := compileExchangePlan(dec, rank, mLo, mHi)
			if len(plan.Halo) != wantPhases {
				t.Fatalf("%v rank %d: %d halo phases, want %d", scheme, rank, len(plan.Halo), wantPhases)
			}
			coord := cart.Coord(rank)
			block := dec.BlockHi(coord).Sub(dec.BlockLo(coord))
			for _, ph := range plan.Halo {
				if ph.SendPeer != cart.AxisNeighbor(rank, ph.Axis, ph.Dir) ||
					ph.RecvPeer != cart.AxisNeighbor(rank, ph.Axis, -ph.Dir) {
					t.Errorf("%v rank %d axis %d dir %d: peers (%d, %d)",
						scheme, rank, ph.Axis, ph.Dir, ph.SendPeer, ph.RecvPeer)
				}
				if got := ph.SlabHi - ph.SlabLo; (ph.Dir < 0 && got != mHi) || (ph.Dir > 0 && got != mLo) {
					t.Errorf("%v rank %d axis %d dir %d: slab thickness %d (margins %d/%d)",
						scheme, rank, ph.Axis, ph.Dir, got, mLo, mHi)
				}
				// The top slab of thickness mLo ends at the owned range's
				// upper edge mLo+block, so it starts at exactly block.
				if ph.Dir > 0 && ph.SlabLo != block.Comp(ph.Axis) {
					t.Errorf("%v rank %d axis %d: top slab starts at %d, want block extent %d",
						scheme, rank, ph.Axis, ph.SlabLo, block.Comp(ph.Axis))
				}
				if ph.ForceTag-ph.Tag != tagForce-tagHalo {
					t.Errorf("%v rank %d: halo tag %d and force tag %d out of step",
						scheme, rank, ph.Tag, ph.ForceTag)
				}
			}
			for axis := 0; axis < 3; axis++ {
				mp := plan.Migrate[axis]
				if !mp.Active {
					t.Errorf("%v rank %d axis %d: inactive migration on a 2-rank axis", scheme, rank, axis)
				}
				if mp.Dim != 2 || mp.BlockIdx != coord.Comp(axis) {
					t.Errorf("%v rank %d axis %d: dim %d idx %d", scheme, rank, axis, mp.Dim, mp.BlockIdx)
				}
			}
		}
	}

	// A 1-rank axis compiles to an inactive migration phase.
	cart1, _ := comm.NewCartDims(geom.IV(2, 1, 1))
	dec1, err := NewDecomp(box, model.MaxCutoff(), cart1)
	if err != nil {
		t.Fatal(err)
	}
	plan := compileExchangePlan(dec1, 0, 0, 1)
	if plan.Migrate[0].Active != true || plan.Migrate[1].Active || plan.Migrate[2].Active {
		t.Errorf("migration activity %v %v %v, want true false false",
			plan.Migrate[0].Active, plan.Migrate[1].Active, plan.Migrate[2].Active)
	}
}

// TestCommByClassAccounting is the byte-accounting regression test:
// SC-MD's octant import must move strictly fewer halo and write-back
// bytes than FS-MD's full shell on the same silica workload, wire
// volumes must match the codec's record sizes exactly, and the
// per-class counters must sum to the world totals. Each scheme runs
// twice: with the forced-rebuild seam, every evaluation imports whole
// 48-byte records; with the skin, the two steps reuse the initial
// evaluation's import set and resend 24-byte positions only.
func TestCommByClassAccounting(t *testing.T) {
	cfg, model := silicaConfig(t, 4, 300, 21)
	cart, _ := comm.NewCartDims(geom.IV(2, 2, 2))
	const steps = 2
	for _, forced := range []bool{true, false} {
		byClass := map[Scheme]map[string]comm.Stats{}
		imported := map[Scheme]int64{}
		for _, scheme := range []Scheme{SchemeSC, SchemeFS} {
			res, err := Run(cfg, model, Options{Scheme: scheme, Cart: cart, Dt: 1, Steps: steps, forceRebuild: forced})
			if err != nil {
				t.Fatalf("%v: %v", scheme, err)
			}
			var sum comm.Stats
			for _, s := range res.CommByClass {
				sum.Messages += s.Messages
				sum.Bytes += s.Bytes
				sum.Wait += s.Wait
			}
			if sum != res.Comm {
				t.Errorf("%v forced=%v: classes sum to %+v, world total %+v", scheme, forced, sum, res.Comm)
			}
			// Skinned, the derivation below assumes the initial build only.
			wantBuilds := int64(1)
			if forced {
				wantBuilds = steps + 1
			}
			if res.ListRebuilds != wantBuilds {
				t.Fatalf("%v forced=%v: %d list rebuilds, want %d", scheme, forced, res.ListRebuilds, wantBuilds)
			}
			for _, s := range res.RankStats {
				imported[scheme] += s.AtomsImported
			}
			byClass[scheme] = res.CommByClass
		}

		for _, class := range []string{"halo", "force"} {
			sc, fs := byClass[SchemeSC][class], byClass[SchemeFS][class]
			if !(sc.Bytes < fs.Bytes) {
				t.Errorf("forced=%v %s bytes: SC %d not strictly below FS %d", forced, class, sc.Bytes, fs.Bytes)
			}
			if !(2*sc.Messages == fs.Messages) {
				t.Errorf("forced=%v %s messages: SC %d vs FS %d, want exactly half", forced, class, sc.Messages, fs.Messages)
			}
		}
		// Wire volume = imported atoms × codec record size, exactly: every
		// imported atom crosses the wire once per evaluation on import
		// (48 B on a rebuild, 24 B between rebuilds) and its force once
		// on write-back (24 B). Between rebuilds the import set is the
		// initial one, so each of the steps+1 evaluations imports a third
		// of the total.
		for _, scheme := range []Scheme{SchemeSC, SchemeFS} {
			want := imported[scheme] * HaloAtomWireBytes
			if !forced {
				perEval := imported[scheme] / (steps + 1)
				if perEval*(steps+1) != imported[scheme] {
					t.Errorf("%v: %d imported atoms over %d evaluations of one import set", scheme, imported[scheme], steps+1)
				}
				want = perEval * (HaloAtomWireBytes + steps*HaloPositionWireBytes)
			}
			if got := byClass[scheme]["halo"].Bytes; got != want {
				t.Errorf("%v forced=%v: halo bytes %d, want %d for %d imported atoms", scheme, forced, got, want, imported[scheme])
			}
			if got, want := byClass[scheme]["force"].Bytes, imported[scheme]*ForceWireBytes; got != want {
				t.Errorf("%v forced=%v: force bytes %d, want %d imported atoms × %d", scheme, forced, got, imported[scheme], ForceWireBytes)
			}
		}
	}
}

// exchangeRig builds the per-rank state used by the allocation tests
// and benchmark: a thermalized silica block adopted by each rank.
// overlap selects the exchange mode the iter closure exercises: the
// synchronous import, or the split-phase begin/finish pair the
// overlapped force path runs (with nothing in the overlap window, so
// only the exchange itself is measured).
func exchangeRig(p *comm.Proc, dec *Decomp, cfg *workload.Config, model *potential.Model, scheme Scheme, overlap bool) (*rankState, func() error, error) {
	r, err := newRankState(p, dec, model, scheme, 1, overlap)
	if err != nil {
		return nil, nil, err
	}
	r.adopt(cfg)
	iter := func() error {
		r.dropHalo()
		r.deriveOwned()
		if overlap {
			if err := r.beginHalo(); err != nil {
				return err
			}
			if err := r.finishHalo(); err != nil {
				return err
			}
		} else if err := r.importHalo(); err != nil {
			return err
		}
		return r.writeBackForces()
	}
	return r, iter, nil
}

// TestHaloExchangeZeroAllocs: after warm-up, a full halo import plus
// force write-back cycle must not allocate — the compiled plan reuses
// its index scratch and the pooled buffers circulate through the
// per-rank freelists. Both exchange modes are covered: the synchronous
// import and the split-phase (posted handles) exchange the overlapped
// force path runs.
func TestHaloExchangeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	cfg, model := silicaConfig(t, 4, 300, 22)
	cart, _ := comm.NewCartDims(geom.IV(2, 2, 2))
	for _, overlap := range []bool{false, true} {
		for _, scheme := range []Scheme{SchemeSC, SchemeFS} {
			dec, err := NewDecomp(cfg.Box, model.MaxCutoff(), cart)
			if err != nil {
				t.Fatal(err)
			}
			world := comm.NewWorld(cart.Size())
			defineTagClasses(world)
			err = world.Run(func(p *comm.Proc) error {
				_, iter, err := exchangeRig(p, dec, cfg, model, scheme, overlap)
				if err != nil {
					return err
				}
				var iterErr error
				run := func() {
					if err := iter(); err != nil && iterErr == nil {
						iterErr = err
					}
				}
				// Pooled buffers circulate between ranks and grow in place;
				// enough warm-up rounds let every circulating buffer reach
				// the largest payload on its route.
				for k := 0; k < 30; k++ {
					run()
				}
				p.Barrier()
				// Rank 0 measures; the others run the same 1+10 cycles
				// plainly (AllocsPerRun counts process-wide mallocs, so
				// their steady state must be clean too).
				if p.Rank() != 0 {
					for k := 0; k < 11; k++ {
						run()
					}
					p.Barrier()
					return iterErr
				}
				allocs := testing.AllocsPerRun(10, run)
				p.Barrier()
				if iterErr != nil {
					return iterErr
				}
				if allocs != 0 {
					return fmt.Errorf("%v overlap=%v: %g allocs per halo+write-back cycle", scheme, overlap, allocs)
				}
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}
	}
}

// BenchmarkHaloExchange measures one full halo import + force
// write-back cycle per scheme on an 8-rank silica world (the hot comm
// path of every MD step).
func BenchmarkHaloExchange(b *testing.B) {
	model := potential.NewSilicaModel()
	cfg := workload.BetaCristobalite(4, 4, 4)
	cart, _ := comm.NewCartDims(geom.IV(2, 2, 2))
	for _, scheme := range []Scheme{SchemeSC, SchemeFS} {
		b.Run(scheme.String(), func(b *testing.B) {
			dec, err := NewDecomp(cfg.Box, model.MaxCutoff(), cart)
			if err != nil {
				b.Fatal(err)
			}
			world := comm.NewWorld(cart.Size())
			defineTagClasses(world)
			b.ReportAllocs()
			err = world.Run(func(p *comm.Proc) error {
				r, iter, err := exchangeRig(p, dec, cfg, model, scheme, false)
				if err != nil {
					return err
				}
				if err := iter(); err != nil { // warm up before the measured loop
					return err
				}
				p.Barrier()
				if p.Rank() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					if err := iter(); err != nil {
						return err
					}
				}
				if p.Rank() == 0 {
					b.ReportMetric(float64(r.stats.AtomsImported)/float64(r.stats.HaloMessages/2), "atoms/phase")
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
