// Package sctuple_test holds the benchmark harness: one testing.B
// benchmark per table/figure of the paper (DESIGN.md maps them), plus
// the ablation benches for the design choices called out there.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Printable report versions of the figures live in cmd/scbench.
package sctuple_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"sctuple/internal/bench"
	"sctuple/internal/cell"
	"sctuple/internal/comm"
	"sctuple/internal/core"
	"sctuple/internal/geom"
	"sctuple/internal/md"
	"sctuple/internal/parmd"
	"sctuple/internal/perfmodel"
	"sctuple/internal/potential"
	"sctuple/internal/tuple"
	"sctuple/internal/workload"
)

// --- Pattern construction (paper Tables 2-5, Figures 5-6) ---

func BenchmarkPatternGen(b *testing.B) {
	for n := 2; n <= 4; n++ {
		b.Run(fmt.Sprintf("SC-n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = core.SC(n)
			}
		})
		b.Run(fmt.Sprintf("FS-n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = core.GenerateFS(n)
			}
		})
	}
}

func BenchmarkPatternCompleteness(b *testing.B) {
	for n := 2; n <= 3; n++ {
		sc := core.SC(n)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !sc.IsComplete() {
					b.Fatal("incomplete")
				}
			}
		})
	}
}

// --- Tuple enumeration (Figure 7 and §5.1 search costs) ---

// silicaBench builds a uniform silica configuration binned on a
// lattice with the given cell side.
func silicaBench(b *testing.B, n int, cellSide float64) ([]geom.Vec3, *cell.Binning) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	cfg := workload.UniformSilica(rng, n)
	lat, err := cell.NewLattice(cfg.Box, cellSide)
	if err != nil {
		b.Fatal(err)
	}
	return cfg.Pos, cell.NewBinning(lat, cfg.Pos)
}

func BenchmarkFig7TripletCount(b *testing.B) {
	pos, bin := silicaBench(b, 3000, 2.6)
	for _, tc := range []struct {
		name    string
		pattern *core.Pattern
		dedup   tuple.Dedup
	}{
		{"SC", core.SC(3), tuple.DedupAuto},
		{"FS", core.FS(3), tuple.DedupNone},
	} {
		e, err := tuple.NewEnumerator(bin, tc.pattern, 2.6, tc.dedup)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			var emitted int64
			for i := 0; i < b.N; i++ {
				st := e.Count(pos)
				emitted = st.Emitted
			}
			b.ReportMetric(float64(emitted), "triplets")
		})
	}
}

func BenchmarkEnumeratePairs(b *testing.B) {
	pos, bin := silicaBench(b, 3000, 5.5)
	for _, shell := range []core.Shell{core.ShellFull, core.ShellHalf, core.ShellEighth} {
		e, err := tuple.NewEnumerator(bin, shell.Pattern(), 5.5, tuple.DedupAuto)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(shell.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.Count(pos)
			}
		})
	}
}

func BenchmarkEnumerateTriplets(b *testing.B) {
	pos, bin := silicaBench(b, 3000, 2.6)
	for _, tc := range []struct {
		name    string
		pattern *core.Pattern
	}{
		{"SC", core.SC(3)},
		{"FS", core.FS(3)},
	} {
		e, err := tuple.NewEnumerator(bin, tc.pattern, 2.6, tuple.DedupAuto)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			benchSearch(b, func(st *tuple.Stats) { e.VisitInto(pos, nopVisitor, st) })
		})
	}
}

// BenchmarkEnumerateRankLocal is the search a parallel SC-MD, FS-MD or
// Hybrid-MD rank runs, in the sc-fine layout: bounded enumeration (no
// wrapping, as over a rank's extended lattice) with atom-ID dedup keys
// over storage in (pair cell, ID) order. Pairs search the pair lattice
// through its spans; triplets search it split into 2³ sub-cells,
// binned keyed CSR by ID. pairs-FS-raw times the enumerator form of
// Hybrid-MD's undeduplicated full-shell pair search; Hybrid ranks no
// longer run it, they fill each atom's list row directly
// (BenchmarkHybridRows in internal/parmd times that). The -masked
// triplet cases apply the silica triplet term's species link table, as
// the force-evaluating ranks do; the others search geometrically. The
// configuration is 1,536-atom β-cristobalite with every coordinate
// jittered by up to ±0.1 Å.
func BenchmarkEnumerateRankLocal(b *testing.B) {
	model := potential.NewSilicaModel()
	cfg := workload.BetaCristobalite(4, 4, 4)
	rng := rand.New(rand.NewSource(101))
	jitter := func() float64 { return 0.2 * (rng.Float64() - 0.5) }
	for i := range cfg.Pos {
		cfg.Pos[i] = cfg.Box.Wrap(cfg.Pos[i].Add(geom.V(jitter(), jitter(), jitter())))
	}
	pairLat, err := cell.NewLattice(cfg.Box, model.MaxCutoff())
	if err != nil {
		b.Fatal(err)
	}
	subLat, err := cell.NewLatticeDims(cfg.Box, pairLat.Dims.Scale(2))
	if err != nil {
		b.Fatal(err)
	}
	cellsOf := func(lat cell.Lattice) []int32 {
		cells := make([]int32, cfg.N())
		for i, r := range cfg.Pos {
			cells[i] = int32(lat.Linear(lat.CellOf(r)))
		}
		return cells
	}
	// Storage in pair-cell order, as a rank keeps it; the slot index
	// doubles as the atom ID.
	pairCell := func(r geom.Vec3) int { return pairLat.Linear(pairLat.CellOf(r)) }
	order := make([]int, cfg.N())
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return pairCell(cfg.Pos[a]) - pairCell(cfg.Pos[b]) })
	pos, species := make([]geom.Vec3, cfg.N()), make([]int32, cfg.N())
	for k, i := range order {
		pos[k], species[k] = cfg.Pos[i], cfg.Species[i]
	}
	cfg.Pos, cfg.Species = pos, species
	ids := make([]int64, cfg.N())
	for i := range ids {
		ids[i] = int64(i)
	}
	pairBin := &cell.Binning{Lat: pairLat}
	if err := pairBin.RebinSpans(cellsOf(pairLat)); err != nil {
		b.Fatal(err)
	}
	subBin := &cell.Binning{Lat: subLat}
	subBin.RebinCellsKeyed(cellsOf(subLat), ids)
	for _, tc := range []struct {
		name    string
		bin     *cell.Binning
		pattern *core.Pattern
		term    int
		dedup   tuple.Dedup
		masked  bool
	}{
		{"pairs-SC", pairBin, core.SC(2), 0, tuple.DedupAuto, false},
		{"pairs-FS", pairBin, core.FS(2), 0, tuple.DedupAuto, false},
		{"pairs-FS-raw", pairBin, core.FS(2), 0, tuple.DedupNone, false},
		{"triplets-SC", subBin, core.SC(3), 1, tuple.DedupAuto, false},
		{"triplets-FS", subBin, core.FS(3), 1, tuple.DedupAuto, false},
		{"triplets-SC-masked", subBin, core.SC(3), 1, tuple.DedupAuto, true},
		{"triplets-FS-masked", subBin, core.FS(3), 1, tuple.DedupAuto, true},
	} {
		term := model.Terms[tc.term]
		e, err := tuple.NewBoundedEnumerator(tc.bin, tc.pattern, term.Cutoff(), tc.dedup)
		if err != nil {
			b.Fatal(err)
		}
		e.SetKeys(ids)
		if tc.masked {
			e.SetLinks(cfg.Species, potential.SpeciesLinks(term))
		}
		b.Run(tc.name, func(b *testing.B) {
			benchSearch(b, func(st *tuple.Stats) { e.VisitInto(cfg.Pos, nopVisitor, st) })
		})
	}
}

// BenchmarkEnumerateQuadruplets is the n = 4 search of the torsion
// model's four-body term on its 512-atom fluid (scmd -model torsion),
// periodic cells sized by the torsion cutoff.
func BenchmarkEnumerateQuadruplets(b *testing.B) {
	model := potential.NewTorsionModel(0.05, 1.8, 0.02, 1.0, 2.5, 12.0)
	cfg := workload.LJFluid(rand.New(rand.NewSource(1)), 512, 0.2, 1.0)
	term := model.Terms[1]
	lat, err := cell.NewLattice(cfg.Box, term.Cutoff())
	if err != nil {
		b.Fatal(err)
	}
	bin := cell.NewBinning(lat, cfg.Pos)
	for _, tc := range []struct {
		name    string
		pattern *core.Pattern
	}{
		{"SC", core.SC(4)},
		{"FS", core.FS(4)},
	} {
		e, err := tuple.NewEnumerator(bin, tc.pattern, term.Cutoff(), tuple.DedupAuto)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			benchSearch(b, func(st *tuple.Stats) { e.VisitInto(cfg.Pos, nopVisitor, st) })
		})
	}
}

func nopVisitor([]int32, []geom.Vec3) {}

// benchSearch times visit, one full enumeration per iteration, and
// reports the time per Eq. 12 search candidate and per emitted tuple.
func benchSearch(b *testing.B, visit func(*tuple.Stats)) {
	var st tuple.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = tuple.Stats{}
		visit(&st)
	}
	ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(ns/float64(st.Candidates), "ns/candidate")
	b.ReportMetric(ns/float64(st.Emitted), "ns/tuple")
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblationCollapse isolates the R-COLLAPSE phase: the
// OC-shifted but uncollapsed pattern must search about twice as hard
// for the identical force set.
func BenchmarkAblationCollapse(b *testing.B) {
	pos, bin := silicaBench(b, 3000, 2.6)
	shiftOnly := core.OCShift(core.GenerateFS(3))
	for _, tc := range []struct {
		name    string
		pattern *core.Pattern
	}{
		{"with-collapse", core.SC(3)},
		{"without-collapse", shiftOnly},
	} {
		e, err := tuple.NewEnumerator(bin, tc.pattern, 2.6, tuple.DedupAuto)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			var st tuple.Stats
			for i := 0; i < b.N; i++ {
				st = e.Count(pos)
			}
			b.ReportMetric(float64(st.Candidates), "candidates")
		})
	}
}

// BenchmarkAblationShift isolates OC-SHIFT: collapse-only (half-shell
// style) versus the full SC pattern. Search cost is equal; the win is
// the footprint, reported as a metric.
func BenchmarkAblationShift(b *testing.B) {
	pos, bin := silicaBench(b, 3000, 2.6)
	collapseOnly := core.RCollapse(core.GenerateFS(3))
	for _, tc := range []struct {
		name    string
		pattern *core.Pattern
	}{
		{"with-shift", core.SC(3)},
		{"without-shift", collapseOnly},
	} {
		e, err := tuple.NewEnumerator(bin, tc.pattern, 2.6, tuple.DedupAuto)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.Count(pos)
			}
			b.ReportMetric(float64(tc.pattern.ImportVolume(8)), "import-cells-l8")
		})
	}
}

// BenchmarkAblationHybridPrune contrasts Hybrid-MD's pair-list triplet
// pruning against the SC cell search on the same silica system — the
// §5 trade-off driving Figure 8's crossover. Both search
// geometrically, so the candidate counts are those of Eq. 12.
func BenchmarkAblationHybridPrune(b *testing.B) {
	model := potential.WithoutLinks(potential.NewSilicaModel())
	rng := rand.New(rand.NewSource(2))
	cfg := workload.UniformSilica(rng, 3000)
	sys, err := md.NewSystem(cfg, model)
	if err != nil {
		b.Fatal(err)
	}
	engines := map[string]md.Engine{}
	sc, err := md.NewCellEngine(model, sys.Box, md.FamilySC)
	if err != nil {
		b.Fatal(err)
	}
	engines["cell-search"] = sc
	hy, err := md.NewHybridEngine(model, sys.Box)
	if err != nil {
		b.Fatal(err)
	}
	engines["list-prune"] = hy
	for _, name := range []string{"cell-search", "list-prune"} {
		e := engines[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Compute(sys); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(e.Stats().SearchCandidates), "candidates")
		})
	}
}

// --- Full force evaluation (§5 workload, serial engines) ---

func BenchmarkForceSilica(b *testing.B) {
	model := potential.NewSilicaModel()
	cfg := workload.BetaCristobalite(4, 4, 4)
	cfg.Thermalize(rand.New(rand.NewSource(3)), model, 300)
	sys, err := md.NewSystem(cfg, model)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, e md.Engine) {
		for i := 0; i < b.N; i++ {
			if _, err := e.Compute(sys); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(sys.N()), "atoms")
	}
	scE, _ := md.NewCellEngine(model, sys.Box, md.FamilySC)
	fsE, _ := md.NewCellEngine(model, sys.Box, md.FamilyFS)
	hyE, _ := md.NewHybridEngine(model, sys.Box)
	b.Run("SC-MD", func(b *testing.B) { run(b, scE) })
	b.Run("FS-MD", func(b *testing.B) { run(b, fsE) })
	b.Run("Hybrid-MD", func(b *testing.B) { run(b, hyE) })
}

// BenchmarkKernel sweeps the unified force kernel's worker count over
// the silica pair+triplet model (§6 concurrency): the same
// kernel.Sharded accumulator under 1, 2, 4, and GOMAXPROCS workers.
func BenchmarkKernel(b *testing.B) {
	model := potential.NewSilicaModel()
	cfg := workload.BetaCristobalite(4, 4, 4)
	cfg.Thermalize(rand.New(rand.NewSource(6)), model, 300)
	sys, err := md.NewSystem(cfg, model)
	if err != nil {
		b.Fatal(err)
	}
	counts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		counts = append(counts, p)
	}
	for _, workers := range counts {
		e, err := md.NewConcurrentCellEngine(model, sys.Box, md.FamilySC, workers)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Compute(sys); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sys.N()), "atoms")
		})
	}
}

// --- Parallel stepping (Figure 8/9 substrate) ---

func BenchmarkParallelStep(b *testing.B) {
	model := potential.NewSilicaModel()
	cfg := workload.BetaCristobalite(4, 4, 4)
	cfg.Thermalize(rand.New(rand.NewSource(4)), model, 300)
	for _, scheme := range parmd.Schemes() {
		b.Run(scheme.String(), func(b *testing.B) {
			cart := comm.NewCart(8)
			for i := 0; i < b.N; i++ {
				if _, err := parmd.Run(cfg, model, parmd.Options{
					Scheme: scheme, Cart: cart, Dt: 1, Steps: 1,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRouting compares SC-MD's 3-step forwarded octant
// import against the full-shell 6-step exchange at equal physics,
// reporting the measured per-step halo traffic.
func BenchmarkAblationRouting(b *testing.B) {
	model := potential.NewSilicaModel()
	cfg := workload.BetaCristobalite(4, 4, 4)
	for _, tc := range []struct {
		name   string
		scheme parmd.Scheme
	}{
		{"octant-3step", parmd.SchemeSC},
		{"fullshell-6step", parmd.SchemeFS},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cart := comm.NewCart(8)
			var imported int64
			for i := 0; i < b.N; i++ {
				res, err := parmd.Run(cfg, model, parmd.Options{
					Scheme: tc.scheme, Cart: cart, Dt: 1, Steps: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				imported = res.MaxRank().AtomsImported
			}
			b.ReportMetric(float64(imported), "halo-atoms")
		})
	}
}

// --- Figures 8 and 9 (performance-model generation) ---

func BenchmarkFig8Model(b *testing.B) {
	for _, m := range perfmodel.Machines() {
		mod, err := perfmodel.NewModel(m)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.Name, func(b *testing.B) {
			grains := bench.DefaultFig8Grains()
			for i := 0; i < b.N; i++ {
				rows := mod.Fig8(grains)
				if len(rows) != len(grains) {
					b.Fatal("short sweep")
				}
			}
		})
	}
}

func BenchmarkFig9Model(b *testing.B) {
	mod, err := perfmodel.NewModel(perfmodel.BlueGeneQ())
	if err != nil {
		b.Fatal(err)
	}
	tasks := []int{64, 256, 1024, 4096, 16384, 32768}
	for i := 0; i < b.N; i++ {
		rows := mod.Fig9(0.79e6, tasks, 64)
		if len(rows) != len(tasks) {
			b.Fatal("short sweep")
		}
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkBinning(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	cfg := workload.UniformSilica(rng, 10000)
	lat, err := cell.NewLattice(cfg.Box, 5.5)
	if err != nil {
		b.Fatal(err)
	}
	bin := cell.NewBinning(lat, cfg.Pos)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bin.Rebin(cfg.Pos)
	}
}

func BenchmarkCommHaloRing(b *testing.B) {
	// A 3-step ring exchange of a 10 KB payload across 8 ranks: the
	// communication substrate's overhead floor.
	w := comm.NewWorld(8)
	payload := make([]byte, 10240)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := w.Run(func(p *comm.Proc) error {
			for step := 0; step < 3; step++ {
				next := (p.Rank() + 1) % p.Size()
				prev := (p.Rank() + p.Size() - 1) % p.Size()
				buf := append([]byte(nil), payload...)
				p.SendRecv(next, step, buf, prev, step)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVashishtaPair(b *testing.B) {
	model := potential.NewSilicaModel()
	pair := model.Terms[0]
	pos := []geom.Vec3{{}, geom.V(2.2, 1.1, 0.7)}
	f := make([]geom.Vec3, 2)
	sp := []int32{0, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pair.Eval(sp, pos, f)
	}
}

func BenchmarkVashishtaTriplet(b *testing.B) {
	model := potential.NewSilicaModel()
	trip := model.Terms[1]
	pos := []geom.Vec3{geom.V(1.6, 0, 0), {}, geom.V(0, 1.6, 0.4)}
	f := make([]geom.Vec3, 3)
	sp := []int32{1, 0, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trip.Eval(sp, pos, f)
	}
}
