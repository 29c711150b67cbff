package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"sctuple/internal/cell"
	"sctuple/internal/core"
	"sctuple/internal/md"
	"sctuple/internal/potential"
	"sctuple/internal/tuple"
	"sctuple/internal/workload"
)

// AblateReport isolates each design choice of the SC algorithm on the
// real silica workload, with measured counts rather than closed forms:
//
//  1. R-COLLAPSE: search cost with and without reflective collapse.
//  2. OC-SHIFT: import volume with and without octant compression.
//  3. Hybrid pruning vs SC cell search (the Fig. 8 trade-off).
//  4. Midpoint cell refinement (§6): candidates per tuple vs k.
//  5. Verlet-skin list reuse: rebuild counts vs skin width.
func AblateReport(w io.Writer, atoms, steps int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	cfg := workload.UniformSilica(rng, atoms)
	// The ablations compare geometric search costs (Eq. 12), so no
	// search skips the tuples the potential defines as zero.
	model := potential.WithoutLinks(potential.NewSilicaModel())

	fmt.Fprintf(w, "Ablations on a %d-atom uniform silica system\n", cfg.N())

	// --- 1. R-COLLAPSE ---
	fmt.Fprintln(w, "\n1. R-COLLAPSE (reflective redundancy removal), triplet search:")
	lat3, err := cell.NewLattice(cfg.Box, 2.6)
	if err != nil {
		return err
	}
	bin3 := cell.NewBinning(lat3, cfg.Pos)
	tw := newTable(w)
	fmt.Fprintln(tw, "pattern\t|Ψ|\tcandidates\ttuples emitted")
	for _, tc := range []struct {
		name    string
		pattern *core.Pattern
	}{
		{"OC-shift only (no collapse)", core.OCShift(core.GenerateFS(3))},
		{"full SC (shift + collapse)", core.SC(3)},
	} {
		e, err := tuple.NewEnumerator(bin3, tc.pattern, 2.6, tuple.DedupAuto)
		if err != nil {
			return err
		}
		st := e.Count(cfg.Pos)
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", tc.name, tc.pattern.Len(), st.Candidates, st.Emitted)
	}
	tw.Flush()

	// --- 2. OC-SHIFT ---
	fmt.Fprintln(w, "\n2. OC-SHIFT (octant compression), import volume for an l³-cell domain:")
	tw = newTable(w)
	fmt.Fprintln(tw, "l\tcollapse only (half-shell style)\tfull SC\treduction")
	rcOnly := core.RCollapse(core.GenerateFS(3))
	sc3 := core.SC(3)
	for _, l := range []int{2, 4, 8} {
		a := rcOnly.ImportVolume(l)
		b := sc3.ImportVolume(l)
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.2f×\n", l, a, b, float64(a)/float64(b))
	}
	tw.Flush()

	// --- 3. Hybrid pruning vs SC search ---
	fmt.Fprintln(w, "\n3. Triplet search strategy (the Figure 8 compute trade-off):")
	sys, err := md.NewSystem(cfg, model)
	if err != nil {
		return err
	}
	tw = newTable(w)
	fmt.Fprintln(tw, "engine\tsearch candidates\tms/eval")
	scE, err := md.NewCellEngine(model, sys.Box, md.FamilySC)
	if err != nil {
		return err
	}
	hyE, err := md.NewHybridEngine(model, sys.Box)
	if err != nil {
		return err
	}
	for _, e := range []md.Engine{scE, hyE} {
		start := time.Now()
		if _, err := e.Compute(sys); err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%d\t%.2f\n", e.Name(), e.Stats().SearchCandidates,
			time.Since(start).Seconds()*1e3)
	}
	tw.Flush()

	// --- 4. Midpoint refinement ---
	fmt.Fprintln(w, "\n4. Midpoint cell refinement (§6), SC pair+triplet engine:")
	tw = newTable(w)
	fmt.Fprintln(tw, "k\tcandidates\tcandidates/tuple\tms/eval")
	for _, k := range []int{1, 2} {
		e, err := md.NewCellEngineRadius(model, sys.Box, md.FamilySC, k)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := e.Compute(sys); err != nil {
			return err
		}
		st := e.Stats()
		fmt.Fprintf(tw, "%d\t%d\t%.2f\t%.2f\n", k, st.SearchCandidates,
			float64(st.SearchCandidates)/float64(st.TuplesEvaluated),
			time.Since(start).Seconds()*1e3)
	}
	tw.Flush()

	// --- 5. Verlet skin ---
	fmt.Fprintln(w, "\n5. Verlet-skin list reuse (Hybrid engine), short 300 K trajectory:")
	tw = newTable(w)
	fmt.Fprintln(tw, "skin (Å)\tlist rebuilds\tforce evaluations")
	for _, skin := range []float64{0, 0.3, 0.6, 1.0} {
		runCfg := workload.UniformSilica(rand.New(rand.NewSource(seed)), atoms)
		runCfg.Thermalize(rand.New(rand.NewSource(seed+1)), model, 300)
		runSys, err := md.NewSystem(runCfg, model)
		if err != nil {
			return err
		}
		var e *md.HybridEngine
		if skin > 0 {
			e, err = md.NewHybridEngineSkin(model, runSys.Box, skin)
		} else {
			e, err = md.NewHybridEngine(model, runSys.Box)
		}
		if err != nil {
			return err
		}
		sim, err := md.NewSim(runSys, e, 1.0)
		if err != nil {
			return err
		}
		if err := sim.Run(steps); err != nil {
			return err
		}
		fmt.Fprintf(tw, "%.1f\t%d\t%d\n", skin, e.ListRebuilds(), steps+1)
	}
	return tw.Flush()
}
