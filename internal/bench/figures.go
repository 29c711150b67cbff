package bench

import (
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"sctuple/internal/comm"
	"sctuple/internal/obs"
	"sctuple/internal/parmd"
	"sctuple/internal/perfmodel"
	"sctuple/internal/potential"
	"sctuple/internal/workload"
)

// Fig8Report reproduces Figure 8: modeled runtime per MD step versus
// granularity for the three codes on one machine profile, with the
// SC↔Hybrid crossover location.
func Fig8Report(w io.Writer, machine perfmodel.Machine, grains []float64) error {
	m, err := perfmodel.NewModel(machine)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 8: runtime vs granularity on %s (%d tasks/node)\n",
		machine.Name, machine.TasksPerNode)
	fmt.Fprintln(w, "paper: SC-MD fastest at fine grain (9.7×/5.1× vs Hybrid at N/P=24 on")
	fmt.Fprintln(w, "Xeon/BG/Q); Hybrid-MD overtakes at coarse grain (paper crossover at")
	fmt.Fprintln(w, "N/P ≈ 2095 Xeon / 425 BG/Q; see EXPERIMENTS.md on the model's value)")
	fmt.Fprintln(w)
	tw := newTable(w)
	fmt.Fprintln(tw, "N/P\tSC-MD (ms)\tFS-MD (ms)\tHybrid-MD (ms)\tHy/SC\tFS/SC\tSC comm share")
	for _, row := range m.Fig8(grains) {
		fmt.Fprintf(tw, "%.0f\t%.3f\t%.3f\t%.3f\t%.2f\t%.2f\t%.0f%%\n",
			row.Grain,
			row.SC.Total()*1e3, row.FS.Total()*1e3, row.Hy.Total()*1e3,
			row.Hy.Total()/row.SC.Total(), row.FS.Total()/row.SC.Total(),
			100*row.SC.Comm()/row.SC.Total())
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if x, err := m.Crossover(30, 1e8); err == nil {
		fmt.Fprintf(w, "\nSC↔Hybrid crossover: N/P ≈ %.0f\n", x)
	} else {
		fmt.Fprintf(w, "\nSC↔Hybrid crossover: none in range (%v)\n", err)
	}
	return nil
}

// DefaultFig8Grains is the granularity sweep of Figure 8
// (N/P = 24 … 3000).
func DefaultFig8Grains() []float64 {
	return []float64{24, 48, 96, 192, 425, 850, 1500, 2095, 3000}
}

// Fig9Report reproduces Figure 9: modeled strong-scaling speedup of a
// fixed-size silica system. Paper systems: 0.88 M atoms on 12-768
// Xeon cores; 0.79 M atoms on 16-8192 BG/Q cores (×4 tasks/core);
// extreme point 50.3 M atoms to 524 288 cores.
func Fig9Report(w io.Writer, machine perfmodel.Machine, nAtoms float64, cores []int, refCores, tasksPerCore int) error {
	m, err := perfmodel.NewModel(machine)
	if err != nil {
		return err
	}
	tasks := make([]int, len(cores))
	for i, c := range cores {
		tasks[i] = c * tasksPerCore
	}
	rows := m.Fig9(nAtoms, tasks, refCores*tasksPerCore)
	fmt.Fprintf(w, "Figure 9: strong scaling of %.3g atoms on %s (reference %d cores)\n",
		nAtoms, machine.Name, refCores)
	fmt.Fprintln(w)
	tw := newTable(w)
	fmt.Fprintln(tw, "cores\tN/task\tS(SC)\tη(SC)\tS(FS)\tη(FS)\tS(Hybrid)\tη(Hybrid)")
	for i, r := range rows {
		fmt.Fprintf(tw, "%d\t%.0f\t%.1f\t%.1f%%\t%.1f\t%.1f%%\t%.1f\t%.1f%%\n",
			cores[i], r.Grain, r.SC, 100*r.SCEff, r.FS, 100*r.FSEff, r.Hy, 100*r.HyEff)
	}
	return tw.Flush()
}

// ValidateRow compares a model prediction against a real in-process
// parallel run.
type ValidateRow struct {
	Scheme         parmd.Scheme
	Tasks          int
	Grain          float64
	MeasuredImport float64 // halo atoms per task per step (max rank)
	ModelImport    float64
	MeasuredSearch float64 // candidates per owned atom per step
	ModelSearch    float64
	// Halo + write-back traffic per task per step, from the runtime's
	// per-tag-class counters versus Eq. 31's byte model.
	MeasuredCommKB float64
	ModelCommKB    float64
	// Wall-time comparison per force evaluation on the critical-path
	// rank: the span recorder's phase timings split into compute
	// (binning, tuple search, force kernels) and communication (halo,
	// write-back, migration, reductions), against the analytic model
	// evaluated on the calibrated local machine profile
	// (perfmodel.LocalMachine).
	MeasuredComputeMs float64
	ModelComputeMs    float64
	MeasuredCommMs    float64
	ModelCommMs       float64
	// WaitMs is the per-task time blocked on halo imports per
	// evaluation — the comm runtime's halo-class wait counter averaged
	// over tasks. It is the wait the overlapped exchange can hide: the
	// write-back, migration and reduction receives run identically in
	// both modes, so their waits only add the ranks' drift to the
	// comparison.
	WaitMs float64
	// SyncWaitMs is WaitMs of the same workload re-run with the
	// overlapped exchange disabled (Options.NoOverlap) — the
	// synchronous baseline the overlap is judged against.
	SyncWaitMs float64
	// OverlapFrac is the overlapped run's measured overlap efficiency,
	// interior compute over interior + halo wait (Result.OverlapFraction).
	OverlapFrac float64
	// Imbalance is the force-phase load imbalance (max/mean of per-rank
	// force-kernel time, Result.ForceImbalance) — the quantity the
	// adaptive balancer drives toward 1.
	Imbalance float64
	// StepMsP50/P90/P99 are per-step wall-time quantiles across all
	// (step, rank) samples, estimated from the run's parmd.step_ms
	// histogram buckets (obs.HistSnapshot.Quantiles) — the tail shape
	// a mean-only column hides.
	StepMsP50 float64
	StepMsP90 float64
	StepMsP99 float64
	// Phases is the run's full per-phase time decomposition across
	// ranks (max/mean/imbalance), for the report's breakdown table.
	Phases []obs.PhaseStat
}

// commPhases marks the span phases that count as communication; every
// other phase (bin, search, force:*, integrate) counts as compute.
var commPhases = map[string]bool{
	"halo": true, "halo:wait": true, "writeback": true, "migrate": true, "reduce": true,
}

// Validate runs real parallel silica MD on small in-process worlds and
// compares measured per-rank import volumes and search costs against
// the performance model's predictions — the evidence that Fig. 8/9 are
// driven by the implemented algorithms rather than assumptions.
func Validate(nAtoms int, ranks []int, steps int, seed int64) ([]ValidateRow, error) {
	return validateInto(nil, nAtoms, ranks, steps, seed, 0)
}

// validateInto is Validate with an optional trace collector — each
// (scheme, rank-count) run's recorder is added as one named process,
// so the whole validation sweep exports as a single timeline file —
// and an optional wire latency: when positive, both the overlapped run
// and its synchronous baseline exchange messages over the channel
// transport with that wire delay.
func validateInto(mt *obs.MultiTrace, nAtoms int, ranks []int, steps int, seed int64, latency time.Duration) ([]ValidateRow, error) {
	model := potential.NewSilicaModel()
	cfg := workload.BetaCristobalite(cube(nAtoms / 24))
	local, err := perfmodel.LocalMachine()
	if err != nil {
		return nil, err
	}
	lm, err := perfmodel.NewModel(local)
	if err != nil {
		return nil, err
	}
	var out []ValidateRow
	for _, p := range ranks {
		cart := comm.NewCart(p)
		for _, scheme := range parmd.Schemes() {
			// 16 ring slots per rank suffice for PhaseStats (which reads
			// the cumulative per-phase totals, not the ring); with a trace
			// collector attached, keep every span of the short run.
			spans := 16
			if mt != nil {
				spans = 16 * (steps + 2)
			}
			rec := obs.NewRecorder(p, spans)
			reg := obs.NewRegistry()
			res, err := runLatency(cfg, model, latency, parmd.Options{
				Scheme: scheme, Cart: cart, Dt: 1.0, Steps: steps,
				Recorder: rec, Metrics: reg,
			})
			if err != nil {
				return nil, fmt.Errorf("bench: %v on %d ranks: %w", scheme, p, err)
			}
			mt.Add(fmt.Sprintf("%v ranks=%d", scheme, p), rec)
			maxRank := res.MaxRank()
			grain := float64(cfg.N()) / float64(p)
			r, err := perfmodel.MeasureRates(scheme)
			if err != nil {
				return nil, err
			}
			haloBytes := res.CommByClass["halo"].Bytes + res.CommByClass["force"].Bytes
			// Phase times accumulate over steps+1 force evaluations
			// (one initial); split them into compute vs communication
			// on the critical-path (max) rank.
			evals := float64(steps + 1)
			var compNs, commNs int64
			for _, ps := range res.Phases {
				if commPhases[ps.Phase] {
					commNs += ps.MaxNs
				} else {
					compNs += ps.MaxNs
				}
			}
			waitNs := res.CommByClass["halo"].Wait.Nanoseconds()
			// Synchronous baseline: the identical workload with the
			// overlapped exchange off, for the wait-time comparison
			// (no recorder — only the comm counters are read).
			syncRes, err := runLatency(cfg, model, latency, parmd.Options{
				Scheme: scheme, Cart: cart, Dt: 1.0, Steps: steps,
				NoOverlap: true,
			})
			if err != nil {
				return nil, fmt.Errorf("bench: sync baseline %v on %d ranks: %w", scheme, p, err)
			}
			syncWaitNs := syncRes.CommByClass["halo"].Wait.Nanoseconds()
			st := lm.StepTime(scheme, grain)
			p50, p90, p99 := reg.Snapshot().Histograms["parmd.step_ms"].Quantiles()
			out = append(out, ValidateRow{
				Scheme: scheme,
				Tasks:  p,
				Grain:  grain,
				// Import stats accumulate over steps+1 force
				// evaluations (one initial).
				MeasuredImport: float64(maxRank.AtomsImported) / evals,
				ModelImport:    perfmodel.ImportAtoms(scheme, grain),
				MeasuredSearch: float64(maxRank.SearchCandidates) / evals / grain,
				ModelSearch:    r.SearchPerAtom,
				// World totals averaged over tasks (the model predicts a
				// typical task, not the max rank).
				MeasuredCommKB: float64(haloBytes) / float64(p) / evals / 1e3,
				ModelCommKB: perfmodel.ImportAtoms(scheme, grain) *
					(parmd.HaloAtomWireBytes + parmd.ForceWireBytes) / 1e3,
				MeasuredComputeMs: float64(compNs) / evals / 1e6,
				ModelComputeMs:    (st.Search + st.Eval) * 1e3,
				MeasuredCommMs:    float64(commNs) / evals / 1e6,
				ModelCommMs:       st.Comm() * 1e3,
				WaitMs:            float64(waitNs) / float64(p) / evals / 1e6,
				SyncWaitMs:        float64(syncWaitNs) / float64(p) / evals / 1e6,
				OverlapFrac:       res.OverlapFraction(),
				Imbalance:         res.ForceImbalance(),
				StepMsP50:         p50,
				StepMsP90:         p90,
				StepMsP99:         p99,
				Phases:            res.Phases,
			})
		}
	}
	return out, nil
}

// runLatency is parmd.Run over the channel transport with the given
// wire delay (0: the default transport).
func runLatency(cfg *workload.Config, model *potential.Model, latency time.Duration, opt parmd.Options) (*parmd.Result, error) {
	tr := comm.NewChanTransport(opt.Cart.Size(), latency)
	defer tr.Close()
	opt.Transport = tr
	return parmd.Run(cfg, model, opt)
}

// writeTraceFile writes a collected multi-run trace to path.
func writeTraceFile(path string, mt *obs.MultiTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := mt.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cube returns near-cubic supercell counts for a unit-cell total.
func cube(cells int) (int, int, int) {
	s := int(math.Round(math.Cbrt(float64(cells))))
	if s < 1 {
		s = 1
	}
	return s, s, s
}

// ValidateReport runs Validate and prints the comparison.
func ValidateReport(w io.Writer, nAtoms int, ranks []int, steps int, seed int64) error {
	return ValidateReportTrace(w, nAtoms, ranks, steps, seed, "")
}

// ValidateReportTrace is ValidateReport plus span-timeline export:
// with tracePath non-empty, every validation run's per-rank spans are
// written there as one Chrome trace-event file (one named process per
// scheme × rank count), loadable in Perfetto.
func ValidateReportTrace(w io.Writer, nAtoms int, ranks []int, steps int, seed int64, tracePath string) error {
	var mt *obs.MultiTrace
	if tracePath != "" {
		mt = &obs.MultiTrace{}
	}
	rows, err := validateInto(mt, nAtoms, ranks, steps, seed, 0)
	if err != nil {
		return err
	}
	if mt != nil {
		if err := writeTraceFile(tracePath, mt); err != nil {
			return err
		}
		fmt.Fprintf(w, "span timeline written to %s\n\n", tracePath)
	}
	fmt.Fprintln(w, "Model validation: real in-process parallel runs vs performance model")
	fmt.Fprintln(w, "(measured = max-rank averages per step; model = analytic geometry + measured rates)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Note: import volumes and search counts should agree within edge effects.")
	fmt.Fprintln(w, "The parallel SC/FS-MD engines search each term on sub-cells of the pair")
	fmt.Fprintln(w, "lattice sized by the term's cutoff, as the model's per-cutoff lattices")
	fmt.Fprintln(w, "do (§3.1.1); sub-cells nest in pair cells, so the octant halo stays one")
	fmt.Fprintln(w, "pair cell. The runs also drop chains with a species link the potential")
	fmt.Fprintln(w, "defines as zero (silica: O-O, Si-Si in triplets), which the model's")
	fmt.Fprintln(w, "geometric Eq. 12 rates count, so measured search per atom sits closer")
	fmt.Fprintln(w, "to the model than the sub-cell edge effects alone would leave it.")
	fmt.Fprintln(w)
	tw := newTable(w)
	fmt.Fprintln(tw, "scheme\ttasks\tN/task\timport meas\timport model\tsearch/atom meas\tsearch/atom model\tcomm KB meas\tcomm KB model")
	for _, r := range rows {
		fmt.Fprintf(tw, "%v\t%d\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.1f\t%.1f\n",
			r.Scheme, r.Tasks, r.Grain,
			r.MeasuredImport, r.ModelImport,
			r.MeasuredSearch, r.ModelSearch,
			r.MeasuredCommKB, r.ModelCommKB)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nWall time per force evaluation: span-recorder phase timings (max rank)")
	fmt.Fprintln(w, "vs the analytic model on the calibrated local machine profile; wait is")
	fmt.Fprintln(w, "the per-task time blocked on halo imports (the part the overlap can hide),")
	fmt.Fprintln(w, "sync wait the same with the overlapped exchange disabled, and overlap the")
	fmt.Fprintln(w, "fraction of the exchange window hidden behind interior compute;")
	fmt.Fprintln(w, "imbalance is max/mean per-rank force-kernel time (1.00 = perfect);")
	fmt.Fprintln(w, "step ms p50/p90/p99 are per-(step, rank) wall-time quantiles estimated")
	fmt.Fprintln(w, "from the run's step-time histogram buckets")
	fmt.Fprintln(w)
	tw = newTable(w)
	fmt.Fprintln(tw, "scheme\ttasks\tcompute ms meas\tcompute ms model\tcomm ms meas\tcomm ms model\twait ms\tsync wait ms\toverlap\timbalance\tstep ms p50\tp90\tp99")
	for _, r := range rows {
		fmt.Fprintf(tw, "%v\t%d\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			r.Scheme, r.Tasks,
			r.MeasuredComputeMs, r.ModelComputeMs,
			r.MeasuredCommMs, r.ModelCommMs, r.WaitMs, r.SyncWaitMs, r.OverlapFrac, r.Imbalance,
			r.StepMsP50, r.StepMsP90, r.StepMsP99)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nPer-phase decomposition (whole run, max/mean over ranks):")
	fmt.Fprintln(w)
	tw = newTable(w)
	fmt.Fprintln(tw, "scheme\ttasks\tphase\tmax ms\tmean ms\timbalance")
	for _, r := range rows {
		for _, ps := range r.Phases {
			fmt.Fprintf(tw, "%v\t%d\t%s\t%.3f\t%.3f\t%.2f\n",
				r.Scheme, r.Tasks, ps.Phase,
				float64(ps.MaxNs)/1e6, ps.MeanNs/1e6, ps.Imbalance())
		}
	}
	return tw.Flush()
}
