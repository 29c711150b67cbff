package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"

	"sctuple/internal/comm"
	"sctuple/internal/obs"
	"sctuple/internal/obs/health"
	"sctuple/internal/parmd"
	"sctuple/internal/perfmodel"
	"sctuple/internal/potential"
	"sctuple/internal/workload"
)

// BenchSchemaVersion is the schema of the BENCH_*.json files scbench
// record writes and scbench compare reads. Bump it on any breaking
// change to the field layout; compare refuses to diff files with
// mismatched versions.
//
// Version history:
//
//	1  initial layout
//	2  overlapped halo exchange: workloads gain overlap_fraction, and
//	   phase_ns carries the split force:interior/force:boundary and
//	   halo:wait phases in place of SC/FS per-term force spans
//	3  cell-sorted SoA storage and the zero-alloc step loop:
//	   allocs_per_step is now the barrier-fenced steady-state malloc
//	   rate of the step loop alone (Result.StepAllocs) instead of a
//	   whole-run delta that included setup, and compare enforces an
//	   absolute allocs_per_step ceiling on the new record
//	4  adaptive repartitioning: workloads gain repartitions (count of
//	   boundary moves, 0 on these uniform benchmark runs) and
//	   imbalance (max/mean per-rank force-kernel time over the whole
//	   run, the quantity the balancer drives toward 1)
const BenchSchemaVersion = 4

// HostProfile pins a recorded benchmark to the machine it ran on: the
// Go runtime's identification plus the calibrated per-operation
// constants of perfmodel.LocalMachine, so two files can be judged
// comparable (or not) before their timings are.
type HostProfile struct {
	Name        string  `json:"name"`
	GoOS        string  `json:"goos"`
	GoArch      string  `json:"goarch"`
	NumCPU      int     `json:"num_cpu"`
	CandidateNs float64 `json:"candidate_ns"` // tuple-search candidate cost
	PairEvalNs  float64 `json:"pair_eval_ns"`
	TripletNs   float64 `json:"triplet_eval_ns"`
	LatencyNs   float64 `json:"latency_ns"`     // transport λ
	BandwidthMB float64 `json:"bandwidth_mb_s"` // transport β
}

// CommStats is the JSON shape of one tag class's communication volume.
type CommStats struct {
	Messages int64 `json:"messages"`
	Bytes    int64 `json:"bytes"`
	WaitNs   int64 `json:"wait_ns"`
}

// BenchWorkload is one recorded run: identification, the per-phase
// max-rank time decomposition, per-class communication volume, the
// allocation rate, and the health-probe summary.
type BenchWorkload struct {
	Name          string               `json:"name"`
	Scheme        string               `json:"scheme"`
	Atoms         int                  `json:"atoms"`
	Steps         int                  `json:"steps"`
	Ranks         int                  `json:"ranks"`
	Workers       int                  `json:"workers"`
	WallMsPerStep float64              `json:"wall_ms_per_step"`
	AllocsPerStep float64              `json:"allocs_per_step"`
	PhaseNs       map[string]int64     `json:"phase_ns"` // cumulative max-rank ns per phase
	Comm          map[string]CommStats `json:"comm"`     // per tag class, world totals
	// OverlapFraction is the run's measured overlap efficiency:
	// interior compute over interior + halo wait (Result.OverlapFraction).
	OverlapFraction float64 `json:"overlap_fraction"`
	// Repartitions counts adaptive boundary moves (0 when the balancer
	// is off or the load never trips its threshold); Imbalance is the
	// whole-run force-phase load imbalance, max/mean of per-rank
	// force-kernel time (Result.ForceImbalance).
	Repartitions int            `json:"repartitions"`
	Imbalance    float64        `json:"imbalance"`
	Health       health.Summary `json:"health"`
}

// BenchFile is the schema-versioned benchmark record scbench record
// writes as BENCH_<gitsha>.json.
type BenchFile struct {
	SchemaVersion int             `json:"schema_version"`
	GitSHA        string          `json:"git_sha"`
	Seed          int64           `json:"seed"`
	Host          HostProfile     `json:"host"`
	Workloads     []BenchWorkload `json:"workloads"`
}

// RecordOptions parameterizes one benchmark recording.
type RecordOptions struct {
	Atoms   int // β-cristobalite is built to the nearest unit-cell cube
	Steps   int
	Ranks   int
	Workers int
	Seed    int64  // thermalization seed, recorded for reproducibility
	GitSHA  string // recorded verbatim
}

// Record runs the standard benchmark sweep — one thermalized
// β-cristobalite NVE run per tuple-search scheme on an in-process rank
// world, with the span recorder and every health probe on — and
// returns the schema-versioned result. Probe thresholds are generous
// (the run must be healthy on any correct build; the probes are here
// to mark a miscompiled or physically broken binary's benchmark as
// untrustworthy, not to grade integration accuracy).
func Record(opt RecordOptions) (*BenchFile, error) {
	// Below ~1500 atoms the β-cristobalite cube is too small for the
	// full-shell scheme's 2-cell halo once the domain is split across
	// ranks, so the floor is part of the recording contract.
	if opt.Atoms < 1500 {
		opt.Atoms = 1500
	}
	if opt.Steps <= 0 {
		opt.Steps = 10
	}
	if opt.Ranks <= 0 {
		opt.Ranks = 2
	}
	if opt.Workers <= 0 {
		opt.Workers = 1
	}

	local, err := perfmodel.LocalMachine()
	if err != nil {
		return nil, err
	}
	bf := &BenchFile{
		SchemaVersion: BenchSchemaVersion,
		GitSHA:        opt.GitSHA,
		Seed:          opt.Seed,
		Host: HostProfile{
			Name:        local.Name,
			GoOS:        runtime.GOOS,
			GoArch:      runtime.GOARCH,
			NumCPU:      runtime.NumCPU(),
			CandidateNs: local.CandidateTime * 1e9,
			PairEvalNs:  local.PairEvalTime * 1e9,
			TripletNs:   local.TripletEvalTime * 1e9,
			LatencyNs:   local.Latency * 1e9,
			BandwidthMB: local.Bandwidth / 1e6,
		},
	}

	model := potential.NewSilicaModel()
	cart := comm.NewCart(opt.Ranks)
	for _, scheme := range parmd.Schemes() {
		cfg := workload.BetaCristobalite(cube(opt.Atoms / 24))
		cfg.Thermalize(rand.New(rand.NewSource(opt.Seed)), model, 300)
		mon := health.New(health.Config{Every: 1, ParityEvery: opt.Steps})
		rec := obs.NewRecorder(opt.Ranks, 16)

		runtime.GC()
		res, err := parmd.Run(cfg, model, parmd.Options{
			Scheme: scheme, Cart: cart, Dt: 0.5, Steps: opt.Steps,
			Workers: opt.Workers, Recorder: rec, Health: mon,
			MeasureAllocs: true,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: record %v: %w", scheme, err)
		}

		w := BenchWorkload{
			Name:            fmt.Sprintf("silica-%v-r%d", scheme, opt.Ranks),
			Scheme:          scheme.String(),
			Atoms:           cfg.N(),
			Steps:           opt.Steps,
			Ranks:           opt.Ranks,
			Workers:         opt.Workers,
			WallMsPerStep:   res.Wall.Seconds() * 1e3 / float64(opt.Steps),
			AllocsPerStep:   res.StepAllocs,
			PhaseNs:         make(map[string]int64, len(res.Phases)),
			Comm:            make(map[string]CommStats, len(res.CommByClass)),
			OverlapFraction: res.OverlapFraction(),
			Repartitions:    res.Repartitions,
			Imbalance:       res.ForceImbalance(),
			Health:          res.Health,
		}
		for _, ps := range res.Phases {
			w.PhaseNs[ps.Phase] = ps.MaxNs
		}
		for class, s := range res.CommByClass {
			if s.Messages == 0 && s.Bytes == 0 && s.Wait == 0 {
				continue
			}
			w.Comm[class] = CommStats{
				Messages: s.Messages, Bytes: s.Bytes, WaitNs: s.Wait.Nanoseconds(),
			}
		}
		bf.Workloads = append(bf.Workloads, w)
	}
	return bf, nil
}

// WriteBenchFile writes a benchmark record as indented JSON.
func WriteBenchFile(path string, bf *BenchFile) error {
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadBenchFile reads and schema-checks a benchmark record.
func LoadBenchFile(path string) (*BenchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf BenchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if bf.SchemaVersion != BenchSchemaVersion {
		return nil, fmt.Errorf("bench: %s: schema version %d, this build reads %d",
			path, bf.SchemaVersion, BenchSchemaVersion)
	}
	return &bf, nil
}

// Regression is one metric of one workload that degraded beyond the
// comparison threshold.
type Regression struct {
	Workload string
	Metric   string
	Old, New float64
	Pct      float64 // relative change in percent (+ = worse)
}

// Absolute floors below which a metric is considered noise: timing
// jitter on sub-millisecond phases and small allocation counts would
// otherwise trip any relative threshold.
const (
	minPhaseNs = 2e6 // ignore phases under 2 ms cumulative
	minAllocs  = 256 // ignore allocation rates under 256 allocs/step
)

// Compare diffs two benchmark records workload by workload and returns
// every regression: a timing, allocation, or communication metric of a
// shared workload that got worse by more than thresholdPct percent
// (after the absolute noise floors), or a health summary that went
// unhealthy in the new record — an unhealthy run's numbers are not a
// benchmark, so that is a regression at any threshold. Workloads
// present in only one file are skipped (recording configurations may
// evolve); an improvement is never a regression.
//
// maxAllocs is an absolute ceiling on every new workload's steady-state
// allocs_per_step, enforced regardless of the baseline — the step loop
// is zero-alloc by construction, so any rate above a small slack means
// a per-step allocation crept back in. Zero or negative disables the
// ceiling.
func Compare(old, new *BenchFile, thresholdPct, maxAllocs float64) []Regression {
	byName := make(map[string]*BenchWorkload, len(old.Workloads))
	for i := range old.Workloads {
		byName[old.Workloads[i].Name] = &old.Workloads[i]
	}
	var regs []Regression
	for i := range new.Workloads {
		nw := &new.Workloads[i]
		ow := byName[nw.Name]
		if ow == nil {
			continue
		}
		add := func(metric string, oldV, newV, floor float64) {
			if oldV < floor && newV < floor {
				return
			}
			base := math.Max(oldV, floor)
			pct := (newV - oldV) / base * 100
			if pct > thresholdPct {
				regs = append(regs, Regression{
					Workload: nw.Name, Metric: metric, Old: oldV, New: newV, Pct: pct,
				})
			}
		}
		add("wall_ms_per_step", ow.WallMsPerStep, nw.WallMsPerStep, 0.01)
		add("allocs_per_step", ow.AllocsPerStep, nw.AllocsPerStep, minAllocs)
		if maxAllocs > 0 && nw.AllocsPerStep > maxAllocs {
			regs = append(regs, Regression{
				Workload: nw.Name, Metric: "allocs_per_step.ceiling",
				Old: maxAllocs, New: nw.AllocsPerStep,
				Pct: (nw.AllocsPerStep - maxAllocs) / maxAllocs * 100,
			})
		}
		for phase, oldNs := range ow.PhaseNs {
			add("phase_ns."+phase, float64(oldNs), float64(nw.PhaseNs[phase]), minPhaseNs)
		}
		for class, oc := range ow.Comm {
			nc := nw.Comm[class]
			add("comm."+class+".bytes", float64(oc.Bytes), float64(nc.Bytes), 1)
			add("comm."+class+".messages", float64(oc.Messages), float64(nc.Messages), 1)
		}
		if !nw.Health.Healthy() {
			for _, p := range nw.Health.Probes {
				if p.Severity() == health.OK {
					continue
				}
				regs = append(regs, Regression{
					Workload: nw.Name,
					Metric:   "health." + p.Probe,
					Old:      0,
					New:      float64(p.Warn + p.Fail),
					Pct:      math.Inf(1),
				})
			}
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Workload != regs[j].Workload {
			return regs[i].Workload < regs[j].Workload
		}
		return regs[i].Metric < regs[j].Metric
	})
	return regs
}

// CompareReport prints a comparison and returns an error when it found
// regressions — the non-zero-exit contract of scbench compare.
func CompareReport(w *os.File, oldPath, newPath string, thresholdPct, maxAllocs float64) error {
	old, err := LoadBenchFile(oldPath)
	if err != nil {
		return err
	}
	cur, err := LoadBenchFile(newPath)
	if err != nil {
		return err
	}
	regs := Compare(old, cur, thresholdPct, maxAllocs)
	fmt.Fprintf(w, "bench compare: %s (sha %s) vs %s (sha %s), threshold %g%%, alloc ceiling %g/step\n",
		oldPath, shortSHA(old.GitSHA), newPath, shortSHA(cur.GitSHA), thresholdPct, maxAllocs)
	if len(regs) == 0 {
		fmt.Fprintln(w, "no regressions")
		return nil
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tchange")
	for _, r := range regs {
		change := fmt.Sprintf("+%.1f%%", r.Pct)
		if math.IsInf(r.Pct, 1) {
			change = "unhealthy"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\n", r.Workload, r.Metric, r.Old, r.New, change)
	}
	tw.Flush()
	return fmt.Errorf("bench: %d regression(s) beyond %g%%", len(regs), thresholdPct)
}

func shortSHA(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	if sha == "" {
		return "?"
	}
	return sha
}
