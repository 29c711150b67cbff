// Command scmd runs many-body molecular-dynamics simulations with the
// shift-collapse n-tuple engines:
//
//	scmd -model silica -engine sc -cells 3 -steps 100 -temp 300
//	scmd -model lj -engine hybrid -atoms 864 -steps 500 -dt 2
//	scmd -model silica -engine sc -ranks 8 -steps 100
//
// Models: silica (Vashishta SiO₂, the paper's benchmark application),
// lj (Lennard-Jones argon), sw (Stillinger-Weber silicon), torsion
// (LJ + 4-body dihedral). Engines: sc (SC-MD), fs (FS-MD), hybrid
// (Hybrid-MD). With -ranks > 1 the run uses the parallel message-
// passing stack of the paper's benchmarks (in-process ranks).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sctuple/internal/analysis"
	"sctuple/internal/comm"
	"sctuple/internal/md"
	"sctuple/internal/obs"
	"sctuple/internal/obs/flight"
	"sctuple/internal/obs/health"
	"sctuple/internal/obs/serve"
	"sctuple/internal/parmd"
	"sctuple/internal/perfmodel"
	"sctuple/internal/potential"
	"sctuple/internal/trajio"
	"sctuple/internal/workload"
)

func main() {
	var (
		modelName  = flag.String("model", "silica", "potential model: silica, lj, sw, torsion")
		engineName = flag.String("engine", "sc", "force engine: sc, fs, hybrid")
		atoms      = flag.Int("atoms", 0, "atom count for fluid workloads (lj, torsion)")
		cells      = flag.Int("cells", 3, "supercell count per axis for crystal workloads (silica, sw)")
		steps      = flag.Int("steps", 100, "MD steps")
		dt         = flag.Float64("dt", 1.0, "time step (fs)")
		temp       = flag.Float64("temp", 300, "initial temperature (K)")
		thermostat = flag.Float64("thermostat", 0, "Berendsen target temperature (K), 0 = NVE")
		ranks      = flag.Int("ranks", 1, "parallel ranks (in-process); 1 = serial")
		every      = flag.Int("report", 20, "report interval (steps)")
		seed       = flag.Int64("seed", 1, "random seed")
		trajPath   = flag.String("traj", "", "write an extended-XYZ trajectory to this file (serial runs)")
		analyze    = flag.Bool("analyze", false, "print structure analysis (RDF peaks, angles) after the run")
		skin       = flag.Float64("skin", 0, "Verlet-list skin (Å) for the hybrid engine; 0 rebuilds every step")
		workers    = flag.Int("workers", 1, "worker goroutines per force evaluation, serial engines and per rank in parallel runs (0 = GOMAXPROCS)")
		noOverlap  = flag.Bool("no-overlap", false, "disable overlapping halo communication with interior force computation; parallel runs only")
		tracePath  = flag.String("trace", "", "write a Chrome trace-event span timeline (one track per rank) to this file; parallel runs only")
		metricsOut = flag.String("metrics", "", "write per-step JSONL telemetry records and a final metrics snapshot to this file; parallel runs only")
		serveAddr  = flag.String("serve", "", "serve live telemetry on this address (e.g. :9190): /metrics /healthz /steps /phases /trace + /debug/pprof")
		voidFrac   = flag.Float64("void", 0, "carve a spherical void of this diameter fraction out of a uniform fluid workload (0 = off); uses -atoms (default 6000)")
		balance    = flag.Bool("balance", false, "adaptive repartitioning: move slab boundaries toward equal measured force load; parallel runs only")
		balanceEv  = flag.Int("balance-every", 0, "balance-check cadence in steps (0 = default 20)")
		balanceThr = flag.Float64("balance-threshold", 0, "force-phase imbalance (max/mean) that triggers a repartition (0 = default 1.2)")
		healthEv   = flag.Int("health", 0, "run invariant health probes every N steps (0 = off); parallel runs only")
		parityEv   = flag.Int("parity", 0, "SC-vs-FS tuple-parity probe every N steps (0 = off; expensive, implies -health); parallel runs only")
		abortFail  = flag.Bool("abort-on-fail", false, "abort the run when a health probe fails")
		postmortem = flag.String("postmortem", "", "on abort (rank failure, health fail, SIGINT/SIGTERM) write a postmortem bundle to this directory; parallel runs only")
		faultSpec  = flag.String("fault", "", "inject a message fault: class[:N] corrupts traffic of that class ("+strings.Join(parmd.TagClassNames(), ", ")+") after N clean messages, counted per worker process with -transport socket; parallel runs only")
		modelCheck = flag.Bool("model-check", false, "calibrate the perfmodel in the background and flag steps drifting from its prediction; parallel runs only")
		logFormat  = flag.String("log", "", "structured run log to stderr: text or json")
		transport  = flag.String("transport", "chan", "parallel transport: chan (in-process goroutine ranks) or socket (one OS process per rank over a length-prefixed wire protocol)")
		socketNet  = flag.String("socket-net", "unix", "socket transport network: unix or tcp (loopback)")
		dumpForces = flag.String("dump-forces", "", "after a parallel run, write the final per-atom forces as hex float64 bits to this file (for bit-identity comparison across transports)")
		killRank   = flag.Int("kill-rank", -1, "socket fault drill: this worker rank exits hard at -kill-step, exercising the fleet's failure path (-1 = off)")
		killStep   = flag.Int("kill-step", 3, "socket fault drill: step at which -kill-rank exits")
		workerRank = flag.Int("worker-rank", -1, "internal: run as the worker process for this rank (set by the socket launcher)")
		rendezvous = flag.String("rendezvous", "", "internal: rendezvous address of the socket launcher")
		sockToken  = flag.String("socket-token", "", "internal: session token of the socket launcher")
	)
	flag.Parse()

	var logger *obs.Logger
	switch *logFormat {
	case "":
	case "text":
		logger = obs.TextLogger(os.Stderr, slog.LevelInfo)
	case "json":
		logger = obs.JSONLogger(os.Stderr, slog.LevelInfo)
	default:
		fmt.Fprintf(os.Stderr, "scmd: unknown -log format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}

	opts := serialOpts{traj: *trajPath, analyze: *analyze, skin: *skin, workers: *workers}
	tel := telemetryOpts{
		trace: *tracePath, metrics: *metricsOut, serve: *serveAddr, log: logger,
		healthEvery: *healthEv, parityEvery: *parityEv, abortOnFail: *abortFail,
		noOverlap: *noOverlap,
		balance:   *balance, balanceEvery: *balanceEv, balanceThreshold: *balanceThr,
		postmortem: *postmortem, fault: *faultSpec, modelCheck: *modelCheck,
	}
	sock := socketOpts{
		transport: *transport, network: *socketNet, dump: *dumpForces,
		killRank: *killRank, killStep: *killStep,
		workerRank: *workerRank, rendezvous: *rendezvous, token: *sockToken,
	}
	if err := run(*modelName, *engineName, *atoms, *cells, *steps, *dt, *temp, *thermostat, *ranks, *every, *seed, *voidFrac, opts, tel, sock); err != nil {
		fmt.Fprintln(os.Stderr, "scmd:", err)
		os.Exit(1)
	}
}

// telemetryOpts carries the parallel-run observability outputs and
// exchange-mode selection.
type telemetryOpts struct {
	trace       string
	metrics     string
	serve       string
	log         *obs.Logger
	healthEvery int
	parityEvery int
	abortOnFail bool
	noOverlap   bool

	balance          bool
	balanceEvery     int
	balanceThreshold float64

	postmortem string
	fault      string
	modelCheck bool
}

// serialOpts carries the optional serial-run features.
type serialOpts struct {
	traj    string
	analyze bool
	skin    float64
	workers int
}

func run(modelName, engineName string, atoms, cells, steps int, dt, temp, thermostat float64, ranks, every int, seed int64, voidFrac float64, opts serialOpts, tel telemetryOpts, sock socketOpts) error {
	rng := rand.New(rand.NewSource(seed))
	var (
		model *potential.Model
		cfg   *workload.Config
	)
	switch modelName {
	case "silica":
		model = potential.NewSilicaModel()
		cfg = workload.BetaCristobalite(cells, cells, cells)
	case "lj":
		model = potential.NewLJModel(0.0104, 3.4, 8.5, 39.948)
		if atoms == 0 {
			atoms = 864
		}
		cfg = workload.LJFluid(rng, atoms, 0.55, 3.4)
	case "sw":
		model = potential.NewStillingerWeberModel(potential.SiliconSW(), 28.0855)
		if atoms == 0 {
			atoms = 1000
		}
		cfg = workload.LJFluid(rng, atoms, 0.45, 2.0951)
	case "torsion":
		model = potential.NewTorsionModel(0.05, 1.8, 0.02, 1.0, 2.5, 12.0)
		if atoms == 0 {
			atoms = 512
		}
		cfg = workload.LJFluid(rng, atoms, 0.2, 1.0)
	default:
		return fmt.Errorf("unknown model %q", modelName)
	}
	if voidFrac > 0 {
		if voidFrac >= 1 {
			return fmt.Errorf("-void %g must be in (0, 1)", voidFrac)
		}
		// The void workload replaces the model's default configuration: a
		// uniform fluid at amorphous-silica density with an off-center
		// spherical hole — the nonuniform load the adaptive balancer is
		// for.
		n := atoms
		if n == 0 {
			n = 6000
		}
		cfg = workload.Void(rng, n, voidFrac)
		if len(model.Species) == 1 {
			for i := range cfg.Species {
				cfg.Species[i] = 0
			}
		}
	}
	if temp > 0 {
		cfg.Thermalize(rng, model, temp)
	}
	fmt.Printf("model %s: %d atoms in %v\n", model.Name, cfg.N(), cfg.Box)

	if ranks > 1 {
		if opts.traj != "" {
			return fmt.Errorf("-traj is supported for serial runs only")
		}
		switch sock.transport {
		case "socket":
			return runSocketMode(cfg, model, engineName, steps, dt, ranks, every, opts.workers, tel, sock)
		case "chan":
			return runParallel(cfg, model, engineName, steps, dt, ranks, every, opts.workers, tel, sock.dump)
		default:
			return fmt.Errorf("-transport %q: want chan or socket", sock.transport)
		}
	}
	if sock.transport != "chan" || sock.workerRank >= 0 {
		return fmt.Errorf("-transport socket needs -ranks > 1")
	}
	if tel.trace != "" || tel.metrics != "" {
		return fmt.Errorf("-trace and -metrics record the parallel stack; use -ranks > 1")
	}
	if tel.healthEvery > 0 || tel.parityEvery > 0 {
		return fmt.Errorf("-health and -parity probe the parallel stack; use -ranks > 1")
	}
	if tel.balance {
		return fmt.Errorf("-balance repartitions the parallel decomposition; use -ranks > 1")
	}
	if tel.postmortem != "" || tel.fault != "" || tel.modelCheck {
		return fmt.Errorf("-postmortem, -fault, and -model-check instrument the parallel stack; use -ranks > 1")
	}
	if tel.serve != "" {
		// Serial runs have no registry/recorder wiring (yet); the server
		// still gives pprof and a liveness /healthz.
		srv := &serve.Server{Info: map[string]string{
			"model": model.Name, "engine": engineName, "ranks": "1",
			"atoms": strconv.Itoa(cfg.N()), "steps": strconv.Itoa(steps),
		}}
		if err := srv.Start(tel.serve); err != nil {
			return err
		}
		fmt.Printf("telemetry server on http://%s/ (serial run: pprof and /healthz only)\n", srv.Addr())
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			srv.Close(ctx)
		}()
	}
	return runSerial(cfg, model, engineName, steps, dt, thermostat, every, opts, tel.log)
}

func runSerial(cfg *workload.Config, model *potential.Model, engineName string, steps int, dt, thermostat float64, every int, opts serialOpts, logger *obs.Logger) error {
	sys, err := md.NewSystem(cfg, model)
	if err != nil {
		return err
	}
	var engine md.Engine
	switch engineName {
	case "sc", "fs":
		fam := md.FamilySC
		if engineName == "fs" {
			fam = md.FamilyFS
		}
		if opts.workers == 1 {
			engine, err = md.NewCellEngine(model, sys.Box, fam)
		} else {
			engine, err = md.NewConcurrentCellEngine(model, sys.Box, fam, opts.workers)
		}
	case "hybrid":
		if opts.skin > 0 {
			engine, err = md.NewHybridEngineSkin(model, sys.Box, opts.skin)
		} else {
			engine, err = md.NewHybridEngine(model, sys.Box)
		}
	default:
		return fmt.Errorf("unknown engine %q", engineName)
	}
	if err != nil {
		return err
	}
	sim, err := md.NewSim(sys, engine, dt)
	if err != nil {
		return err
	}
	sim.Log = logger
	if thermostat > 0 {
		sim.Therm = &md.Berendsen{Target: thermostat, Tau: 100}
	}
	var traj *os.File
	if opts.traj != "" {
		traj, err = os.Create(opts.traj)
		if err != nil {
			return err
		}
		defer traj.Close()
	}
	names := make([]string, sys.N())
	for i, sp := range sys.Species {
		names[i] = model.Species[sp].Name
	}
	writeFrame := func() error {
		if traj == nil {
			return nil
		}
		return trajio.WriteFrame(traj, &trajio.Frame{
			Box:     sys.Box,
			Names:   names,
			Pos:     sys.Pos,
			Comment: fmt.Sprintf("step=%d", sim.Steps()),
		})
	}
	fmt.Printf("engine %s, dt %g fs, %d steps\n", engine.Name(), dt, steps)
	fmt.Printf("%8s %14s %14s %14s %10s\n", "step", "PE (eV)", "KE (eV)", "E total (eV)", "T (K)")
	report := func() {
		fmt.Printf("%8d %14.4f %14.4f %14.4f %10.1f\n",
			sim.Steps(), sim.PotentialEnergy(), sys.KineticEnergy(), sim.TotalEnergy(), sys.Temperature())
	}
	report()
	if err := writeFrame(); err != nil {
		return err
	}
	start := time.Now()
	for sim.Steps() < steps {
		n := min(every, steps-sim.Steps())
		if err := sim.Run(n); err != nil {
			return err
		}
		report()
		if err := writeFrame(); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	st := sim.CumulativeStats()
	fmt.Printf("\n%.2f ms/step; search candidates %d, tuples evaluated %d",
		elapsed.Seconds()*1e3/float64(steps), st.SearchCandidates, st.TuplesEvaluated)
	if st.PairListEntries > 0 {
		fmt.Printf(", pair-list entries %d", st.PairListEntries)
	}
	fmt.Println()
	if hy, ok := engine.(*md.HybridEngine); ok && opts.skin > 0 {
		fmt.Printf("Verlet list rebuilt %d times over %d force evaluations (skin %.2f Å)\n",
			hy.ListRebuilds(), sim.Steps()+1, opts.skin)
	}
	if opts.traj != "" {
		fmt.Printf("trajectory written to %s\n", opts.traj)
	}
	if opts.analyze {
		return printStructure(sys, model)
	}
	return nil
}

// printStructure reports simple structural observables of the final
// configuration via the tuple-engine-backed analysis package.
func printStructure(sys *md.System, model *potential.Model) error {
	fmt.Println("\nstructure analysis:")
	rmax := model.MaxCutoff()
	g, err := analysis.RDF(sys.Box, sys.Pos, sys.Species, -1, -1, rmax, 110)
	if err != nil {
		return err
	}
	fmt.Printf("  total g(r): first peak at %.2f Å\n", g.FirstPeak())
	if len(model.Species) == 2 {
		cross, err := analysis.RDF(sys.Box, sys.Pos, sys.Species, 0, 1, rmax, 110)
		if err != nil {
			return err
		}
		fmt.Printf("  %s-%s g(r): first peak at %.2f Å\n",
			model.Species[0].Name, model.Species[1].Name, cross.FirstPeak())
		bond := cross.FirstPeak() * 1.3
		coord, err := analysis.Coordination(sys.Box, sys.Pos, sys.Species, 0, 1, bond)
		if err != nil {
			return err
		}
		fmt.Printf("  %s coordination by %s (r < %.2f Å): %.2f\n",
			model.Species[0].Name, model.Species[1].Name, bond, coord)
		ang, err := analysis.AngleDistribution(sys.Box, sys.Pos, sys.Species, 1, 0, bond, 90)
		if err != nil {
			return err
		}
		fmt.Printf("  %s-%s-%s angle peak: %.1f° (%d samples)\n",
			model.Species[1].Name, model.Species[0].Name, model.Species[1].Name,
			ang.Peak, ang.Samples)
	}
	return nil
}

func runParallel(cfg *workload.Config, model *potential.Model, engineName string, steps int, dt float64, ranks, every, workers int, tel telemetryOpts, dumpForces string) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	popt, err := parallelOptions(engineName, ranks, steps, dt, workers, tel, comm.NewChanTransport(ranks, 0))
	if err != nil {
		return err
	}
	fmt.Printf("engine %v on %d ranks (%v topology) × %d workers, dt %g fs, %d steps\n",
		popt.Scheme, ranks, popt.Cart.Dims, workers, dt, steps)
	if tel.trace != "" {
		// ~16 spans per step per rank; keep the whole run in the rings.
		popt.Recorder = obs.NewRecorder(ranks, 16*(steps+2))
	}
	var metricsFile *os.File
	if tel.metrics != "" {
		f, err := os.Create(tel.metrics)
		if err != nil {
			return err
		}
		defer f.Close()
		metricsFile = f
		popt.StepLog = obs.NewStepWriter(f)
		popt.Metrics = obs.NewRegistry()
		if popt.Recorder == nil {
			// Phase decomposition in the step records and registry even
			// without a trace file; a small ring is enough for totals.
			popt.Recorder = obs.NewRecorder(ranks, 16)
		}
	}
	info := map[string]string{
		"model": model.Name, "engine": engineName,
		"ranks": strconv.Itoa(ranks), "workers": strconv.Itoa(workers),
		"atoms": strconv.Itoa(cfg.N()), "steps": strconv.Itoa(steps),
	}

	// The flight recorder is the in-memory black box behind -serve's
	// /history and /anomalies, the -postmortem bundle, and
	// -model-check's residual detector. It rides the step-record line
	// as an in-process sink, so attaching it costs no allocation per
	// step.
	var fl *flight.Recorder
	var tee *obs.StepTee
	if tel.serve != "" || tel.postmortem != "" || tel.modelCheck {
		if popt.Metrics == nil {
			popt.Metrics = obs.NewRegistry()
		}
		if popt.Recorder == nil {
			// Enough ring for /trace to show the last ~256 steps; phase
			// totals cover the whole run regardless of ring depth.
			popt.Recorder = obs.NewRecorder(ranks, 16*256)
		}
		if tel.serve != "" {
			tee = obs.NewStepTee()
		}
		fl = flight.New(flight.Config{
			Ranks: ranks, Registry: popt.Metrics, Tee: tee, Health: popt.Health,
		})
		// The same encoded step records go to the -metrics file (when
		// set) and to live /steps subscribers. The sink must be an
		// untyped nil when no file is open — a typed-nil *os.File would
		// make the writer treat every step as a file write.
		var sink io.Writer
		if metricsFile != nil {
			sink = metricsFile
		}
		popt.StepLog = obs.NewStepWriterTee(sink, tee)
		popt.StepLog.SetSink(fl)
	}
	if tel.modelCheck {
		// Calibration runs a few short benchmark loops; do it off the
		// critical path and arm the residual detector whenever it lands.
		go func() {
			mach, err := perfmodel.LocalMachine()
			if err != nil {
				return
			}
			m, err := perfmodel.NewModel(mach)
			if err != nil {
				return
			}
			p := m.PredictStep(popt.Scheme, float64(cfg.N())/float64(ranks))
			fl.SetPrediction(flight.Prediction{
				ComputeNs: p.ComputeNs, CommNs: p.CommNs, TotalNs: p.TotalNs,
			})
		}()
	}
	writeBundle := func(reason string) {
		fl.Flush()
		if err := flight.WriteBundle(tel.postmortem, flight.BundleSources{
			Flight: fl, Trace: popt.Recorder, Registry: popt.Metrics,
			Health: popt.Health, Info: info, Reason: reason,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "scmd:", err)
			return
		}
		fmt.Fprintf(os.Stderr, "scmd: postmortem bundle written to %s\n", tel.postmortem)
	}
	if tel.postmortem != "" {
		sigCh := make(chan os.Signal, 1)
		signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigCh)
		go func() {
			s := <-sigCh
			fl.RecordAbort(-1, "signal: "+s.String())
			writeBundle("signal: " + s.String())
			os.Exit(130)
		}()
	}
	var srv *serve.Server
	if tel.serve != "" {
		srv = &serve.Server{
			Registry: popt.Metrics,
			Recorder: popt.Recorder,
			Health:   popt.Health,
			Steps:    tee,
			Flight:   fl,
			Info:     info,
		}
		if err := srv.Start(tel.serve); err != nil {
			return err
		}
		fmt.Printf("telemetry server on http://%s/ (metrics, healthz, steps, phases, trace, history, anomalies, pprof)\n", srv.Addr())
		defer func() {
			// Drain gracefully: mark done, end /steps streams after their
			// buffered lines, let in-flight scrapes finish.
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			srv.Close(ctx)
		}()
	}

	start := time.Now()
	res, err := parmd.Run(cfg, model, popt)
	if err != nil {
		if tel.postmortem != "" {
			// Pin the abort to the step the first failing rank reported;
			// healthy ranks unwind via comm aborts at whatever step they
			// had reached.
			step := -1
			if rerrs := parmd.RankErrors(err); len(rerrs) > 0 {
				step = rerrs[0].Step
			}
			fl.RecordAbort(step, err.Error())
			writeBundle(err.Error())
		}
		return err
	}
	printRun(res, time.Since(start), steps, every, "")
	maxRank := res.MaxRank()
	fmt.Printf("max rank: %d owned atoms, %d halo atoms imported, %d search candidates\n",
		maxRank.OwnedAtoms, maxRank.AtomsImported, maxRank.SearchCandidates)
	printLattice(res, steps)
	if popt.Balance != nil {
		fmt.Printf("adaptive balance: %d checks, %d repartitions, final force imbalance %.2f (whole run %.2f)\n",
			res.BalanceChecks, res.Repartitions, res.Imbalance, res.ForceImbalance())
	}

	if len(res.Phases) > 0 {
		fmt.Println("\nper-phase time across ranks (whole run):")
		fmt.Printf("  %-12s %10s %10s %10s\n", "phase", "max ms", "mean ms", "imbalance")
		for _, ps := range res.Phases {
			fmt.Printf("  %-12s %10.2f %10.2f %10.2f\n",
				ps.Phase, float64(ps.MaxNs)/1e6, ps.MeanNs/1e6, ps.Imbalance())
		}
		fmt.Printf("  critical path %.1f%% of %.0f ms wall\n",
			100*float64(obs.CriticalPathNs(res.Phases))/float64(res.Wall.Nanoseconds()),
			res.Wall.Seconds()*1e3)
		if !tel.noOverlap {
			fmt.Printf("  overlap: %.0f%% of the halo-completion window hidden behind interior compute\n",
				100*res.OverlapFraction())
		}
	}
	if popt.Health != nil {
		fmt.Println("\nhealth probes (severity counts over sampled steps):")
		fmt.Printf("  %-14s %6s %6s %6s %14s\n", "probe", "ok", "warn", "fail", "last value")
		for _, p := range res.Health.Probes {
			fmt.Printf("  %-14s %6d %6d %6d %14.3g\n", p.Probe, p.OK, p.Warn, p.Fail, p.Last)
		}
		if res.Health.Healthy() {
			fmt.Println("  all probes ok")
		}
	}
	if tel.trace != "" {
		f, err := os.Create(tel.trace)
		if err != nil {
			return err
		}
		if err := popt.Recorder.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("span timeline written to %s (load in ui.perfetto.dev)\n", tel.trace)
	}
	if metricsFile != nil {
		popt.StepLog.WriteValue(map[string]any{"snapshot": popt.Metrics.Snapshot()})
		if err := popt.StepLog.Err(); err != nil {
			return err
		}
		fmt.Printf("telemetry records written to %s\n", tel.metrics)
	}
	return dumpForcesFile(dumpForces, res)
}

// faultTap wraps tr in the -fault tap named by spec, class[:N]: it
// corrupts the class's traffic sent through tr after N clean messages.
func faultTap(spec string, tr comm.Transport) (comm.Transport, error) {
	class, afterStr, hasAfter := strings.Cut(spec, ":")
	after := 0
	if hasAfter {
		n, err := strconv.Atoi(afterStr)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("-fault %q: count after %q must be a non-negative integer", spec, class)
		}
		after = n
	}
	ft, err := parmd.FaultTap(tr, class, after)
	if err != nil {
		return nil, err
	}
	fmt.Printf("fault injection: corrupting %s traffic after %d clean messages\n", class, after)
	return ft, nil
}

// parallelOptions assembles the parmd options the in-process run and
// the socket workers share: scheme, topology, step, workers, balancer
// and health probes, over tr wrapped in the -fault tap when one is
// asked for.
func parallelOptions(engineName string, ranks, steps int, dt float64, workers int, tel telemetryOpts, tr comm.Transport) (parmd.Options, error) {
	scheme, err := schemeFor(engineName)
	if err != nil {
		return parmd.Options{}, err
	}
	popt := parmd.Options{
		Scheme: scheme, Cart: comm.NewCart(ranks), Dt: dt, Steps: steps, Workers: workers,
		TraceEnergies: true, Log: tel.log, NoOverlap: tel.noOverlap, Transport: tr,
	}
	if tel.fault != "" {
		if popt.Transport, err = faultTap(tel.fault, tr); err != nil {
			return popt, err
		}
	}
	if tel.balance {
		popt.Balance = &parmd.Balancer{Every: tel.balanceEvery, Threshold: tel.balanceThreshold}
	}
	if tel.healthEvery > 0 || tel.parityEvery > 0 {
		every := tel.healthEvery
		if every <= 0 {
			every = tel.parityEvery
		}
		hcfg := health.Config{Every: every, ParityEvery: tel.parityEvery, Logger: tel.log}
		if tel.abortOnFail {
			hcfg.OnFail = health.ActionRecord | health.ActionLog | health.ActionAbort
		}
		popt.Health = health.New(hcfg)
	}
	return popt, nil
}

// printRun prints a parallel run's sampled energies, its wall time and
// its traffic by class; note qualifies the traffic total.
// printLattice prints the decomposition's cell lattice with the owned
// atom balance it gives, and the skin the lattice leaves the tuple
// lists.
func printLattice(res *parmd.Result, steps int) {
	side := fmt.Sprintf("%.2f", res.CellSide.X)
	if res.CellSide.Y != res.CellSide.X || res.CellSide.Z != res.CellSide.X {
		side = fmt.Sprintf("%.2f×%.2f×%.2f", res.CellSide.X, res.CellSide.Y, res.CellSide.Z)
	}
	fmt.Printf("decomposition %d×%d×%d cells of %s Å, owned atoms max/mean %.2f\n",
		res.Cells.X, res.Cells.Y, res.Cells.Z, side, res.OwnedImbalance())
	fmt.Printf("tuple lists rebuilt %d times over %d force evaluations (skin %.3f Å from the cell lattice)\n",
		res.ListRebuilds, steps+1, res.Skin)
}

func printRun(res *parmd.Result, elapsed time.Duration, steps, every int, note string) {
	fmt.Printf("%8s %14s %14s %14s\n", "step", "PE (eV)", "KE (eV)", "E total (eV)")
	for s := 0; s < len(res.Energies); s += max(1, every) {
		e := res.Energies[s]
		fmt.Printf("%8d %14.4f %14.4f %14.4f\n", s+1, e.Potential, e.Kinetic, e.Total())
	}
	fmt.Printf("\n%.2f ms/step wall; comm %d messages, %.2f MB total%s\n",
		elapsed.Seconds()*1e3/float64(max(1, steps)),
		res.Comm.Messages, float64(res.Comm.Bytes)/1e6, note)
	fmt.Println("comm by traffic class (from the runtime's per-tag counters):")
	for _, class := range []string{"halo", "force", "migrate", "vote", "collective"} {
		s := res.CommByClass[class]
		if s.Messages == 0 {
			continue
		}
		fmt.Printf("  %-10s %8d msgs  %10.3f MB  %8.1f ms recv wait\n",
			class, s.Messages, float64(s.Bytes)/1e6, s.Wait.Seconds()*1e3)
	}
}
