package parmd

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"sctuple/internal/comm"
	"sctuple/internal/geom"
	"sctuple/internal/md"
	"sctuple/internal/obs"
	"sctuple/internal/obs/health"
	"sctuple/internal/potential"
	"sctuple/internal/workload"
)

// Options configures a parallel run.
type Options struct {
	Scheme Scheme
	Cart   comm.Cart // process topology; comm.NewCart(p) picks one
	Dt     float64   // fs
	Steps  int
	// Workers is the number of intra-rank force-evaluation goroutines
	// (the thread half of the paper's hybrid rank×thread execution);
	// ≤ 1 evaluates serially. Forces and energies are bit-identical for
	// every Workers setting: the fixed shard count of the kernel
	// accumulator, not the worker count, decides both the work
	// partition and the reduction order.
	Workers int
	// TraceEnergies records global PE/KE each step (costs two
	// reductions per step).
	TraceEnergies bool
	// Recorder, when non-nil, records per-rank phase spans (halo, bin,
	// per-term force, write-back, integrate, migrate, reduce) into its
	// ring buffers for trace export and imbalance analysis. nil keeps
	// the hot path span-free (one branch per span site, no allocation,
	// forces bit-identical either way).
	Recorder *obs.Recorder
	// StepLog, when non-nil, receives one JSONL record per rank per
	// step: wall time, the per-phase time decomposition (with Recorder
	// set), and the step's counter deltas.
	StepLog *obs.StepWriter
	// Metrics, when non-nil, absorbs the run's counters at completion —
	// summed RankStats, per-class comm traffic and receive-wait time,
	// per-phase imbalance gauges — and accumulates a per-step wall-time
	// histogram (parmd.step_ms) during the run.
	Metrics *obs.Registry
	// Balance, when non-nil, turns on telemetry-driven adaptive
	// repartitioning: every Balance.Every steps the ranks compare their
	// measured force-work time, and past Balance.Threshold the slab
	// boundaries of the decomposition move toward equal load (the
	// exchange plans recompile and whole cell slabs migrate to their new
	// owners mid-run). Off (nil) by default: a balanced run's
	// repartition points depend on wall-clock measurements, so
	// run-to-run trajectories are no longer bitwise reproducible.
	Balance *Balancer
	// Health, when non-nil, runs the sampled invariant probes inside
	// the step loop (energy drift, momentum, atom-count conservation,
	// halo mirror checksums, SC-vs-FS tuple parity) at the monitor's
	// cadence. nil keeps every probe site a single-branch no-op, so the
	// hot path is unchanged — including its zero-allocation guarantee.
	Health *health.Monitor
	// Log receives structured run-lifecycle events (run start/end, rank
	// failures); nil disables them.
	Log *obs.Logger
	// MeasureAllocs measures the heap allocations of the step loop:
	// ranks synchronize on a barrier before the first step and after
	// the last, and rank 0 reads the process-wide malloc counter at
	// both points. The per-step quotient lands in Result.StepAllocs.
	// Because every rank runs in one process here, the figure covers
	// the whole world's steady-state step loop — integration,
	// migration, binning and canonical sort, halo exchange, force
	// evaluation, write-back, and reductions. (In Worker mode the
	// counter is per OS process, so the figure covers rank 0 only.)
	MeasureAllocs bool
	// NoOverlap disables the overlapped (split-phase) halo exchange and
	// completes every receive before force evaluation begins. Both
	// modes run the identical interior/boundary two-stage dispatch, so
	// forces and energies are bit-identical either way; the flag exists
	// for A/B latency measurement (bench.Validate's synchronous wait
	// baseline) and debugging. The overlapped path is the default.
	NoOverlap bool
	// Transport, when non-nil, replaces the world's default channel
	// transport — the seam fault injection uses to exercise the
	// malformed-message and abort paths (see FaultTap and scmd's -fault
	// flag), and the socket fabric plugs genuinely distributed
	// execution into (see RunSocket and scmd -transport socket).
	Transport comm.Transport
	// forceRebuild rebuilds the tuple lists on every step instead of
	// when the displacement vote calls for it — a test seam that runs
	// the unskinned protocol, against which reuse steps are checked.
	forceRebuild bool

	// Worker, when non-nil, marks this process as a single rank of a
	// multi-process world: Run executes only Worker.Rank over the
	// (required) Transport, gathers the final state and per-rank
	// counters to rank 0 over the wire, and returns a Result whose
	// global fields (Final, Forces, RankStats, Comm) are populated on
	// rank 0 only. nil (the default) runs every rank in-process.
	Worker *WorkerRank
}

// WorkerRank identifies the one rank a worker process executes.
type WorkerRank struct {
	Rank int
}

// StepEnergy is one global energy sample.
type StepEnergy struct {
	Potential float64
	Kinetic   float64
}

// Total returns PE + KE.
func (e StepEnergy) Total() float64 { return e.Potential + e.Kinetic }

// Result collects the outcome of a parallel run.
type Result struct {
	// Final holds the gathered end state, ordered by global atom ID,
	// positions wrapped into the global box.
	Final *workload.Config
	// Forces holds the final per-atom forces, ordered by global ID.
	Forces []geom.Vec3
	// InitialPotential is the potential energy before the first step.
	InitialPotential float64
	// Energies holds one entry per step when TraceEnergies is set.
	Energies []StepEnergy
	// RankStats holds each rank's accumulated counters.
	RankStats []RankStats
	// Comm summarizes all communication of the run.
	Comm comm.Stats
	// CommByClass breaks Comm down by traffic class: "halo" (import),
	// "force" (write-back), "migrate", "collective" (reductions and
	// barriers), and "other". The classes sum to Comm. Each class's
	// Wait is the receive-blocked time the runtime accumulated for it.
	CommByClass map[string]comm.Stats
	// Phases holds the per-phase time decomposition across ranks
	// (max/mean/imbalance) when Options.Recorder was set.
	Phases []obs.PhaseStat
	// Health summarizes the invariant-probe outcomes when
	// Options.Health was set (empty otherwise).
	Health health.Summary
	// BalanceChecks, Repartitions, and Imbalance summarize the adaptive
	// balancer when Options.Balance was set: the number of collective
	// balance checks, how many of them repartitioned the decomposition,
	// and the force-phase imbalance (max/mean over ranks of the
	// balancer's load measure) at the last check. Zero when the
	// balancer was off; ForceImbalance() gives the whole-run
	// wall-time measure either way.
	BalanceChecks int
	Repartitions  int
	Imbalance     float64
	// ListRebuilds counts the force evaluations that rebuilt the tuple
	// lists (the initial one included; RankStats.ListRebuilds holds
	// each rank's count, equal on every rank), and Skin is the Verlet
	// skin (Å) the lists were built with — derived from the lattice,
	// not configured (DESIGN.md §5.21).
	ListRebuilds int64
	Skin         float64
	// StepAllocs is the mean number of heap allocations per step across
	// the whole step loop (all ranks, whole process), measured when
	// Options.MeasureAllocs is set with Steps > 0; -1 otherwise.
	StepAllocs float64
	// Wall is the wall-clock time of the SPMD section of the run.
	Wall time.Duration
}

// Run executes a complete parallel MD run of the given configuration
// and model over an in-process rank world, and gathers the final
// state. The decomposition's cell lattice uses the model's largest
// cutoff as minimum cell side, exactly like the serial engines, so
// serial and parallel runs are comparable.
func Run(cfg *workload.Config, model *potential.Model, opt Options) (*Result, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !(opt.Dt > 0) && opt.Steps > 0 {
		return nil, fmt.Errorf("parmd: time step %g must be positive", opt.Dt)
	}
	if opt.Cart.Size() == 0 {
		return nil, fmt.Errorf("parmd: empty process topology")
	}
	dec, err := NewDecomp(cfg.Box, model.MaxCutoff(), opt.Cart)
	if err != nil {
		return nil, err
	}
	// The global lattice must be large enough that a chain can never
	// close onto a periodic image of its own first atom.
	need := 3
	for _, t := range model.Terms {
		if t.N() > need {
			need = t.N()
		}
	}
	for axis := 0; axis < 3; axis++ {
		if dec.Lat.Dims.Comp(axis) < need {
			return nil, fmt.Errorf("parmd: global lattice %v needs ≥ %d cells per axis", dec.Lat.Dims, need)
		}
	}

	var world *comm.World
	switch {
	case opt.Worker != nil:
		if opt.Transport == nil {
			return nil, fmt.Errorf("parmd: Worker mode requires an explicit Transport")
		}
		if opt.Worker.Rank < 0 || opt.Worker.Rank >= opt.Cart.Size() {
			return nil, fmt.Errorf("parmd: worker rank %d outside topology of %d ranks",
				opt.Worker.Rank, opt.Cart.Size())
		}
		world = comm.NewWorldRank(opt.Cart.Size(), opt.Worker.Rank, opt.Transport)
	case opt.Transport != nil:
		world = comm.NewWorldTransport(opt.Cart.Size(), opt.Transport)
	default:
		world = comm.NewWorld(opt.Cart.Size())
	}
	defineTagClasses(world)
	world.SetLogger(opt.Log)
	opt.Log.Info("parmd run start",
		"scheme", opt.Scheme.String(), "ranks", world.Size(), "workers", opt.Workers,
		"steps", opt.Steps, "dt_fs", opt.Dt, "atoms", cfg.N())
	res := &Result{RankStats: make([]RankStats, world.Size()), StepAllocs: -1}
	if opt.TraceEnergies {
		res.Energies = make([]StepEnergy, opt.Steps)
	}
	var stepHist *obs.Histogram
	if opt.Metrics != nil {
		stepHist = opt.Metrics.Histogram("parmd.step_ms", obs.ExpBuckets(0.01, 2, 18))
	}
	finals := make([][]finalAtom, world.Size())

	wallStart := time.Now()
	err = world.Run(func(p *comm.Proc) (ferr error) {
		// Failures leave this closure as typed *RankError values with
		// rank/step/phase context: exchange errors arrive pre-wrapped,
		// everything else (setup, health aborts, the comm layer's abort
		// sentinel unwinding a receive blocked on a failed peer) is
		// wrapped here. World.Run then logs each failing rank through
		// Options.Log and joins every rank's error.
		var r *rankState
		defer func() {
			if rec := recover(); rec != nil {
				if !comm.IsAbort(rec) {
					panic(rec)
				}
				// AbortError keeps the fabric's typed cause (peer death,
				// protocol desync) instead of flattening to the sentinel.
				ferr = comm.AbortError(rec)
			}
			if ferr != nil {
				var re *RankError
				if !errors.As(ferr, &re) {
					step := -1
					if r != nil {
						step = r.curStep
					}
					ferr = &RankError{Rank: p.Rank(), Step: step, Phase: "run", Err: ferr}
				}
			}
		}()
		var err error
		r, err = newRankState(p, dec, model, opt.Scheme, opt.Workers, !opt.NoOverlap)
		if err != nil {
			return err
		}
		r.rec = opt.Recorder.Rank(p.Rank())
		r.forceRebuild = opt.forceRebuild
		r.monitor = opt.Health
		if opt.Metrics != nil {
			r.live = newLiveMetrics(opt.Metrics, p, opt.Recorder)
		}
		if opt.Balance != nil {
			r.initBalance(opt.Balance)
		}
		r.adopt(cfg)

		masses := make([]float64, len(model.Species))
		for i, s := range model.Species {
			masses[i] = s.Mass
		}

		r.rec.SetStep(-1) // spans before the loop tag the initial evaluation
		pe, err := r.computeForces()
		if err != nil {
			return err
		}
		sp := r.rec.StartSpan(phaseReduce)
		totalPE := p.AllReduceSum(pe)
		sp.End()
		if p.Rank() == 0 {
			res.InitialPotential = totalPE
		}

		// Per-step emission scratch: the emitter holds the previous
		// cumulative phase times and counters, subtracted each step to
		// get the step's own share. wallStart is the t_ns epoch, so
		// every rank's timestamps share one clock.
		logging := opt.StepLog != nil || stepHist != nil
		var em *stepEmitter
		if opt.StepLog != nil {
			em = newStepEmitter(opt.StepLog, r, p, wallStart)
		}

		if opt.Health.ParityEnabled() {
			r.prewarmParity(cfg.N())
		}

		var mallocs0 uint64
		if opt.MeasureAllocs && opt.Steps > 0 {
			p.Barrier()
			if p.Rank() == 0 {
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				mallocs0 = m.Mallocs
			}
			p.Barrier() // no rank steps (and allocates) before the read
		}

		for step := 0; step < opt.Steps; step++ {
			var stepStart time.Time
			if logging {
				stepStart = time.Now()
			}
			r.rec.SetStep(step)
			r.curStep = step
			// The socket fabric stamps outgoing frames with the step, so
			// wire captures and failure reports carry simulation time.
			p.MarkStep(step)
			r.healthStep = opt.Health.Due(step)
			// Velocity Verlet: half kick, drift, migrate, forces,
			// half kick.
			sp := r.rec.StartSpan(phaseIntegrate)
			half := 0.5 * opt.Dt * md.ForceToAccel
			for i := 0; i < r.nOwned; i++ {
				r.vel[i] = r.vel[i].Add(r.force[i].Scale(half / masses[r.species[i]]))
			}
			for i := 0; i < r.nOwned; i++ {
				r.gpos[i] = r.gpos[i].Add(r.vel[i].Scale(opt.Dt))
			}
			sp.End()
			if err := r.migrate(); err != nil {
				return err
			}
			// Balance checks sit between migration and the force
			// evaluation: a repartition's slab handoff reuses the migration
			// wire format (no forces carried), and the evaluation right
			// after recomputes them on the new owners.
			if r.bal != nil && step > 0 && step%opt.Balance.every() == 0 {
				sp := r.rec.StartSpan(phaseBalance)
				_, err := r.balanceCheck()
				sp.End()
				if err != nil {
					return r.rankErr("balance", err)
				}
			}
			pe, err := r.computeForces()
			if err != nil {
				return err
			}
			sp = r.rec.StartSpan(phaseIntegrate)
			for i := 0; i < r.nOwned; i++ {
				r.vel[i] = r.vel[i].Add(r.force[i].Scale(half / masses[r.species[i]]))
			}
			sp.End()
			if opt.TraceEnergies {
				ke := 0.0
				for i := 0; i < r.nOwned; i++ {
					ke += 0.5 * masses[r.species[i]] * r.vel[i].Norm2()
				}
				ke /= md.ForceToAccel
				sp = r.rec.StartSpan(phaseReduce)
				gpe := p.AllReduceSum(pe)
				gke := p.AllReduceSum(ke)
				sp.End()
				if p.Rank() == 0 {
					res.Energies[step] = StepEnergy{Potential: gpe, Kinetic: gke}
				}
			}
			if r.healthStep {
				if err := r.runHealthProbes(step, pe, masses, int64(cfg.N())); err != nil {
					return r.rankErr("health", err)
				}
			}
			if logging {
				wall := time.Since(stepStart)
				if stepHist != nil {
					stepHist.Observe(wall.Seconds() * 1e3)
				}
				if opt.StepLog.Active() {
					em.emit(step, wall)
				} else if em != nil {
					// No sink, no file, no live subscriber: skip the record
					// build but keep the delta scratch current, so a /steps
					// subscriber joining mid-run sees per-step values from
					// its first full step.
					em.advance()
				}
			}
			if r.live != nil {
				r.live.publish(r, p)
			}
		}

		if opt.MeasureAllocs && opt.Steps > 0 {
			p.Barrier()
			if p.Rank() == 0 {
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				res.StepAllocs = float64(m.Mallocs-mallocs0) / float64(opt.Steps)
			}
			p.Barrier() // no rank gathers (and allocates) before the read
		}

		// Gather final state. In-process, the collection is
		// shared-memory (the comm counters only meter the simulation's
		// own traffic); in worker mode the same records travel the wire
		// to rank 0, with the per-rank counters snapshotted first so
		// the gather's own traffic isn't counted either way.
		fin := make([]finalAtom, r.nOwned)
		for i := 0; i < r.nOwned; i++ {
			fin[i] = finalAtom{
				id:      r.ids[i],
				pos:     dec.Lat.Box.Wrap(r.gpos[i]),
				vel:     r.vel[i],
				force:   r.force[i],
				species: r.species[i],
			}
		}
		if opt.Worker == nil {
			finals[p.Rank()] = fin
			res.RankStats[p.Rank()] = r.stats
		} else if err := gatherDistributed(p, r, fin, finals, res); err != nil {
			return r.rankErr("gather", err)
		}
		if opt.Worker != nil || p.Rank() == 0 {
			res.ListRebuilds, res.Skin = r.stats.ListRebuilds, r.skin
		}
		if r.bal != nil && p.Rank() == 0 {
			res.BalanceChecks = r.bal.checks
			res.Repartitions = r.bal.repartitions
			res.Imbalance = r.bal.lastImb
		}
		return nil
	})
	res.Wall = time.Since(wallStart)
	res.Health = opt.Health.Summary()
	if err != nil {
		return nil, err
	}
	opt.Log.Info("parmd run complete",
		"steps", opt.Steps, "wall_ms", float64(res.Wall.Nanoseconds())/1e6,
		"healthy", res.Health.Healthy())

	if opt.Worker == nil || opt.Worker.Rank != 0 {
		// In worker mode rank 0 already summed these from the wire
		// gather (every process meters only its own rank); non-root
		// workers report this process's own counters.
		res.Comm = world.TotalStats()
		res.CommByClass = make(map[string]comm.Stats)
		for _, name := range world.ClassNames() {
			res.CommByClass[name] = world.ClassStats(name)
		}
	}
	if opt.Worker != nil && opt.Worker.Rank != 0 {
		// Non-root workers shipped their state to rank 0 and hold no
		// gathered fields: their Result carries this process's own
		// counters and phase decomposition only.
		res.Phases = opt.Recorder.PhaseStats()
		if err := opt.StepLog.Err(); err != nil {
			return nil, fmt.Errorf("parmd: telemetry step log: %w", err)
		}
		return res, nil
	}

	// Assemble the global final state ordered by atom ID.
	var all []finalAtom
	for _, f := range finals {
		all = append(all, f...)
	}
	if len(all) != cfg.N() {
		return nil, fmt.Errorf("parmd: gathered %d atoms, expected %d (atoms lost or duplicated)",
			len(all), cfg.N())
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	final := &workload.Config{
		Box:     cfg.Box,
		Pos:     make([]geom.Vec3, len(all)),
		Vel:     make([]geom.Vec3, len(all)),
		Species: make([]int32, len(all)),
	}
	res.Forces = make([]geom.Vec3, len(all))
	for i, a := range all {
		if a.id != int64(i) {
			return nil, fmt.Errorf("parmd: atom ID %d appears at position %d (atoms lost or duplicated)", a.id, i)
		}
		final.Pos[i] = a.pos
		final.Vel[i] = a.vel
		final.Species[i] = a.species
		res.Forces[i] = a.force
	}
	res.Final = final
	res.Phases = opt.Recorder.PhaseStats()
	publishMetrics(opt.Metrics, res)
	if err := opt.StepLog.Err(); err != nil {
		return nil, fmt.Errorf("parmd: telemetry step log: %w", err)
	}
	return res, nil
}

// Step-phase IDs of the parallel loop (per-term force phases come from
// kernel.TermPhase). The names are shared by the trace timeline, the
// per-step records, and the registry gauges.
var (
	phaseIntegrate = obs.Phase("integrate")
	phaseMigrate   = obs.Phase("migrate")
	phaseBin       = obs.Phase("bin")
	phaseHalo      = obs.Phase("halo")
	// halo:wait is the time blocked completing posted halo receives —
	// with the overlapped exchange, the import latency the interior
	// computation failed to hide.
	phaseHaloWait = obs.Phase("halo:wait")
	// force:interior / force:boundary are the two stages of the split
	// force evaluation: interior cells run concurrently with the halo
	// transfers, boundary cells after the imports land.
	phaseForceInterior = obs.Phase("force:interior")
	phaseForceBoundary = obs.Phase("force:boundary")
	phaseSearch        = obs.Phase("search")
	phaseWriteback     = obs.Phase("writeback")
	phaseReduce        = obs.Phase("reduce")
	phaseHealth        = obs.Phase("health")
	// balance is the collective balance-check exchange; repartition is
	// the boundary move itself (plan recompilation plus slab migration),
	// recorded only on checks that trigger one.
	phaseBalance     = obs.Phase("balance")
	phaseRepartition = obs.Phase("repartition")
)

// defineTagClasses registers the simulation's traffic classes
// (tagClasses) on a world so the runtime's counters split by exchange
// type — the richer structure the performance model and bench reports
// read.
func defineTagClasses(world *comm.World) {
	for _, c := range tagClasses {
		world.DefineTagClass(c.name, c.lo, c.hi)
	}
}
