package parmd

import (
	"fmt"
	"testing"
	"time"

	"sctuple/internal/comm"
	"sctuple/internal/geom"
	"sctuple/internal/md"
	"sctuple/internal/obs"
	"sctuple/internal/obs/flight"
	"sctuple/internal/obs/health"
	"sctuple/internal/obs/serve"
)

// TestStepLoopZeroAllocs: after warm-up, the complete parallel step —
// integration, migration, canonical owned-segment sort check, span
// rebin, halo exchange, force evaluation, force write-back — allocates
// nothing for any scheme, with the phase recorder disabled and
// enabled (its ring buffers are preallocated). The workload is the
// migration-free shifted crystal of the golden fixtures, so the
// measured steps are the steady state every long solid-state run sits
// in.
func TestStepLoopZeroAllocs(t *testing.T) {
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
	const dt = 0.5
	for _, withRec := range []bool{false, true} {
		for _, scheme := range Schemes() {
			dec, err := NewDecomp(cfg.Box, model.MaxCutoff(), cart)
			if err != nil {
				t.Fatal(err)
			}
			var recorder *obs.Recorder
			if withRec {
				recorder = obs.NewRecorder(cart.Size(), 4096)
			}
			world := comm.NewWorld(cart.Size())
			defineTagClasses(world)
			err = world.Run(func(p *comm.Proc) error {
				r, err := newRankState(p, dec, model, scheme, 1, true)
				if err != nil {
					return err
				}
				r.rec = recorder.Rank(p.Rank())
				r.adopt(cfg)
				if _, err := r.computeForces(); err != nil {
					return err
				}
				step := func() error {
					half := 0.5 * dt * md.ForceToAccel
					for i := 0; i < r.nOwned; i++ {
						r.vel[i] = r.vel[i].Add(r.force[i].Scale(half / masses[r.species[i]]))
					}
					for i := 0; i < r.nOwned; i++ {
						r.gpos[i] = r.gpos[i].Add(r.vel[i].Scale(dt))
					}
					if err := r.migrate(); err != nil {
						return err
					}
					if _, err := r.computeForces(); err != nil {
						return err
					}
					for i := 0; i < r.nOwned; i++ {
						r.vel[i] = r.vel[i].Add(r.force[i].Scale(half / masses[r.species[i]]))
					}
					return nil
				}
				var stepErr error
				run := func() {
					if err := step(); err != nil && stepErr == nil {
						stepErr = err
					}
				}
				// Warm up until every pooled buffer and scratch array on
				// every route has reached its working capacity.
				for k := 0; k < 30; k++ {
					run()
				}
				p.Barrier()
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
				if allocs != 0 {
					return fmt.Errorf("%v recorder=%v: %g allocs per step, want 0", scheme, withRec, allocs)
				}
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}
	}
}

// TestStepAllocCeilingWithProbes bounds the whole world's steady-state
// step-loop allocation rate (Result.StepAllocs, barrier-fenced by
// MeasureAllocs) at 100 per step with the phase recorder on and every
// health probe sampled on every step, for each scheme on 2 ranks. The
// thermalized crystal migrates atoms, and the owned arrays and pooled
// buffers still grow while they do, so the rate is small but not zero
// (about 5 per step over these 10 steps); the ceiling catches a
// per-atom or per-message allocation creeping into any part of the
// step, probes included.
func TestStepAllocCeilingWithProbes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const maxAllocs = 100
	cfg, model := silicaConfig(t, 4, 300, 1)
	cart, _ := comm.NewCartDims(geom.IV(2, 1, 1))
	for _, scheme := range Schemes() {
		res, err := Run(cfg, model, Options{
			Scheme: scheme, Cart: cart, Dt: 0.5, Steps: 10,
			Recorder:      obs.NewRecorder(cart.Size(), 16),
			Health:        health.New(health.Config{Every: 1}),
			MeasureAllocs: true,
		})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if !res.Health.Healthy() {
			t.Errorf("%v: run unhealthy: %+v", scheme, res.Health)
		}
		if res.StepAllocs < 0 || res.StepAllocs > maxAllocs {
			t.Errorf("%v: %.1f allocs per step with recorder and probes on, want ≤ %d", scheme, res.StepAllocs, maxAllocs)
		}
	}
}

// TestStepTelemetryZeroAllocs: the full telemetry tail of the step
// loop — step-time histogram observation, the step emitter building
// full records into the flight recorder (the writer is active: a sink
// is attached, but no file and no /steps subscriber, so nothing is
// JSON-encoded), and the live registry publisher — stays
// allocation-free on top of the zero-alloc step. This is the exact
// configuration of an scmd run with -serve and nobody watching.
func TestStepTelemetryZeroAllocs(t *testing.T) {
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
	const dt = 0.5
	dec, err := NewDecomp(cfg.Box, model.MaxCutoff(), cart)
	if err != nil {
		t.Fatal(err)
	}
	recorder := obs.NewRecorder(cart.Size(), 4096)
	reg := obs.NewRegistry()
	stepHist := reg.Histogram("parmd.step_ms", obs.ExpBuckets(0.01, 2, 18))
	tee := obs.NewStepTee()
	sw := obs.NewStepWriterTee(nil, tee)
	fl := flight.New(flight.Config{Ranks: cart.Size(), Registry: reg, Tee: tee})
	sw.SetSink(fl)
	// The server only holds references; attaching it must not change
	// the step loop's allocation behavior.
	_ = &serve.Server{Registry: reg, Recorder: recorder, Steps: tee, Flight: fl}

	world := comm.NewWorld(cart.Size())
	defineTagClasses(world)
	err = world.Run(func(p *comm.Proc) error {
		r, err := newRankState(p, dec, model, SchemeSC, 1, true)
		if err != nil {
			return err
		}
		r.rec = recorder.Rank(p.Rank())
		r.live = newLiveMetrics(reg, p, recorder)
		r.adopt(cfg)
		if _, err := r.computeForces(); err != nil {
			return err
		}
		em := newStepEmitter(sw, r, p, time.Now())
		stepN := 0
		step := func() error {
			start := time.Now()
			half := 0.5 * dt * md.ForceToAccel
			for i := 0; i < r.nOwned; i++ {
				r.vel[i] = r.vel[i].Add(r.force[i].Scale(half / masses[r.species[i]]))
			}
			for i := 0; i < r.nOwned; i++ {
				r.gpos[i] = r.gpos[i].Add(r.vel[i].Scale(dt))
			}
			if err := r.migrate(); err != nil {
				return err
			}
			if _, err := r.computeForces(); err != nil {
				return err
			}
			for i := 0; i < r.nOwned; i++ {
				r.vel[i] = r.vel[i].Add(r.force[i].Scale(half / masses[r.species[i]]))
			}
			wall := time.Since(start)
			stepHist.Observe(wall.Seconds() * 1e3)
			if !sw.Active() {
				return fmt.Errorf("step writer inactive despite the flight sink")
			}
			em.emit(stepN, wall)
			stepN++
			r.live.publish(r, p)
			return nil
		}
		var stepErr error
		run := func() {
			if err := step(); err != nil && stepErr == nil {
				stepErr = err
			}
		}
		for k := 0; k < 30; k++ {
			run()
		}
		p.Barrier()
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
		if allocs != 0 {
			return fmt.Errorf("telemetry step tail: %g allocs per step, want 0", allocs)
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
}
