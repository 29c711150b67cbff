package main

import (
	"fmt"
	"math/rand"

	"sctuple/internal/comm"
	"sctuple/internal/obs"
	"sctuple/internal/obs/flight"
	"sctuple/internal/obs/health"
	"sctuple/internal/parmd"
	"sctuple/internal/potential"
	"sctuple/internal/workload"
)

// Run-wide constants every workload shares: two ranks with one force
// worker each, NVE at a 0.5 fs step, the Vashishta SiO₂ model.
const (
	ranks   = 2
	workers = 1
	dtFs    = 0.5
)

// spec defines one benchmark workload. Atom count (cells), scheme,
// temperature, transport and instrument stack are the workload's
// identity; stepsPerRep is only how much work one timed call does.
// Why each workload is in the set is in README.md and BENCHMARK.json.
type spec struct {
	name        string
	scheme      parmd.Scheme
	cells       int     // β-cristobalite cells per side (24 atoms per cell)
	tempK       float64 // thermalization temperature
	socket      bool    // parmd.RunSocket over unix sockets instead of parmd.Run
	observed    bool    // the scmd postmortem/serve instrument stack
	stepsPerRep int
}

var specs = []spec{
	{
		name:   "sc-fine",
		scheme: parmd.SchemeSC, cells: 4, tempK: 300, stepsPerRep: 20,
	},
	{
		name:   "hybrid-fine-socket",
		scheme: parmd.SchemeHybrid, cells: 4, tempK: 300, socket: true, stepsPerRep: 120,
	},
	{
		name:   "hybrid-hot-observed",
		scheme: parmd.SchemeHybrid, cells: 6, tempK: 3000, observed: true, stepsPerRep: 20,
	},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// atoms returns the workload's atom count.
func (s spec) atoms() int { return 24 * s.cells * s.cells * s.cells }

// transportName names the fabric the ranks talk over.
func (s spec) transportName() string {
	if s.socket {
		return "unix"
	}
	return "chan"
}

// buildConfig makes the workload's initial configuration from the
// seed: the ideal lattice, thermalized at the workload temperature
// with Maxwell-Boltzmann velocities drawn from the seeded stream.
func (s spec) buildConfig(model *potential.Model, seed int64) *workload.Config {
	cfg := workload.BetaCristobalite(s.cells, s.cells, s.cells)
	cfg.Thermalize(rand.New(rand.NewSource(seed)), model, s.tempK)
	return cfg
}

// instruments is the per-call instrument stack; the zero value is
// "instruments off".
type instruments struct {
	recorder *obs.Recorder
	metrics  *obs.Registry
	stepLog  *obs.StepWriter
	health   *health.Monitor
}

// newInstruments builds the stack scmd assembles for -serve and
// -postmortem: span recorder, metrics registry, a flight recorder as
// the step-log sink, and the cheap health probes every 10 steps with
// parity off. withRecorder alone turns on just the span recorder (the
// traced runs' phase decomposition on uninstrumented workloads).
func newInstruments(observed, withRecorder bool) instruments {
	var in instruments
	if observed {
		in.metrics = obs.NewRegistry()
		in.recorder = obs.NewRecorder(ranks, 16*256)
		in.health = health.New(health.Config{Every: 10})
		in.stepLog = obs.NewStepWriterTee(nil, nil)
		in.stepLog.SetSink(flight.New(flight.Config{Ranks: ranks, Registry: in.metrics, Health: in.health}))
	} else if withRecorder {
		in.recorder = obs.NewRecorder(ranks, 16*256)
	}
	return in
}

// options assembles the parmd options of one call.
func (s spec) options(steps int, in instruments) parmd.Options {
	return parmd.Options{
		Scheme:        s.scheme,
		Cart:          comm.NewCart(ranks),
		Dt:            dtFs,
		Steps:         steps,
		Workers:       workers,
		TraceEnergies: true,
		MeasureAllocs: steps > 0,
		Recorder:      in.recorder,
		Metrics:       in.metrics,
		StepLog:       in.stepLog,
		Health:        in.health,
	}
}

// run executes one closed-loop batch simulation through the workload's
// public entry point.
func (s spec) run(cfg *workload.Config, model *potential.Model, opt parmd.Options) (*parmd.Result, error) {
	if s.socket {
		return parmd.RunSocket(cfg, model, opt, "unix")
	}
	return parmd.Run(cfg, model, opt)
}
