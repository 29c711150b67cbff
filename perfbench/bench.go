package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"sctuple/internal/parmd"
	"sctuple/internal/potential"
	"sctuple/internal/workload"
)

// setupReps is how many times a run repeats its set-up (configuration
// plus 0-step call); setup_s is their median.
const setupReps = 15

// minReps is the least number of timed calls per variant, however
// short the measurement time.
const minReps = 3

// bench is one invocation's state: the workload, the attempt and
// failure tally of the correctness gate, and what the output line
// before the result records.
type bench struct {
	s      spec
	model  *potential.Model
	seed   int64
	budget time.Duration
	tr     *tracer // nil in untraced runs
	root   int

	attempted, failed int
	initChecked       bool // the reference checks of the initial state ran
	finalChecked      bool // the end-state reference check ran
	maxDrift          float64
	failures          []string
	notes             []string
	checks            map[string]any // correctness-gate outcomes
	details           map[string]any // per-call series and closure terms
	samples           map[string]int // sample count behind each median
}

func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.failures) < 10 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

func (b *bench) check(name string, v any) {
	if b.checks == nil {
		b.checks = make(map[string]any)
	}
	b.checks[name] = v
}

func (b *bench) detail(name string, v any) {
	if b.details == nil {
		b.details = make(map[string]any)
	}
	b.details[name] = v
}

func (b *bench) sampled(name string, n int) {
	if b.samples == nil {
		b.samples = make(map[string]int)
	}
	b.samples[name] = n
}

// variant is one way of calling the workload: its instrument stack
// and the samples taken with it. A 0-step call of the variant measures
// the set-up its n-step calls also pay; the difference is the step
// loop.
type variant struct {
	name    string
	inst    func() instruments
	zero    []time.Duration // 0-step call walls
	zeroR   []*parmd.Result // 0-step results without atom arrays
	zeroMed *parmd.Result   // zeroR with times at their medians
	us      []float64       // µs/atom/step of each timed call
	allocs  []float64       // Result.StepAllocs of each timed call
	counts  []stepCounts    // per-step counters of each timed call
	last    *parmd.Result   // the last timed call's result
}

// zeroCall makes one 0-step call of the variant: decomposition,
// exchange plan, socket rendezvous and the initial force evaluation.
// It checks the returned state and reports whether the call passed.
func (b *bench) zeroCall(v *variant, cfg *workload.Config) (*parmd.Result, bool) {
	b.attempted++
	runtime.GC()
	var res *parmd.Result
	var err error
	wall := b.tr.timed("setup.world:"+v.name, b.root, func() {
		res, err = b.s.run(cfg, b.model, b.s.options(0, v.inst()))
	})
	if err != nil {
		b.fail("%s 0-step call: %v", v.name, err)
		return nil, false
	}
	v.zero = append(v.zero, wall)
	if err := checkState(res, b.s.atoms()); err != nil {
		b.fail("%s 0-step call: %v", v.name, err)
		return res, false
	}
	// Keep only the counters: retaining every call's atom arrays would
	// make peak RSS grow with the number of calls a run fits in.
	kept := *res
	kept.Final, kept.Forces, kept.Energies = nil, nil, nil
	v.zeroR = append(v.zeroR, &kept)
	return res, true
}

// buildConfig builds the workload configuration from the seed, timed.
func (b *bench) buildConfig() (*workload.Config, time.Duration) {
	var cfg *workload.Config
	d := b.tr.timed("setup.config", b.root, func() { cfg = b.s.buildConfig(b.model, b.seed) })
	return cfg, d
}

// setup repeats the set-up setupReps times for every variant and runs
// the reference checks on the first configuration. It returns the
// configuration and the per-repetition configuration-build and set-up
// times (configuration build plus the first variant's 0-step call),
// or an error when some variant has no 0-step call to measure against.
func (b *bench) setup(vs []*variant) (*workload.Config, []time.Duration, []time.Duration, error) {
	var cfg *workload.Config
	var configT, setupT []time.Duration
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		c, d := b.buildConfig()
		configT = append(configT, d)
		for i, v := range vs {
			timed := len(v.zero)
			res, ok := b.zeroCall(v, c)
			if i == 0 && len(v.zero) > timed { // a failed check keeps its time
				setupT = append(setupT, d+v.zero[timed])
			}
			if i == 0 && ok && !b.initChecked {
				b.initChecked = true
				b.referenceChecks(c, res)
			}
		}
		cfg = c
	}
	for _, v := range vs {
		if len(v.zeroR) == 0 {
			return nil, nil, nil, fmt.Errorf("no %s set-up call succeeded: %v", v.name, b.failures)
		}
	}
	return cfg, configT, setupT, nil
}

// referenceChecks is the once-per-run part of the correctness gate on
// the initial configuration: parallel initial forces against the
// serial full-shell reference, and — on the socket workload — socket
// forces bit-identical to the channel transport's.
func (b *bench) referenceChecks(cfg *workload.Config, res *parmd.Result) {
	sp := b.tr.begin("check.reference", b.root)
	defer b.tr.end(sp)
	b.attempted++
	if err := checkReference(cfg, b.model, res.Forces, res.InitialPotential); err != nil {
		b.fail("initial state: %v", err)
		b.check("initial_forces_vs_serial_fs", "fail")
	} else {
		b.check("initial_forces_vs_serial_fs", "pass")
	}
	if !b.s.socket {
		return
	}
	b.attempted++
	chanSpec := b.s
	chanSpec.socket = false
	chanRes, err := chanSpec.run(cfg, b.model, chanSpec.options(0, instruments{}))
	switch {
	case err != nil:
		b.fail("channel 0-step call: %v", err)
	case bitIdentical(res.Forces, chanRes.Forces) >= 0:
		b.fail("socket forces differ from channel forces at atom %d", bitIdentical(res.Forces, chanRes.Forces))
		b.check("socket_vs_chan_forces", "fail")
	default:
		b.check("socket_vs_chan_forces", "bit-identical")
	}
}

// timedCall makes one timed n-step call of the variant and applies the
// per-call correctness gate. A failing call is counted and kept.
func (b *bench) timedCall(v *variant, cfg *workload.Config, zeroWall time.Duration) {
	b.attempted++
	steps := b.s.stepsPerRep
	in := v.inst()
	opt := b.s.options(steps, in)
	runtime.GC()
	var res *parmd.Result
	var err error
	wall := b.tr.timed("run:"+v.name, b.root, func() { res, err = b.s.run(cfg, b.model, opt) })
	if err != nil {
		b.fail("%s call: %v", v.name, err)
		return
	}
	v.last = res
	v.allocs = append(v.allocs, res.StepAllocs)
	v.counts = append(v.counts, perStep(res, v.zeroMed, steps))
	us, err := usPerAtomStep(wall, zeroWall, b.s.atoms(), steps)
	if err != nil {
		b.fail("%s call: %v", v.name, err)
		return
	}
	v.us = append(v.us, us)
	if err := checkState(res, b.s.atoms()); err != nil {
		b.fail("%s call: %v", v.name, err)
		return
	}
	drift, err := checkDrift(cfg, b.model, res)
	if err != nil {
		b.fail("%s call: %v", v.name, err)
		return
	}
	b.maxDrift = max(b.maxDrift, drift)
	b.check("max_nve_drift_over_ke0", b.maxDrift)
	if in.health != nil && !res.Health.Healthy() {
		b.fail("%s call: health probes flagged the run: %+v", v.name, res.Health.Probes)
	}
	if !b.finalChecked {
		// Once per run: the end state, where thermal motion has made
		// every force non-trivial, against the serial reference.
		b.finalChecked = true
		sp := b.tr.begin("check.reference", b.root)
		err := checkReference(res.Final, b.model, res.Forces, res.Energies[len(res.Energies)-1].Potential)
		b.tr.end(sp)
		if err != nil {
			b.fail("%s call end state: %v", v.name, err)
			b.check("final_forces_vs_serial_fs", "fail")
		} else {
			b.check("final_forces_vs_serial_fs", "pass")
		}
	}
}

// measure interleaves timed calls of the variants, one of each per
// round, until the budget is spent and every variant has minReps.
func (b *bench) measure(vs []*variant, cfg *workload.Config, budget time.Duration) {
	zero := make([]time.Duration, len(vs))
	for i, v := range vs {
		zero[i] = medianDuration(v.zero)
		v.zeroMed = medianTimes(v.zeroR)
	}
	deadline := time.Now().Add(budget)
	for round := 0; round < minReps || time.Now().Before(deadline); round++ {
		for i, v := range vs {
			b.timedCall(v, cfg, zero[i])
		}
	}
	for _, v := range vs {
		b.sampled("calls:"+v.name, len(v.us))
	}
}

func medianDuration(ds []time.Duration) time.Duration {
	return time.Duration(median(inUnits(ds, 1)))
}

// plainVariant calls the workload as defined: its own instrument
// stack (none, or scmd's observed stack).
func (b *bench) plainVariant() *variant {
	observed := b.s.observed
	return &variant{name: "plain", inst: func() instruments { return newInstruments(observed, false) }}
}

// endToEnd is the untraced run: set-up repetitions, then timed calls
// for the measurement time.
func (b *bench) endToEnd() (map[string]metric, error) {
	plain := b.plainVariant()
	vs := []*variant{plain}
	cfg, _, setupT, err := b.setup(vs)
	if err != nil {
		return nil, err
	}
	b.measure(vs, cfg, b.budget)
	if len(plain.us) == 0 {
		return nil, fmt.Errorf("no timed call succeeded: %v", b.failures)
	}
	q1, q3 := quartiles(plain.us)
	b.detail("us_per_atom_step_q1_q3", []float64{q1, q3})
	b.detail("us_per_atom_step_calls", plain.us)
	b.detail("allocs_per_step_calls", plain.allocs)
	return map[string]metric{
		"us_per_atom_step": {median(plain.us), "us"},
		"setup_s":          {median(inUnits(setupT, time.Second)), "s"},
		// The least-allocating call: every call builds a fresh world
		// whose buffer pools warm up over its first steps at a
		// timing-dependent rate (the socket fabric's most of all), so
		// the floor over calls is the steady state.
		"allocs_per_step": {slices.Min(plain.allocs), "count"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
	}, nil
}

// inUnits converts durations to float multiples of unit.
func inUnits(ds []time.Duration, unit time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return xs
}
