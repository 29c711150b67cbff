package parmd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sctuple/internal/comm"
	"sctuple/internal/geom"
	"sctuple/internal/md"
	"sctuple/internal/potential"
	"sctuple/internal/workload"
)

// TestBalancerReducesVoidImbalance: on the void workload over a
// 4-rank x-slab decomposition, the balancer must actually repartition
// and converge to a load imbalance well below the static
// decomposition's. The balancer weighs search candidates here
// (Balancer.countWork), a pure function of the physics state, so both
// runs — every decision and both imbalances — are exact on any host,
// however loaded. The default wall-time signal gets one coarse check:
// the workload's imbalance is far past the threshold, so it too must
// repartition.
func TestBalancerReducesVoidImbalance(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock load comparison; race instrumentation distorts it")
	}
	if testing.Short() {
		t.Skip("multi-run balance comparison")
	}
	rng := rand.New(rand.NewSource(13))
	cfg := workload.Void(rng, 9000, 0.7)
	// A short-cutoff single-species LJ model: the 2.55 Å cells give the
	// slab boundaries 20 cells of granularity along x, enough for the
	// equalizer to meaningfully improve on the uniform split (the
	// silica cutoff would leave only 2 coarse cells per rank, where no
	// boundary move can pay). 20 is a multiple of the 4 ranks, so
	// SC-MD's even lattice (Scheme.lattice) keeps every cell; a 3.4 Å
	// cutoff's 15 cells would drop to 12, too coarse to pay.
	model := potential.NewLJModel(0.005, 1.3, 2.55, 39.948)
	for i := range cfg.Species {
		cfg.Species[i] = 0
	}
	cfg.Thermalize(rng, model, 30)
	cart, err := comm.NewCartDims(geom.IV(4, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Scheme: SchemeSC, Cart: cart, Dt: 0.5, Steps: 60, Workers: 1}
	run := func(b Balancer) *Result {
		t.Helper()
		opt := base
		opt.Balance = &b
		res, err := Run(cfg, model, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Static baseline: same collective checks (so Imbalance is the
	// same last-interval measure), but an infinite threshold keeps the
	// boundaries fixed.
	sres := run(Balancer{Every: 10, Threshold: math.Inf(1), countWork: true})
	if sres.Repartitions != 0 {
		t.Fatalf("static run repartitioned %d times", sres.Repartitions)
	}
	bres := run(Balancer{Every: 10, Threshold: 1.05, countWork: true})
	t.Logf("static imbalance %.3f, balanced %.3f after %d repartitions", sres.Imbalance, bres.Imbalance, bres.Repartitions)
	if bres.Repartitions < 1 {
		t.Errorf("balanced run never repartitioned (imbalance %.2f)", bres.Imbalance)
	} else if excess, want := bres.Imbalance-1, 0.6*(sres.Imbalance-1); excess > want {
		t.Errorf("converged imbalance %.2f (excess %.2f), want excess ≤ %.2f of static %.2f (%d repartitions)",
			bres.Imbalance, excess, want, sres.Imbalance, bres.Repartitions)
	}

	if wres := run(Balancer{Every: 10, Threshold: 1.05}); wres.Repartitions < 1 {
		t.Errorf("wall-time balancer never repartitioned (imbalance %.2f)", wres.Imbalance)
	}
}

// TestBalancerUniformHysteresis: on a uniform crystal the balancer's
// threshold and min-gain guards must hold. Both are pinned on the exact
// work signal (Balancer.countWork: list entries, a pure function of the
// physics state), so every decision is reproducible on any host:
//
//   - threshold: 5³ unit cells lay 6 pair cells per axis, which the
//     (2,1,1) grid splits 3/3; the imbalance stays below the default
//     1.2 threshold, and no check repartitions.
//   - min gain: 3,000 SiO₂ atoms whose density ramps 1 → 2.5 along x
//     (workload.DensityGradient) fill the same 6 cells, split 3/3, but
//     the dense half carries more list entries (imbalance 1.25), so
//     every check passes the threshold. With the default 0.02 guard
//     the balancer takes the better split it predicts; a guard above
//     the largest gain any move can reach (imbalance − 1) holds the
//     boundaries.
//
// One run on the default wall-time signal, on the even split, keeps
// that path covered: host noise would have to reach the 20 % threshold
// margin to move a boundary, and retries absorb a rare spike.
func TestBalancerUniformHysteresis(t *testing.T) {
	if testing.Short() {
		t.Skip("40-step balanced runs")
	}
	even, model := silicaConfig(t, 5, 300, 17)
	rng := rand.New(rand.NewSource(17))
	uneven := workload.DensityGradient(rng, 3000, 2.5)
	uneven.Thermalize(rng, model, 300)
	cart, err := comm.NewCartDims(geom.IV(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg *workload.Config, b Balancer) *Result {
		t.Helper()
		res, err := Run(cfg, model, Options{Scheme: SchemeSC, Cart: cart, Dt: 0.5, Steps: 40, Workers: 1, Balance: &b})
		if err != nil {
			t.Fatal(err)
		}
		if res.BalanceChecks != 3 {
			t.Fatalf("%d balance checks, want 3", res.BalanceChecks)
		}
		return res
	}

	if res := run(even, Balancer{Every: 10, countWork: true}); res.Repartitions != 0 || !(res.Imbalance < 1.2) {
		t.Errorf("even split: %d repartitions at imbalance %.3f, want none below the 1.2 threshold",
			res.Repartitions, res.Imbalance)
	}
	held := run(uneven, Balancer{Every: 10, MinGain: 0.3, countWork: true})
	if held.Repartitions != 0 || !(held.Imbalance > 1.2 && held.Imbalance < 1.3) {
		t.Errorf("density ramp, min gain 0.3: %d repartitions at imbalance %.3f, want none above the threshold",
			held.Repartitions, held.Imbalance)
	}
	if res := run(uneven, Balancer{Every: 10, countWork: true}); res.Repartitions == 0 {
		t.Errorf("density ramp, default min gain: no repartition at imbalance %.3f; the guard test above is vacuous",
			res.Imbalance)
	}

	const attempts = 3
	reparts := 0
	for a := 0; a < attempts; a++ {
		reparts = run(even, Balancer{Every: 10}).Repartitions
		if reparts == 0 {
			return
		}
	}
	t.Errorf("even split on wall time: repartitioned %d times on every attempt", reparts)
}

// TestBalanceStepZeroAllocs: with the balancer active and checking on
// every step, non-repartitioning steps stay allocation-free — the
// protocol runs on pooled buffers and preallocated scratch. The
// infinite threshold pins every check to the no-repartition path
// (repartition steps are allowed to allocate; they rebuild geometry).
func TestBalanceStepZeroAllocs(t *testing.T) {
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
	world := comm.NewWorld(cart.Size())
	defineTagClasses(world)
	err = world.Run(func(p *comm.Proc) error {
		r, err := newRankState(p, dec, model, SchemeSC, 1, true)
		if err != nil {
			return err
		}
		r.initBalance(&Balancer{Every: 1, Threshold: math.Inf(1)})
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
			if _, err := r.balanceCheck(); err != nil {
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
			return fmt.Errorf("%g allocs per balanced step, want 0", allocs)
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
}
