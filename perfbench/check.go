package main

import (
	"fmt"
	"math"

	"sctuple/internal/geom"
	"sctuple/internal/md"
	"sctuple/internal/parmd"
	"sctuple/internal/potential"
	"sctuple/internal/workload"
)

// Correctness-gate tolerances.
const (
	// forceRelTol bounds max |F_par − F_ref| over max(max |F_ref|,
	// forceScale) for forces against the serial reference. The two sum
	// each atom's tuple contributions in different orders (rank-local
	// shift-collapse or pair-list streams against a serial full-shell
	// enumeration), so they agree to rounding — ~1e-14 eV/Å on these
	// systems — not bit for bit.
	forceRelTol = 1e-9
	// forceScale (eV/Å) is the floor of the force tolerance's scale: on
	// the ideal lattice every force cancels to rounding, so max |F_ref|
	// alone would demand agreement far below one ulp of a bond force.
	forceScale = 1.0
	// energyRelTol bounds |PE_par − PE_ref| / |PE_ref| likewise.
	energyRelTol = 1e-10
	// driftLimit bounds the NVE drift |E_end − E₀| / KE₀: health's
	// energy warn level. A sound velocity-Verlet run at 0.5 fs stays
	// orders of magnitude below it.
	driftLimit = 1e-2
)

// kinetic returns Σ ½mv² (eV) of a configuration.
func kinetic(cfg *workload.Config, model *potential.Model) float64 {
	ke := 0.0
	for i, v := range cfg.Vel {
		ke += 0.5 * model.Species[cfg.Species[i]].Mass * v.Norm2()
	}
	return ke / md.ForceToAccel
}

func finiteVec(v geom.Vec3) bool {
	return !math.IsNaN(v.X+v.Y+v.Z) && !math.IsInf(v.X+v.Y+v.Z, 0)
}

// checkState verifies that a call returned the whole world: every atom
// once, with finite positions, velocities and forces.
func checkState(res *parmd.Result, atoms int) error {
	if res.Final == nil || res.Final.N() != atoms || len(res.Forces) != atoms {
		got := -1
		if res.Final != nil {
			got = res.Final.N()
		}
		return fmt.Errorf("atom count not conserved: %d atoms, %d forces, want %d", got, len(res.Forces), atoms)
	}
	for i := 0; i < atoms; i++ {
		if !finiteVec(res.Final.Pos[i]) || !finiteVec(res.Final.Vel[i]) || !finiteVec(res.Forces[i]) {
			return fmt.Errorf("atom %d has a non-finite position, velocity or force", i)
		}
	}
	return nil
}

// nveDrift returns |E_end − E₀| / KE₀ of a traced-energy run started
// from cfg.
func nveDrift(cfg *workload.Config, model *potential.Model, res *parmd.Result) (float64, error) {
	ke0 := kinetic(cfg, model)
	if !(ke0 > 0) {
		return 0, fmt.Errorf("initial kinetic energy %g is not positive", ke0)
	}
	if len(res.Energies) == 0 {
		return 0, fmt.Errorf("run traced no energies")
	}
	e0 := res.InitialPotential + ke0
	end := res.Energies[len(res.Energies)-1].Total()
	return math.Abs(end-e0) / ke0, nil
}

// checkDrift applies the NVE drift limit.
func checkDrift(cfg *workload.Config, model *potential.Model, res *parmd.Result) (float64, error) {
	d, err := nveDrift(cfg, model, res)
	if err != nil {
		return d, err
	}
	if !(d < driftLimit) {
		return d, fmt.Errorf("NVE drift %.3g of KE₀ exceeds %g", d, driftLimit)
	}
	return d, nil
}

// forceDeviation returns max |a_i − b_i| and max |b_i| over atoms.
func forceDeviation(a, b []geom.Vec3) (maxDev, maxRef float64) {
	for i := range b {
		maxDev = math.Max(maxDev, a[i].Sub(b[i]).Norm())
		maxRef = math.Max(maxRef, b[i].Norm())
	}
	return maxDev, maxRef
}

// withinTolerance applies the reference tolerances to a force and
// energy comparison.
func withinTolerance(maxDev, maxRef, pe, peRef float64) error {
	tol := forceRelTol * math.Max(maxRef, forceScale)
	if !(maxDev <= tol) {
		return fmt.Errorf("forces deviate from the serial reference by %.3g eV/Å (tolerance %.3g)", maxDev, tol)
	}
	if !(math.Abs(pe-peRef) <= energyRelTol*math.Abs(peRef)) {
		return fmt.Errorf("potential %.12g deviates from the serial reference %.12g", pe, peRef)
	}
	return nil
}

// serialReference evaluates the forces (ordered by global ID) and
// potential energy of cfg with the serial full-shell cell engine — a
// different pattern family and traversal than any parallel scheme.
func serialReference(cfg *workload.Config, model *potential.Model) ([]geom.Vec3, float64, error) {
	sys, err := md.NewSystem(cfg, model)
	if err != nil {
		return nil, 0, err
	}
	eng, err := md.NewCellEngine(model, cfg.Box, md.FamilyFS)
	if err != nil {
		return nil, 0, err
	}
	pe, err := eng.Compute(sys)
	if err != nil {
		return nil, 0, err
	}
	return sys.GatherByID(nil, sys.Force), pe, nil
}

// checkReference compares forces and potential energy a call computed
// for cfg with the serial reference.
func checkReference(cfg *workload.Config, model *potential.Model, forces []geom.Vec3, pe float64) error {
	ref, peRef, err := serialReference(cfg, model)
	if err != nil {
		return fmt.Errorf("serial reference: %w", err)
	}
	if len(forces) != len(ref) {
		return fmt.Errorf("%d forces, reference has %d", len(forces), len(ref))
	}
	dev, mx := forceDeviation(forces, ref)
	return withinTolerance(dev, mx, pe, peRef)
}

// bitIdentical reports the first atom whose forces differ in any bit
// between two calls, or -1.
func bitIdentical(a, b []geom.Vec3) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		for _, c := range [][2]float64{{a[i].X, b[i].X}, {a[i].Y, b[i].Y}, {a[i].Z, b[i].Z}} {
			if math.Float64bits(c[0]) != math.Float64bits(c[1]) {
				return i
			}
		}
	}
	return -1
}
