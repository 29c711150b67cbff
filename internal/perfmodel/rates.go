package perfmodel

import (
	"fmt"
	"math/rand"
	"sync"

	"sctuple/internal/md"
	"sctuple/internal/parmd"
	"sctuple/internal/potential"
	"sctuple/internal/workload"
)

// Rates holds the per-owned-atom, per-step operation counts of one
// scheme on the silica workload, measured by running the repository's
// real serial engines on a uniform reference system, searching
// geometrically (potential.WithoutLinks). These are density-dependent
// constants (the benchmarks keep ⟨ρ_cell⟩ fixed, as the paper does in
// §5.1), so they scale linearly to any granularity.
type Rates struct {
	SearchPerAtom   float64 // tuple-search candidates examined
	PathsPerAtom    float64 // (cell, path) pattern applications
	PairsPerAtom    float64 // pair interactions evaluated
	TripletsPerAtom float64 // triplet interactions evaluated
}

// referenceN is the size of the measurement system: large enough that
// every per-term lattice satisfies its pattern-span requirement and
// boundary noise is negligible, small enough to measure in
// milliseconds.
const referenceN = 3000

var (
	ratesOnce sync.Once
	ratesMap  map[parmd.Scheme]Rates
	ratesErr  error
)

// MeasureRates returns the per-atom operation rates of a scheme on
// the silica workload. Rates are measured once per process and
// cached; the reference configuration is deterministic.
func MeasureRates(scheme parmd.Scheme) (Rates, error) {
	ratesOnce.Do(func() {
		ratesMap, ratesErr = measureAll()
	})
	if ratesErr != nil {
		return Rates{}, ratesErr
	}
	return ratesMap[scheme], nil
}

func measureAll() (map[parmd.Scheme]Rates, error) {
	model := potential.WithoutLinks(potential.NewSilicaModel())
	cfg := workload.UniformSilica(rand.New(rand.NewSource(1)), referenceN)
	out := make(map[parmd.Scheme]Rates)
	for _, scheme := range parmd.Schemes() {
		sys, err := md.NewSystem(cfg, model)
		if err != nil {
			return nil, err
		}
		var engine md.Engine
		switch scheme {
		case parmd.SchemeSC:
			engine, err = md.NewCellEngine(model, sys.Box, md.FamilySC)
		case parmd.SchemeFS:
			engine, err = md.NewCellEngine(model, sys.Box, md.FamilyFS)
		case parmd.SchemeHybrid:
			engine, err = md.NewHybridEngine(model, sys.Box)
		}
		if err != nil {
			return nil, fmt.Errorf("perfmodel: %v: %w", scheme, err)
		}
		if _, err := engine.Compute(sys); err != nil {
			return nil, fmt.Errorf("perfmodel: %v: %w", scheme, err)
		}
		st := engine.Stats()
		n := float64(cfg.N())
		out[scheme] = Rates{
			SearchPerAtom:   float64(st.SearchCandidates) / n,
			PathsPerAtom:    float64(st.PathApplications) / n,
			PairsPerAtom:    float64(st.TermTuples[2]) / n,
			TripletsPerAtom: float64(st.TermTuples[3]) / n,
		}
	}
	return out, nil
}
