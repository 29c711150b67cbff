package parmd

import (
	"fmt"
	"math"
	"testing"

	"sctuple/internal/comm"
	"sctuple/internal/geom"
	"sctuple/internal/potential"
)

// TestSpeciesLinksBitIdentical: dropping the tuples the silica triplet
// term defines as zero changes no bit of the run. For SC-, FS- and
// Hybrid-MD on 2 ranks with 2 workers, a few steps with the link table
// and without it give identical initial and per-step potential
// energies, final forces and positions, and per-rank virials, while
// the table cuts both the evaluated tuples and the search candidates.
func TestSpeciesLinksBitIdentical(t *testing.T) {
	cfg, model := silicaConfig(t, 4, 300, 24)
	plain := potential.WithoutLinks(model)
	if potential.SpeciesLinks(plain.Terms[1]) != nil || potential.SpeciesLinks(model.Terms[1]) == nil {
		t.Fatal("WithoutLinks kept a link table, or silica declares none")
	}
	bits := math.Float64bits
	sameVecs := func(a, b []geom.Vec3) error {
		for i := range a {
			if bits(a[i].X) != bits(b[i].X) || bits(a[i].Y) != bits(b[i].Y) || bits(a[i].Z) != bits(b[i].Z) {
				return fmt.Errorf("atom %d: %v vs %v", i, a[i], b[i])
			}
		}
		return nil
	}
	cart, err := comm.NewCartDims(geom.IV(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range Schemes() {
		opts := Options{Scheme: scheme, Cart: cart, Dt: 1, Steps: 3, Workers: 2, TraceEnergies: true}
		masked, err := Run(cfg, model, opts)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		geo, err := Run(cfg, plain, opts)
		if err != nil {
			t.Fatalf("%v geometric: %v", scheme, err)
		}
		if bits(masked.InitialPotential) != bits(geo.InitialPotential) {
			t.Errorf("%v: initial PE %v, geometric %v", scheme, masked.InitialPotential, geo.InitialPotential)
		}
		for s := range geo.Energies {
			if bits(masked.Energies[s].Potential) != bits(geo.Energies[s].Potential) {
				t.Errorf("%v step %d: PE %v, geometric %v", scheme, s, masked.Energies[s].Potential, geo.Energies[s].Potential)
			}
		}
		if err := sameVecs(masked.Forces, geo.Forces); err != nil {
			t.Errorf("%v forces: %v", scheme, err)
		}
		if err := sameVecs(masked.Final.Pos, geo.Final.Pos); err != nil {
			t.Errorf("%v positions: %v", scheme, err)
		}
		var mStats, gStats RankStats
		for r := range geo.RankStats {
			if bits(masked.RankStats[r].Virial) != bits(geo.RankStats[r].Virial) {
				t.Errorf("%v rank %d: virial %v, geometric %v", scheme, r, masked.RankStats[r].Virial, geo.RankStats[r].Virial)
			}
			mStats.Add(masked.RankStats[r])
			gStats.Add(geo.RankStats[r])
		}
		if !(mStats.TuplesEvaluated < gStats.TuplesEvaluated) || !(mStats.SearchCandidates < gStats.SearchCandidates) {
			t.Errorf("%v: the table cut nothing: tuples %d vs %d, candidates %d vs %d", scheme,
				mStats.TuplesEvaluated, gStats.TuplesEvaluated, mStats.SearchCandidates, gStats.SearchCandidates)
		}
	}
}
