package md

import (
	"math"
	"math/rand"
	"testing"

	"sctuple/internal/geom"
	"sctuple/internal/potential"
	"sctuple/internal/workload"
)

// TestSpeciesLinksSerialBitIdentical: every serial engine gives the
// same force, energy and virial bits with the silica link table as
// without it, evaluates fewer triplets with it, and the SC and Hybrid
// engines still agree on the masked triplet count.
func TestSpeciesLinksSerialBitIdentical(t *testing.T) {
	model := potential.NewSilicaModel()
	plain := potential.WithoutLinks(model)
	cfg := workload.BetaCristobalite(3, 3, 3)
	cfg.Thermalize(rand.New(rand.NewSource(24)), model, 600)
	engines := []struct {
		name  string
		build func(m *potential.Model, box geom.Box) (Engine, error)
	}{
		{"SC", func(m *potential.Model, box geom.Box) (Engine, error) { return NewCellEngine(m, box, FamilySC) }},
		{"FS", func(m *potential.Model, box geom.Box) (Engine, error) { return NewCellEngine(m, box, FamilyFS) }},
		{"SC-concurrent", func(m *potential.Model, box geom.Box) (Engine, error) {
			return NewConcurrentCellEngine(m, box, FamilySC, 3)
		}},
		{"Hybrid", func(m *potential.Model, box geom.Box) (Engine, error) { return NewHybridEngine(m, box) }},
	}
	bits := math.Float64bits
	triplets := map[string]int64{}
	for _, eng := range engines {
		var pe [2]float64
		var stats [2]ComputeStats
		var forces [2][]geom.Vec3
		for v, m := range []*potential.Model{model, plain} {
			sys, err := NewSystem(cfg, m)
			if err != nil {
				t.Fatal(err)
			}
			e, err := eng.build(m, sys.Box)
			if err != nil {
				t.Fatal(err)
			}
			if pe[v], err = e.Compute(sys); err != nil {
				t.Fatal(err)
			}
			stats[v] = e.Stats()
			forces[v] = sys.GatherByID(nil, sys.Force)
		}
		if bits(pe[0]) != bits(pe[1]) || bits(stats[0].Virial) != bits(stats[1].Virial) {
			t.Errorf("%s: PE %v / virial %v, geometric %v / %v", eng.name, pe[0], stats[0].Virial, pe[1], stats[1].Virial)
		}
		for i := range forces[0] {
			f, g := forces[0][i], forces[1][i]
			if bits(f.X) != bits(g.X) || bits(f.Y) != bits(g.Y) || bits(f.Z) != bits(g.Z) {
				t.Fatalf("%s atom %d: force %v, geometric %v", eng.name, i, f, g)
			}
		}
		if !(stats[0].TermTuples[3] < stats[1].TermTuples[3]) {
			t.Errorf("%s: %d masked triplets, %d geometric; the table cut nothing",
				eng.name, stats[0].TermTuples[3], stats[1].TermTuples[3])
		}
		triplets[eng.name] = stats[0].TermTuples[3]
	}
	if triplets["SC"] != triplets["Hybrid"] || triplets["SC"] != triplets["SC-concurrent"] {
		t.Errorf("masked triplet counts differ across engines: %v", triplets)
	}
}
