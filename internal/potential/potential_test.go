package potential

import (
	"math"
	"math/rand"
	"testing"

	"sctuple/internal/geom"
)

// checkForces compares the analytic forces of a term against central
// differences for many random tuples within the cutoff.
func checkForces(t *testing.T, term Term, species []int32, trials int, seed int64, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := term.N()
	rc := term.Cutoff()
	for trial := 0; trial < trials; trial++ {
		// Random chain with links in (0.55, 0.95)·rc: inside the
		// cutoff and away from both the singular core and the cutoff
		// edge, where finite differences lose accuracy.
		pos := make([]geom.Vec3, n)
		pos[0] = geom.V(rng.Float64(), rng.Float64(), rng.Float64())
		for k := 1; k < n; k++ {
			dir := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Normalized()
			r := rc * (0.55 + 0.4*rng.Float64())
			pos[k] = pos[k-1].Add(dir.Scale(r))
		}
		analytic := make([]geom.Vec3, n)
		e := term.Eval(species, pos, analytic)
		if math.IsNaN(e) || math.IsInf(e, 0) {
			t.Fatalf("trial %d: energy %v", trial, e)
		}
		numeric := NumericalForces(term, species, pos, 1e-6)
		scale := 1.0
		for i := range analytic {
			if m := analytic[i].Norm(); m > scale {
				scale = m
			}
		}
		for i := range analytic {
			diff := analytic[i].Sub(numeric[i]).Norm()
			if diff > tol*scale {
				t.Fatalf("trial %d atom %d: analytic %v numeric %v (diff %g, scale %g)",
					trial, i, analytic[i], numeric[i], diff, scale)
			}
		}
		// Newton's third law: per-tuple forces sum to zero.
		var sum geom.Vec3
		for _, fv := range analytic {
			sum = sum.Add(fv)
		}
		if sum.Norm() > 1e-9*scale {
			t.Fatalf("trial %d: tuple forces sum to %v", trial, sum)
		}
	}
}

func TestLennardJonesForces(t *testing.T) {
	lj := NewLennardJones(1.0, 1.0, 2.5)
	checkForces(t, lj, []int32{0, 0}, 200, 1, 1e-5)
}

func TestLennardJonesEnergyShift(t *testing.T) {
	lj := NewLennardJones(1.0, 1.0, 2.5)
	f := make([]geom.Vec3, 2)
	// Just inside the cutoff the energy must be ≈ 0 (continuous).
	e := lj.Eval(nil, []geom.Vec3{{}, geom.V(2.4999, 0, 0)}, f)
	if math.Abs(e) > 1e-3 {
		t.Errorf("energy near cutoff = %g, want ≈ 0", e)
	}
	// Outside the cutoff: exactly zero, no force.
	f[0], f[1] = geom.Vec3{}, geom.Vec3{}
	if e := lj.Eval(nil, []geom.Vec3{{}, geom.V(2.6, 0, 0)}, f); e != 0 || f[0] != (geom.Vec3{}) {
		t.Error("interaction beyond cutoff")
	}
	// Minimum at r = 2^(1/6)σ with depth ≈ ε (modulo the small shift).
	rmin := math.Pow(2, 1.0/6.0)
	e = lj.Eval(nil, []geom.Vec3{{}, geom.V(rmin, 0, 0)}, f)
	if math.Abs(e-(-1.0-(-0.0163))) > 2e-2 {
		t.Errorf("well depth = %g, want ≈ -1+shift", e)
	}
}

func TestVashishtaPairForces(t *testing.T) {
	m := NewSilicaModel()
	pair := m.Terms[0]
	for _, sp := range [][]int32{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		checkForces(t, pair, sp, 100, 2, 1e-4)
	}
}

// TestStericPowMatchesMathPow: the steric term's integer power is
// bit-identical to math.Pow for the model's exponents and the rest of
// the fast path's range, and falls back to it outside.
func TestStericPowMatchesMathPow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	check := func(x, y float64) {
		t.Helper()
		if got, want := stericPow(x, y), math.Pow(x, y); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("stericPow(%v, %v) = %v (%#x), math.Pow %v (%#x)",
				x, y, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, eta := range []float64{1, 2, 3, 7, 9, 11, 12, 16} {
		for k := 0; k < 200000; k++ {
			check(0.05+6*rng.Float64(), eta)
		}
		for _, x := range []float64{1, 0x1p-30, 0x1p30, math.Nextafter(0x1p-30, 0), 1e-200, 1e200, 0, math.Inf(1)} {
			check(x, eta)
		}
	}
	for _, eta := range []float64{0, 2.5, 17, 40, -3, math.NaN()} {
		for k := 0; k < 1000; k++ {
			check(0.05+6*rng.Float64(), eta)
		}
	}
}

func TestVashishtaPairSymmetric(t *testing.T) {
	m := NewSilicaModel()
	pair := m.Terms[0]
	pos := []geom.Vec3{{}, geom.V(2.1, 0.7, -0.4)}
	f := make([]geom.Vec3, 2)
	e1 := pair.Eval([]int32{0, 1}, pos, f)
	e2 := pair.Eval([]int32{1, 0}, pos, f)
	if math.Abs(e1-e2) > 1e-12 {
		t.Errorf("Si-O %g != O-Si %g", e1, e2)
	}
}

func TestVashishtaPairCutoffContinuity(t *testing.T) {
	m := NewSilicaModel()
	pair := m.Terms[0]
	f := make([]geom.Vec3, 2)
	for _, sp := range [][]int32{{0, 0}, {0, 1}, {1, 1}} {
		e := pair.Eval(sp, []geom.Vec3{{}, geom.V(5.4999, 0, 0)}, f)
		if math.Abs(e) > 1e-5 {
			t.Errorf("species %v: energy at cutoff = %g, want ≈ 0 (shifted)", sp, e)
		}
		// Force-shifted: force also ≈ 0 at the cutoff.
		f[0], f[1] = geom.Vec3{}, geom.Vec3{}
		pair.Eval(sp, []geom.Vec3{{}, geom.V(5.4999, 0, 0)}, f)
		if f[0].Norm() > 1e-4 {
			t.Errorf("species %v: force at cutoff = %v, want ≈ 0", sp, f[0])
		}
	}
}

func TestVashishtaTripletForces(t *testing.T) {
	m := NewSilicaModel()
	trip := m.Terms[1]
	// O-Si-O (center Si) and Si-O-Si (center O).
	checkForces(t, trip, []int32{1, 0, 1}, 100, 3, 1e-4)
	checkForces(t, trip, []int32{0, 1, 0}, 100, 4, 1e-4)
}

func TestVashishtaTripletInactiveCombinations(t *testing.T) {
	m := NewSilicaModel()
	trip := m.Terms[1]
	f := make([]geom.Vec3, 3)
	pos := []geom.Vec3{{}, geom.V(1.8, 0, 0), geom.V(1.8, 1.8, 0)}
	// Si-Si-Si and O-O-O have no bond-bending term (B = 0).
	if e := trip.Eval([]int32{0, 0, 0}, pos, f); e != 0 {
		t.Errorf("Si-Si-Si energy %g, want 0", e)
	}
	if e := trip.Eval([]int32{1, 1, 1}, pos, f); e != 0 {
		t.Errorf("O-O-O energy %g, want 0", e)
	}
}

func TestVashishtaTripletAngularMinimum(t *testing.T) {
	// The O-Si-O term must vanish exactly at the tetrahedral angle and
	// be positive elsewhere.
	m := NewSilicaModel()
	trip := m.Terms[1]
	f := make([]geom.Vec3, 3)
	r := 1.62 // typical Si-O bond length
	cos0 := -1.0 / 3.0
	theta0 := math.Acos(cos0)
	mk := func(theta float64) []geom.Vec3 {
		return []geom.Vec3{
			geom.V(r, 0, 0),
			{},
			geom.V(r*math.Cos(theta), r*math.Sin(theta), 0),
		}
	}
	if e := trip.Eval([]int32{1, 0, 1}, mk(theta0), f); math.Abs(e) > 1e-12 {
		t.Errorf("energy at θ̄ = %g, want 0", e)
	}
	for _, dt := range []float64{-0.3, 0.3} {
		if e := trip.Eval([]int32{1, 0, 1}, mk(theta0+dt), f); e <= 0 {
			t.Errorf("energy at θ̄%+g = %g, want > 0", dt, e)
		}
	}
}

func TestStillingerWeberForces(t *testing.T) {
	m := NewStillingerWeberModel(SiliconSW(), 28.0855)
	checkForces(t, m.Terms[0], []int32{0, 0}, 100, 5, 1e-4)
	checkForces(t, m.Terms[1], []int32{0, 0, 0}, 100, 6, 1e-4)
}

func TestStillingerWeberDimerProperties(t *testing.T) {
	// The SW pair term has its minimum near the Si-Si dimer distance
	// (~2.35 Å) with depth ≈ -ε·(something near 1); check the minimum
	// exists inside the cutoff and the energy vanishes at the cutoff.
	m := NewStillingerWeberModel(SiliconSW(), 28.0855)
	pair := m.Terms[0]
	f := make([]geom.Vec3, 2)
	best, bestR := math.Inf(1), 0.0
	for r := 2.0; r < pair.Cutoff(); r += 0.001 {
		e := pair.Eval([]int32{0, 0}, []geom.Vec3{{}, geom.V(r, 0, 0)}, f)
		if e < best {
			best, bestR = e, r
		}
	}
	if math.Abs(bestR-2.35) > 0.05 {
		t.Errorf("SW pair minimum at %g Å, want ≈ 2.35", bestR)
	}
	if math.Abs(best-(-2.1683)) > 0.05 {
		t.Errorf("SW pair well depth %g, want ≈ -ε = -2.1683", best)
	}
}

func TestTorsionForces(t *testing.T) {
	tor := NewTorsion(0.3, 2.0)
	checkForces(t, tor, []int32{0, 0, 0, 0}, 200, 7, 1e-4)
}

func TestTorsionDihedralValues(t *testing.T) {
	tor := NewTorsion(1.0, 10.0)
	f := make([]geom.Vec3, 4)
	// Planar cis chain: φ = 0 ⇒ angular factor 2K.
	cis := []geom.Vec3{geom.V(0, 1, 0), {}, geom.V(1, 0, 0), geom.V(1, 1, 0)}
	// Planar trans chain: φ = π ⇒ angular factor 0.
	trans := []geom.Vec3{geom.V(0, 1, 0), {}, geom.V(1, 0, 0), geom.V(1, -1, 0)}
	eCis := tor.Eval(nil, cis, f)
	eTrans := tor.Eval(nil, trans, f)
	if eTrans > 1e-12 {
		t.Errorf("trans energy %g, want 0", eTrans)
	}
	if eCis <= eTrans {
		t.Errorf("cis energy %g not above trans %g", eCis, eTrans)
	}
	// Envelope: energy → 0 as a link stretches to the cutoff.
	far := []geom.Vec3{geom.V(0, 9.99, 0), {}, geom.V(1, 0, 0), geom.V(1, 1, 0)}
	if e := tor.Eval(nil, far, f); math.Abs(e) > 1e-4 {
		t.Errorf("stretched-link energy %g, want ≈ 0", e)
	}
}

func TestTorsionCollinearChainIsFinite(t *testing.T) {
	tor := NewTorsion(1.0, 3.0)
	f := make([]geom.Vec3, 4)
	pos := []geom.Vec3{{}, geom.V(1, 0, 0), geom.V(2, 0, 0), geom.V(3, 0, 0)}
	e := tor.Eval(nil, pos, f)
	if math.IsNaN(e) || math.IsInf(e, 0) {
		t.Fatalf("collinear chain energy %v", e)
	}
	for i, fv := range f {
		if !fv.IsFinite() {
			t.Fatalf("collinear chain force[%d] = %v", i, fv)
		}
	}
}

func TestModelValidation(t *testing.T) {
	for _, m := range []*Model{
		NewSilicaModel(),
		NewLJModel(1, 1, 2.5, 39.948),
		NewStillingerWeberModel(SiliconSW(), 28.0855),
		NewTorsionModel(0.3, 2.0, 1.0, 1.0, 2.5, 12.0),
	} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
	bad := &Model{Name: "empty"}
	if err := bad.Validate(); err == nil {
		t.Error("empty model validated")
	}
}

func TestModelMaxima(t *testing.T) {
	m := NewSilicaModel()
	if m.MaxN() != 3 {
		t.Errorf("MaxN = %d", m.MaxN())
	}
	if m.MaxCutoff() != 5.5 {
		t.Errorf("MaxCutoff = %g", m.MaxCutoff())
	}
	if r := m.Terms[1].Cutoff() / m.Terms[0].Cutoff(); math.Abs(r-0.47) > 0.01 {
		t.Errorf("r_cut3/r_cut2 = %g, paper quotes ≈ 0.47", r)
	}
	tm := NewTorsionModel(0.3, 2.0, 1.0, 1.0, 2.5, 12.0)
	if tm.MaxN() != 4 {
		t.Errorf("torsion model MaxN = %d", tm.MaxN())
	}
}

func TestSpeciesIndex(t *testing.T) {
	m := NewSilicaModel()
	if i, err := m.SpeciesIndex("O"); err != nil || i != 1 {
		t.Errorf("SpeciesIndex(O) = %d, %v", i, err)
	}
	if _, err := m.SpeciesIndex("Xe"); err == nil {
		t.Error("unknown species accepted")
	}
}
