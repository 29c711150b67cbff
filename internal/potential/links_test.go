package potential

import (
	"math"
	"math/rand"
	"testing"

	"sctuple/internal/geom"
)

// linkModels lists every model constructor of the package.
func linkModels() []*Model {
	return []*Model{
		NewSilicaModel(),
		NewStillingerWeberModel(SiliconSW(), 28.0855),
		NewLJModel(1, 1, 2.5, 1),
		NewTorsionModel(0.05, 1.8, 0.02, 1.0, 2.5, 12.0),
	}
}

// TestSpeciesLinksSound: for every term that declares a link table,
// every species tuple with a masked link evaluates to exactly zero and
// leaves its force buffer untouched, over random in-cutoff chains; the
// table is symmetric, and every admitted combination is reachable by
// some nonzero tuple (the table is not merely empty).
func TestSpeciesLinksSound(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	declared := 0
	for _, m := range linkModels() {
		ns := len(m.Species)
		for ti, term := range m.Terms {
			links := SpeciesLinks(term)
			if links == nil {
				continue
			}
			declared++
			if len(links) != ns {
				t.Fatalf("%s term %d: %d table rows for %d species", m.Name, ti, len(links), ns)
			}
			for a := range links {
				for b := range links {
					if links[a][b] != links[b][a] {
						t.Fatalf("%s term %d: table not symmetric at [%d][%d]", m.Name, ti, a, b)
					}
				}
			}
			n := term.N()
			species := make([]int32, n)
			pos := make([]geom.Vec3, n)
			f := make([]geom.Vec3, n)
			nonzero := make([][]bool, ns)
			for a := range nonzero {
				nonzero[a] = make([]bool, ns)
			}
			for code := 0; code < int(math.Pow(float64(ns), float64(n))); code++ {
				for k, c := 0, code; k < n; k, c = k+1, c/ns {
					species[k] = int32(c % ns)
				}
				masked := false
				for k := 1; k < n; k++ {
					masked = masked || !links[species[k-1]][species[k]]
				}
				for trial := 0; trial < 300; trial++ {
					pos[0] = geom.V(rng.Float64(), rng.Float64(), rng.Float64())
					for k := 1; k < n; k++ {
						dir := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Normalized()
						pos[k] = pos[k-1].Add(dir.Scale(term.Cutoff() * (0.3 + 0.69*rng.Float64())))
					}
					for k := range f {
						f[k] = geom.V(1.5, -2.5, 3.5)
					}
					e := term.Eval(species, pos, f)
					if !masked {
						if e != 0 {
							for k := 1; k < n; k++ {
								nonzero[species[k-1]][species[k]] = true
							}
						}
						continue
					}
					if math.Float64bits(e) != 0 {
						t.Fatalf("%s term %d species %v: masked tuple energy %v, want +0", m.Name, ti, species, e)
					}
					for k := range f {
						if f[k] != geom.V(1.5, -2.5, 3.5) {
							t.Fatalf("%s term %d species %v: masked tuple wrote force %v", m.Name, ti, species, f[k])
						}
					}
				}
			}
			for a := range links {
				for b := range links {
					if links[a][b] && !nonzero[a][b] {
						t.Errorf("%s term %d: admitted link %d–%d in no nonzero tuple", m.Name, ti, a, b)
					}
				}
			}
		}
	}
	if declared == 0 {
		t.Fatal("no term declares a link table")
	}
}

// TestSilicaSpeciesLinks: the silica bond-bending term admits Si–O
// links only, and its pair term and the single-species and
// species-blind models declare no table.
func TestSilicaSpeciesLinks(t *testing.T) {
	m := NewSilicaModel()
	si, _ := m.SpeciesIndex("Si")
	o, _ := m.SpeciesIndex("O")
	links := SpeciesLinks(m.Terms[1])
	if links == nil {
		t.Fatal("silica triplet term declares no link table")
	}
	want := map[[2]int32]bool{{si, si}: false, {si, o}: true, {o, si}: true, {o, o}: false}
	for pair, ok := range want {
		if links[pair[0]][pair[1]] != ok {
			t.Errorf("link %s–%s admitted = %v, want %v",
				m.Species[pair[0]].Name, m.Species[pair[1]].Name, links[pair[0]][pair[1]], ok)
		}
	}
	if SpeciesLinks(m.Terms[0]) != nil {
		t.Error("silica pair term declares a link table")
	}
	for _, other := range linkModels()[1:] {
		for ti, term := range other.Terms {
			if SpeciesLinks(term) != nil {
				t.Errorf("%s term %d declares a link table; it admits every pair", other.Name, ti)
			}
		}
	}
}

// TestWithoutLinks: the geometric copy of a model declares no link
// table and evaluates every tuple to the same bits.
func TestWithoutLinks(t *testing.T) {
	m := NewSilicaModel()
	g := WithoutLinks(m)
	if len(g.Terms) != len(m.Terms) || len(g.Species) != len(m.Species) {
		t.Fatalf("geometric copy has %d terms and %d species", len(g.Terms), len(g.Species))
	}
	pos := []geom.Vec3{{}, geom.V(1.6, 0, 0), geom.V(1.9, 1.2, 0.3)}
	for ti, term := range g.Terms {
		if SpeciesLinks(term) != nil {
			t.Errorf("term %d still declares a link table", ti)
		}
		n := term.N()
		sp := []int32{1, 0, 1}[:n]
		f, h := make([]geom.Vec3, n), make([]geom.Vec3, n)
		if e, want := term.Eval(sp, pos[:n], f), m.Terms[ti].Eval(sp, pos[:n], h); math.Float64bits(e) != math.Float64bits(want) || e == 0 {
			t.Errorf("term %d: energy %v, original %v", ti, e, want)
		}
		for k := range f {
			if f[k] != h[k] {
				t.Errorf("term %d atom %d: force %v, original %v", ti, k, f[k], h[k])
			}
		}
	}
}

// TestVashishtaPairRawSkipsZeroDipole: skipping the charge-dipole term
// when D = 0 is bit-identical to evaluating it, for every species pair
// of the silica model over random r inside the cutoff and at it.
func TestVashishtaPairRawSkipsZeroDipole(t *testing.T) {
	full := func(p VashishtaPairParams, r float64) (v, dv float64) {
		steric := p.H / stericPow(r, p.Eta)
		coul := p.ZZ * CoulombConstant * math.Exp(-r/p.Lambda) / r
		dip := -p.D / (r * r * r * r) * math.Exp(-r/p.Xi)
		v = steric + coul + dip
		dv = -p.Eta*steric/r - coul*(1/r+1/p.Lambda) + dip*(-4/r-1/p.Xi)
		return v, dv
	}
	vp := NewSilicaModel().Terms[0].(*vashishtaPair)
	rng := rand.New(rand.NewSource(9))
	zeroD := 0
	for a, row := range vp.params {
		for b, p := range row {
			if p.D == 0 {
				zeroD++
			}
			for k := 0; k <= 100000; k++ {
				r := 0.5 + (vp.rc-0.5)*rng.Float64()
				if k == 0 {
					r = vp.rc
				}
				v, dv := vashishtaPairRaw(p, r)
				wv, wdv := full(p, r)
				if math.Float64bits(v) != math.Float64bits(wv) || math.Float64bits(dv) != math.Float64bits(wdv) {
					t.Fatalf("pair %d-%d r=%v: (%v, %v), full expression (%v, %v)", a, b, r, v, dv, wv, wdv)
				}
			}
		}
	}
	if zeroD == 0 {
		t.Fatal("no silica pair has D = 0; the shortcut is untested")
	}
}
