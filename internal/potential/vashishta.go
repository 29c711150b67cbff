package potential

import (
	"math"

	"sctuple/internal/geom"
)

// CoulombConstant is e²/4πε₀ in eV·Å.
const CoulombConstant = 14.399645

// VashishtaPairParams parameterizes the two-body part of the
// Vashishta potential for one species pair:
//
//	V₂(r) = H/r^η + Z_i Z_j e²/(4πε₀) · exp(-r/λ)/r − D/r⁴ · exp(-r/ξ)
//
// (steric repulsion, screened Coulomb, screened charge-dipole). The
// potential is truncated at Rc and shifted in both energy and force so
// V and V′ vanish continuously at the cutoff.
type VashishtaPairParams struct {
	H      float64 // steric strength (eV·Å^η)
	Eta    float64 // steric exponent
	ZZ     float64 // Z_i·Z_j in e² (multiplied by CoulombConstant internally)
	Lambda float64 // Coulomb screening length (Å)
	D      float64 // charge-dipole strength (eV·Å⁴)
	Xi     float64 // charge-dipole screening length (Å)
}

// VashishtaTripletParams parameterizes the three-body bond-bending
// part for one (end, center, end) species combination:
//
//	V₃ = B · exp(γ/(r_ij−r0) + γ/(r_kj−r0)) · (cosθ − cosθ̄)² / (1 + C(cosθ − cosθ̄)²)
//
// for r_ij, r_kj < r0 (zero otherwise), where j is the central atom
// and θ the angle at j.
type VashishtaTripletParams struct {
	B         float64 // strength (eV)
	CosTheta0 float64 // preferred cosine cosθ̄
	C         float64 // saturation parameter (0 in the 1990 model)
	Gamma     float64 // radial decay (Å)
	R0        float64 // three-body cutoff (Å)
}

// vashishtaPair is the n = 2 term over all species pairs.
type vashishtaPair struct {
	rc     float64
	params [][]VashishtaPairParams // [si][sj], symmetric
	shiftE [][]float64             // V(rc)
	shiftF [][]float64             // V'(rc)
}

// vashishtaTriplet is the n = 3 term; params indexed
// [center][end][end], symmetric in the ends. A zero B disables the
// combination.
type vashishtaTriplet struct {
	r0     float64
	params [][][]VashishtaTripletParams
}

// NewSilicaModel returns the SiO₂ model of Vashishta, Kalia, Rino &
// Ebbsjö, PRB 41, 12197 (1990) — the silica MD application
// benchmarked in the paper (§5). Species 0 is Si, species 1 is O. The
// pair cutoff is 5.5 Å and the three-body cutoff 2.6 Å, giving the
// r_cut3/r_cut2 ≈ 0.47 ratio the paper quotes. Parameter values are
// transcribed from the published form of the model.
func NewSilicaModel() *Model {
	const (
		rc = 5.5 // pair cutoff (Å)
		r0 = 2.6 // triplet cutoff (Å)
	)
	zSi, zO := 1.2, -0.6
	pair := [][]VashishtaPairParams{
		{ // Si-Si, Si-O
			{H: 0.82023, Eta: 11, ZZ: zSi * zSi, Lambda: 4.43, D: 0.0, Xi: 2.5},
			{H: 163.47, Eta: 9, ZZ: zSi * zO, Lambda: 4.43, D: 44.2357, Xi: 2.5},
		},
		{ // O-Si, O-O
			{H: 163.47, Eta: 9, ZZ: zO * zSi, Lambda: 4.43, D: 44.2357, Xi: 2.5},
			{H: 743.848, Eta: 7, ZZ: zO * zO, Lambda: 4.43, D: 22.1179, Xi: 2.5},
		},
	}
	// Three-body terms: O-Si-O bending at the tetrahedral angle
	// (center Si) and Si-O-Si bending at ~141° (center O).
	oSiO := VashishtaTripletParams{B: 4.993, CosTheta0: -1.0 / 3.0, C: 0, Gamma: 1.0, R0: r0}
	siOSi := VashishtaTripletParams{B: 19.972, CosTheta0: math.Cos(141.0 * math.Pi / 180.0), C: 0, Gamma: 1.0, R0: r0}
	trip := make([][][]VashishtaTripletParams, 2)
	for c := range trip {
		trip[c] = make([][]VashishtaTripletParams, 2)
		for a := range trip[c] {
			trip[c][a] = make([]VashishtaTripletParams, 2)
		}
	}
	trip[0][1][1] = oSiO  // center Si, ends O,O
	trip[1][0][0] = siOSi // center O, ends Si,Si

	return &Model{
		Name: "vashishta-sio2-1990",
		Species: []Species{
			{Name: "Si", Mass: 28.0855},
			{Name: "O", Mass: 15.9994},
		},
		Terms: []Term{
			newVashishtaPair(rc, pair),
			&vashishtaTriplet{r0: r0, params: trip},
		},
	}
}

// NewVashishtaPairTerm builds a standalone Vashishta pair term from a
// symmetric parameter table, truncated and force-shifted at rc.
func NewVashishtaPairTerm(rc float64, params [][]VashishtaPairParams) Term {
	return newVashishtaPair(rc, params)
}

// NewVashishtaTripletTerm builds a standalone Vashishta three-body
// term from a [center][end][end] parameter table with common cutoff r0.
func NewVashishtaTripletTerm(r0 float64, params [][][]VashishtaTripletParams) Term {
	return &vashishtaTriplet{r0: r0, params: params}
}

func newVashishtaPair(rc float64, params [][]VashishtaPairParams) *vashishtaPair {
	vp := &vashishtaPair{rc: rc, params: params}
	ns := len(params)
	vp.shiftE = make([][]float64, ns)
	vp.shiftF = make([][]float64, ns)
	for i := 0; i < ns; i++ {
		vp.shiftE[i] = make([]float64, ns)
		vp.shiftF[i] = make([]float64, ns)
		for j := 0; j < ns; j++ {
			e, de := vashishtaPairRaw(params[i][j], rc)
			vp.shiftE[i][j] = e
			vp.shiftF[i][j] = de
		}
	}
	return vp
}

// vashishtaPairRaw returns the unshifted V₂(r) and its derivative.
func vashishtaPairRaw(p VashishtaPairParams, r float64) (v, dv float64) {
	steric := p.H / stericPow(r, p.Eta)
	coul := p.ZZ * CoulombConstant * math.Exp(-r/p.Lambda) / r
	dip := -p.D / (r * r * r * r) * math.Exp(-r/p.Xi)
	v = steric + coul + dip
	dv = -p.Eta*steric/r - coul*(1/r+1/p.Lambda) + dip*(-4/r-1/p.Xi)
	return v, dv
}

// stericPow returns x^y. For the integral exponents of the steric term
// it multiplies the successive squarings of x selected by the bits of
// y, in the order math.Pow does, without its special-case, Modf, Frexp
// and Ldexp work. math.Pow squares the mantissa and keeps the exponent
// apart, but rounding is scale-free while every intermediate is a
// normal float, which the guard on x and y ensures (x^32 stays within
// 2^±960), so the result is bit-identical to math.Pow(x, y). Other
// inputs fall back to math.Pow.
func stericPow(x, y float64) float64 {
	n := int(y)
	if float64(n) != y || n < 1 || n > 16 || x < 0x1p-30 || x > 0x1p30 {
		return math.Pow(x, y)
	}
	a, p := 1.0, x
	for ; n != 0; n >>= 1 {
		if n&1 == 1 {
			a *= p
		}
		p *= p
	}
	return a
}

// N returns 2.
func (vp *vashishtaPair) N() int { return 2 }

// Cutoff returns the pair cutoff.
func (vp *vashishtaPair) Cutoff() float64 { return vp.rc }

// Eval implements Term for the pair (i, j).
func (vp *vashishtaPair) Eval(species []int32, pos []geom.Vec3, f []geom.Vec3) float64 {
	d := pos[0].Sub(pos[1])
	r2 := d.Norm2()
	if r2 >= vp.rc*vp.rc || r2 == 0 {
		return 0
	}
	r := math.Sqrt(r2)
	si, sj := species[0], species[1]
	p := vp.params[si][sj]
	v, dv := vashishtaPairRaw(p, r)
	// Energy-and-force shift: Ṽ(r) = V(r) − V(rc) − (r − rc)·V'(rc).
	e := v - vp.shiftE[si][sj] - (r-vp.rc)*vp.shiftF[si][sj]
	de := dv - vp.shiftF[si][sj]
	fv := d.Scale(-de / r) // F_i = −dṼ/dr · r̂
	f[0] = f[0].Add(fv)
	f[1] = f[1].Sub(fv)
	return e
}

// N returns 3.
func (vt *vashishtaTriplet) N() int { return 3 }

// Cutoff returns the three-body cutoff r0.
func (vt *vashishtaTriplet) Cutoff() float64 { return vt.r0 }

// Eval implements Term for the chain (i, j, k) with central atom j.
func (vt *vashishtaTriplet) Eval(species []int32, pos []geom.Vec3, f []geom.Vec3) float64 {
	p := vt.params[species[1]][species[0]][species[2]]
	if p.B == 0 {
		return 0
	}
	r1 := pos[0].Sub(pos[1]) // r_ij
	r2 := pos[2].Sub(pos[1]) // r_kj
	a := r1.Norm()
	b := r2.Norm()
	if a >= p.R0 || b >= p.R0 || a == 0 || b == 0 {
		return 0
	}
	cosT := r1.Dot(r2) / (a * b)
	delta := cosT - p.CosTheta0
	den := 1 + p.C*delta*delta
	q := delta * delta / den
	radial := p.B * math.Exp(p.Gamma/(a-p.R0)+p.Gamma/(b-p.R0))
	e := radial * q

	dPda := -radial * p.Gamma / ((a - p.R0) * (a - p.R0))
	dPdb := -radial * p.Gamma / ((b - p.R0) * (b - p.R0))
	dQdc := 2 * delta / (den * den)

	// ∇_i cosθ = r2/(ab) − cosθ·r1/a² ; ∇_k symmetric.
	gradICos := r2.Scale(1 / (a * b)).Sub(r1.Scale(cosT / (a * a)))
	gradKCos := r1.Scale(1 / (a * b)).Sub(r2.Scale(cosT / (b * b)))

	fi := r1.Scale(dPda * q / a).Add(gradICos.Scale(radial * dQdc)).Neg()
	fk := r2.Scale(dPdb * q / b).Add(gradKCos.Scale(radial * dQdc)).Neg()
	f[0] = f[0].Add(fi)
	f[2] = f[2].Add(fk)
	f[1] = f[1].Sub(fi.Add(fk)) // momentum conservation
	return e
}
