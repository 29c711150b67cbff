// Package potential implements the many-body interatomic potentials
// used by the MD engine: the n-body terms Φn of Eq. 2 in the paper.
//
// Each Term evaluates one n-body contribution per tuple, following the
// chain semantics of the tuple enumerator: a tuple (r0,…,r(n-1)) is a
// chain whose consecutive members lie within the term's link cutoff
// (Eq. 6). Pair terms see (i,j); three-body terms see (i,j,k) with j
// the central atom (both links attach to j); four-body terms see the
// dihedral chain (i,j,k,l).
//
// Terms return the tuple energy and accumulate forces on every tuple
// member simultaneously (Eq. 4), so Newton's third law holds exactly:
// the forces of one tuple always sum to zero.
//
// The package provides:
//
//   - LennardJones — classic pair fluid, for quickstarts and tests.
//   - Vashishta — the Vashishta-Rahman-Kalia 2+3-body silica model
//     (Vashishta et al., PRB 41, 12197 (1990)), the paper's benchmark
//     application, with r_cut3/r_cut2 ≈ 0.47.
//   - StillingerWeber — 2+3-body silicon.
//   - Torsion — a 4-body dihedral toy exercising n = 4 paths.
//
// Units: Å for length, eV for energy, amu for mass, and the derived
// time unit with fs conversions handled by package md.
package potential

import (
	"fmt"

	"sctuple/internal/geom"
)

// Term is one n-body potential term Φn.
type Term interface {
	// N returns the tuple length of the term (2 for pair terms, …).
	N() int
	// Cutoff returns the link cutoff r_cut-n applied between
	// consecutive tuple members during enumeration.
	Cutoff() float64
	// Eval returns the energy of one tuple and adds the forces on its
	// members into f (f has length N, parallel to pos). pos holds
	// image-resolved positions: consecutive members are geometrically
	// adjacent, so plain differences are correct displacements.
	// species holds the model species index of each member.
	Eval(species []int32, pos []geom.Vec3, f []geom.Vec3) float64
}

// SpeciesLinker is implemented by terms whose tuples vanish unless
// every consecutive pair of members has an admitted species pair. A
// tuple search may then drop a chain at its first inadmissible link:
// Eval of any tuple containing one returns exactly 0 and leaves f
// untouched.
type SpeciesLinker interface {
	// SpeciesLinks returns the symmetric n_s × n_s link table: entry
	// [a][b] admits a link between species a and b when some tuple with
	// a nonzero contribution has it as a link at some position. It is
	// nil when every pair is admitted.
	SpeciesLinks() [][]bool
}

// SpeciesLinks returns the link table of a term (see SpeciesLinker),
// or nil when the term declares none or admits every pair.
func SpeciesLinks(t Term) [][]bool {
	if l, ok := t.(SpeciesLinker); ok {
		return l.SpeciesLinks()
	}
	return nil
}

// WithoutLinks returns a model with m's species and terms in which no
// term declares a link table, so every search over it is purely
// geometric: the force set and search counts of the paper's Eq. 12,
// for sites that count tuples rather than evaluate them. Energies and
// forces are m's.
func WithoutLinks(m *Model) *Model {
	g := &Model{Name: m.Name, Species: m.Species}
	for _, t := range m.Terms {
		g.Terms = append(g.Terms, geometricTerm{t})
	}
	return g
}

// geometricTerm promotes only the Term methods of the term it wraps,
// hiding any SpeciesLinks.
type geometricTerm struct{ Term }

// Species describes one atom type of a model.
type Species struct {
	Name string
	Mass float64 // amu
}

// Model bundles the species table and the n-body terms of a force
// field. MaxN and MaxCutoff drive cell-lattice sizing.
type Model struct {
	Name    string
	Species []Species
	Terms   []Term
}

// MaxN returns the largest tuple length among the terms.
func (m *Model) MaxN() int {
	n := 0
	for _, t := range m.Terms {
		if t.N() > n {
			n = t.N()
		}
	}
	return n
}

// MaxCutoff returns the largest link cutoff among the terms, the
// minimum cell side for a single shared cell lattice.
func (m *Model) MaxCutoff() float64 {
	c := 0.0
	for _, t := range m.Terms {
		if t.Cutoff() > c {
			c = t.Cutoff()
		}
	}
	return c
}

// SpeciesIndex returns the index of the named species, or an error.
func (m *Model) SpeciesIndex(name string) (int32, error) {
	for i, s := range m.Species {
		if s.Name == name {
			return int32(i), nil
		}
	}
	return 0, fmt.Errorf("potential: model %q has no species %q", m.Name, name)
}

// Validate checks structural sanity of the model.
func (m *Model) Validate() error {
	if len(m.Species) == 0 {
		return fmt.Errorf("potential: model %q has no species", m.Name)
	}
	for _, s := range m.Species {
		if !(s.Mass > 0) {
			return fmt.Errorf("potential: species %q has non-positive mass", s.Name)
		}
	}
	if len(m.Terms) == 0 {
		return fmt.Errorf("potential: model %q has no terms", m.Name)
	}
	for _, t := range m.Terms {
		if t.N() < 2 {
			return fmt.Errorf("potential: term with n=%d < 2", t.N())
		}
		if !(t.Cutoff() > 0) {
			return fmt.Errorf("potential: term with non-positive cutoff")
		}
	}
	return nil
}

// NumericalForces computes -∂E/∂r for one tuple by central differences
// of a Term's energy, for verifying analytic forces in tests. h is the
// displacement step (1e-5 Å is a good default).
func NumericalForces(t Term, species []int32, pos []geom.Vec3, h float64) []geom.Vec3 {
	n := len(pos)
	f := make([]geom.Vec3, n)
	work := make([]geom.Vec3, n)
	sink := make([]geom.Vec3, n)
	energy := func() float64 {
		for i := range sink {
			sink[i] = geom.Vec3{}
		}
		return t.Eval(species, work, sink)
	}
	for i := 0; i < n; i++ {
		for c := 0; c < 3; c++ {
			copy(work, pos)
			work[i].SetComp(c, pos[i].Comp(c)+h)
			ep := energy()
			copy(work, pos)
			work[i].SetComp(c, pos[i].Comp(c)-h)
			em := energy()
			f[i].SetComp(c, -(ep-em)/(2*h))
		}
	}
	return f
}
