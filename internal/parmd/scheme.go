package parmd

import (
	"fmt"
	"math"

	"sctuple/internal/cell"
	"sctuple/internal/comm"
	"sctuple/internal/geom"
	"sctuple/internal/potential"
)

// Scheme selects which of the paper's three parallel codes a run uses.
type Scheme int

// The three codes benchmarked in §5.
const (
	// SchemeSC is SC-MD: shift-collapse patterns, octant import from 7
	// neighbor ranks in 3 forwarded communication steps.
	SchemeSC Scheme = iota
	// SchemeFS is FS-MD: full-shell patterns, 26-neighbor import.
	SchemeFS
	// SchemeHybrid is Hybrid-MD: full-shell pair search building a
	// Verlet pair list; triplets pruned from the list. 26-neighbor
	// import.
	SchemeHybrid
)

// String names the scheme as the paper does.
func (s Scheme) String() string {
	switch s {
	case SchemeSC:
		return "SC-MD"
	case SchemeFS:
		return "FS-MD"
	case SchemeHybrid:
		return "Hybrid-MD"
	}
	return "?"
}

// Schemes lists all three codes, in the paper's plotting order.
func Schemes() []Scheme { return []Scheme{SchemeSC, SchemeFS, SchemeHybrid} }

// haloReach returns the halo thickness (in cells) a model's terms
// physically require on a lattice with the given minimum cell side: a
// chain of n-1 links each below r_cut-n extends at most (n-1)·r_cut-n
// along an axis, never past ceil of that over the cell side (and never
// past the pattern reach n-1). This is the slab thickness actually
// imported — e.g. one cell for the silica model (r_cut3 < r_cut2, §5),
// even though the n = 3 pattern formally spans two cells.
func haloReach(model *potential.Model, side float64) int {
	t := 0
	for _, term := range model.Terms {
		span := float64(term.N()-1) * term.Cutoff()
		k := int(math.Ceil(span/side - 1e-12))
		if k > term.N()-1 {
			k = term.N() - 1
		}
		if k < 1 {
			k = 1
		}
		if k > t {
			t = k
		}
	}
	return t
}

// skin returns the Verlet skin s (Å) of a scheme's tuple lists on a
// lattice of minimum pair-cell side: the largest value that changes no
// cell count, sub-cell count or halo margin the scheme already uses
// (DESIGN.md §5.21). Every SC/FS term searches sub-cells of side
// side/k ≥ r_cut + s (k from subCells), and SC's chains of n−1 links
// must stay inside its haloReach slab; Hybrid-MD fills its rows over
// whole pair cells at r_cut2 + s and prunes triplets from them. The
// result is shaved by a millionth so the skinned cutoff never lands on
// a cell side through rounding; it is 0 when a cutoff fills its cell
// exactly, which rebuilds the lists on every step that moves an atom.
func (s Scheme) skin(model *potential.Model, side float64) float64 {
	sk := math.Inf(1)
	t := float64(haloReach(model, side))
	for _, term := range model.Terms {
		rc := term.Cutoff()
		switch s {
		case SchemeHybrid:
			if term.N() == 2 {
				sk = math.Min(sk, side-rc)
			}
		default:
			k := float64(max(1, int(side/rc)))
			sk = math.Min(sk, side/k-rc)
			if s == SchemeSC {
				sk = math.Min(sk, t*side/float64(term.N()-1)-rc)
			}
		}
	}
	return math.Max(0, sk*(1-1e-6))
}

// margins returns the halo margin (in cells) on the low and high side
// of every axis for a scheme.
//
// SC-MD imports only the upper-corner octant (owner-compute relaxed,
// §4.2), restricted to the physically reachable slab — one cell for
// the silica workload, since r_cut3 < r_cut2/2 keeps triplet chains
// inside the first neighbor cell layer.
//
// FS-MD imports the full coverage of its uncollapsed pattern: a shell
// of thickness n_max − 1 on every side ((l+2(n-1))³ − l³, §4.3.1 and
// Eq. 33's full-shell counterpart), exactly as the production code
// does; and per §5, Hybrid-MD inherits FS-MD's import volume
// unchanged — the pair list trims its triplet search, not its halo.
func (s Scheme) margins(model *potential.Model, side float64) (lo, hi int, err error) {
	switch s {
	case SchemeSC:
		t := haloReach(model, side)
		return 0, t, nil
	case SchemeFS, SchemeHybrid:
		t := model.MaxN() - 1
		return t, t, nil
	}
	return 0, 0, fmt.Errorf("parmd: unknown scheme %d", s)
}

// minLatticeCells is the fewest global cells per axis a model's run
// accepts: a chain of n atoms must never close onto a periodic image of
// its own first atom, so every axis needs at least max(3, n_max) cells.
func minLatticeCells(model *potential.Model) int {
	return max(3, model.MaxN())
}

// lattice returns the global cell lattice a scheme decomposes box into
// over the process grid cart. FS-MD and Hybrid-MD take the densest
// lattice of cells no thinner than the model's largest cutoff, as the
// serial engines do. SC-MD gives every rank an equal block of cells, as
// the paper's per-processor domain of l×l×l cells does (§3.1.3;
// DESIGN.md §5.22):
//
//  1. on every axis split over P_a > 1 ranks, the cell count rounds
//     down to a multiple of P_a;
//  2. every axis then takes the largest multiple of P_a cells that are
//     at least as thick as the thickest cell left by step 1, because
//     the skin is set by the thinnest cell (Scheme.skin);
//  3. a step never takes an axis below minLatticeCells or below P_a
//     halo slabs; such an axis keeps the count it had.
//
// FS and Hybrid import a two-cell full shell on every face, so their
// halo grows with the cell side; SC's one-cell octant grows much less.
func (s Scheme) lattice(box geom.Box, model *potential.Model, cart comm.Cart) (cell.Lattice, error) {
	lat, err := cell.NewLattice(box, model.MaxCutoff())
	if err != nil || s != SchemeSC {
		return lat, err
	}
	// Sides only grow below, and the halo slab only thins with them, so
	// the densest lattice's reach is a safe floor for every result.
	halo := haloReach(model, minSide(lat.Side))
	floor := func(axis int) int {
		return max(minLatticeCells(model), cart.Dims.Comp(axis)*halo)
	}
	dims := lat.Dims
	for axis := 0; axis < 3; axis++ {
		p := cart.Dims.Comp(axis)
		if n := dims.Comp(axis) / p * p; p > 1 && n >= floor(axis) {
			dims.SetComp(axis, n)
		}
	}
	thick := 0.0
	for axis := 0; axis < 3; axis++ {
		thick = max(thick, box.L.Comp(axis)/float64(dims.Comp(axis)))
	}
	for axis := 0; axis < 3; axis++ {
		p, l := cart.Dims.Comp(axis), box.L.Comp(axis)
		n := dims.Comp(axis) / p * p
		// The relative slack keeps an axis of the thickest cell's own
		// length from losing a cell to rounding in l/n.
		for n >= p && l/float64(n) < thick*(1-1e-12) {
			n -= p
		}
		if n >= floor(axis) && n < dims.Comp(axis) {
			dims.SetComp(axis, n)
		}
	}
	return cell.NewLatticeDims(box, dims)
}
