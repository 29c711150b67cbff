// Package tuple implements the uniform-cell-pattern (UCP) n-tuple
// enumeration engine (paper Table 1): given a binned atom
// configuration, a computation pattern, and an interaction cutoff, it
// streams every range-limited n-tuple of the force set to a visitor
// callback.
//
// The engine realizes Eq. 9-10: for every cell q of the domain and
// every path p = (v0,…,v(n-1)) of the pattern it enumerates tuples
// whose k-th atom lies in cell c(q+v(k)), pruning chains whose
// consecutive interatomic distances exceed the cutoff (the filtering
// from the bounding force set S(n) down to Γ*(n)). Periodic wrapping
// is handled by resolving each offset cell to its wrapped image plus a
// real-space image shift, so all distances are plain Euclidean
// distances of the selected images — no minimum-image search inside
// the hot loop.
//
// Reflective redundancy is handled according to the pattern kind:
//
//   - A collapsed pattern (SC, HS, ES) generates each undirected tuple
//     at most once per orientation, except through self-reflective
//     (palindromic) paths, which generate both orientations at the
//     same cell; those are filtered by requiring the first atom's
//     index to be below the last atom's (DedupPalindromic).
//   - An uncollapsed pattern (FS) generates both orientations of every
//     tuple; DedupCanonical keeps the orientation with the smaller
//     first-atom index, reproducing the extra filtering work that the
//     paper charges to FS-MD.
//   - DedupNone emits everything, for measuring raw force-set sizes
//     (paper Fig. 7).
package tuple

import (
	"fmt"
	"slices"

	"sctuple/internal/cell"
	"sctuple/internal/core"
	"sctuple/internal/geom"
)

// MaxN is the largest tuple length the engine supports. ReaxFF-style
// force fields need up to n = 6 (§1); 8 leaves headroom.
const MaxN = 8

// Dedup selects the reflection-deduplication policy of an enumeration.
type Dedup int

const (
	// DedupAuto picks DedupPalindromic for collapsed patterns and
	// DedupCanonical otherwise, by inspecting pattern redundancy once
	// at construction.
	DedupAuto Dedup = iota
	// DedupPalindromic filters the duplicate orientation produced by
	// self-reflective paths only. Correct for collapsed patterns.
	DedupPalindromic
	// DedupCanonical keeps a tuple only when its first atom index is
	// below its last, discarding the mirror orientation wherever it
	// was produced. Correct for patterns that generate both
	// orientations of every tuple (e.g. full shell).
	DedupCanonical
	// DedupNone emits every generated tuple, duplicates included.
	DedupNone
)

// String names the policy.
func (d Dedup) String() string {
	switch d {
	case DedupAuto:
		return "auto"
	case DedupPalindromic:
		return "palindromic"
	case DedupCanonical:
		return "canonical"
	case DedupNone:
		return "none"
	}
	return "unknown"
}

// Stats accumulates the operation counts of an enumeration. The search
// cost of the paper's Eq. 12 corresponds to Candidates: the number of
// partial-chain extensions the engine examined.
type Stats struct {
	Cells            int   // cells visited
	PathApplications int64 // (cell, path) combinations processed
	Candidates       int64 // partial chains extended (search cost)
	DistancePruned   int64 // chains cut by the consecutive-distance test
	DuplicateAtom    int64 // chains cut because an atom repeated
	ReflectionCut    int64 // tuples cut by the dedup policy
	Emitted          int64 // tuples delivered to the visitor
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Cells += other.Cells
	s.PathApplications += other.PathApplications
	s.Candidates += other.Candidates
	s.DistancePruned += other.DistancePruned
	s.DuplicateAtom += other.DuplicateAtom
	s.ReflectionCut += other.ReflectionCut
	s.Emitted += other.Emitted
}

// String summarizes the counters.
func (s Stats) String() string {
	return fmt.Sprintf("cells=%d paths=%d candidates=%d emitted=%d (dist-pruned=%d dup=%d refl=%d)",
		s.Cells, s.PathApplications, s.Candidates, s.Emitted,
		s.DistancePruned, s.DuplicateAtom, s.ReflectionCut)
}

// Visitor receives one n-tuple per call: the global atom indices and
// the image-resolved positions of each tuple member (consecutive
// members are geometrically adjacent; positions may lie outside the
// primary box image). Both slices are reused across calls — copy them
// to retain.
type Visitor func(atoms []int32, pos []geom.Vec3)

// Enumerator streams the force set of one pattern over a binned
// configuration. Construct with NewEnumerator; an Enumerator is
// stateful scratch and must not be shared between goroutines, but
// many Enumerators may share the same Binning.
type Enumerator struct {
	bin     *cell.Binning
	pattern *core.Pattern
	cutoff2 float64
	dedup   Dedup
	n       int
	bounded bool
	keys    []int64

	// palindromic[i] reports whether pattern path i is self-reflective.
	palindromic []bool

	// Per-anchor cell resolution. cellOff lists the pattern's distinct
	// cell offsets (its coverage) and pathCell[i*n+k] indexes level k
	// of path i into it. VisitCell resolves every covered cell once per
	// anchor — storage range and image shift — and each path then reads
	// the resolved table: SC(3) visits 27 cells through 378 paths, so
	// resolving per path would wrap the same cells fourteen times over.
	cellOff  []geom.IVec3
	pathCell []int32
	// pathSkip[i*n+k] is the first path after i whose cells up to level
	// k differ from path i's: when level k of path i resolves empty, so
	// does level k of every path in between (patterns are sorted, so
	// paths sharing a prefix are contiguous and skip as one block).
	pathSkip []int32
	resLo    []int32 // per covered cell: span or CSR range start
	resHi    []int32 // per covered cell: range end (== resLo when empty)
	resShift []geom.Vec3

	// Chain scratch reused across cells and calls. Each level resolves
	// to a range [spanLo, spanHi): of storage slots walked directly for
	// span binnings — the indirection-free inner loop of the cell-sorted
	// SoA layout — or of the CSR atom-index array.
	atoms  [MaxN]int32
	pos    [MaxN]geom.Vec3
	spanLo [MaxN]int32
	spanHi [MaxN]int32
	shifts [MaxN]geom.Vec3
}

// NewEnumerator builds an enumerator for the given binning, pattern,
// and link cutoff (the r_cut-n of Eq. 6, applied between consecutive
// tuple members). It returns an error if the cutoff exceeds a cell
// side (tuple chains could then hop beyond nearest-neighbor cells) or
// if the lattice is too small for the pattern's span (offsets would
// alias and tuples would be double counted).
func NewEnumerator(bin *cell.Binning, pattern *core.Pattern, cutoff float64, dedup Dedup) (*Enumerator, error) {
	if err := checkReach(bin.Lat, pattern, cutoff); err != nil {
		return nil, err
	}
	lo, hi := pattern.BoundingBox()
	span := hi.Sub(lo).Max(geom.IVec3{})
	// A pattern spanning s cells needs ≥ s+1 cells per direction so
	// that distinct offsets of one path always address distinct
	// wrapped cells (an offset pair differing by a multiple of the
	// lattice dimension would otherwise alias, and the duplicate-atom
	// check would wrongly reject an atom interacting with its own
	// periodic image). The floor of 3 is the usual cell-method
	// requirement that at most one periodic image of any chain fits
	// within the cutoff.
	need := max(3, max(span.X, max(span.Y, span.Z))+1)
	if !bin.Lat.MinSpanOK(need) {
		return nil, fmt.Errorf("tuple: lattice %v too small for pattern span %v (need ≥ %d cells per side)",
			bin.Lat.Dims, span, need)
	}
	return newEnumerator(bin, pattern, cutoff, dedup, false), nil
}

// NewBoundedEnumerator builds an enumerator over a non-periodic
// lattice: offset cells outside [0, Dims) are treated as empty instead
// of wrapping. This is the rank-local mode of parallel MD, where each
// rank enumerates over its owned cell block plus an imported halo
// margin; periodicity is handled by the importer, which ships halo
// atoms already shifted into the local frame. No lattice-span check is
// needed (aliasing cannot occur without wrapping).
func NewBoundedEnumerator(bin *cell.Binning, pattern *core.Pattern, cutoff float64, dedup Dedup) (*Enumerator, error) {
	if err := checkReach(bin.Lat, pattern, cutoff); err != nil {
		return nil, err
	}
	return newEnumerator(bin, pattern, cutoff, dedup, true), nil
}

// checkReach validates the tuple length and that the cutoff fits the
// pattern's per-step cell reach.
func checkReach(lat cell.Lattice, pattern *core.Pattern, cutoff float64) error {
	if pattern.N() > MaxN {
		return fmt.Errorf("tuple: n=%d exceeds MaxN=%d", pattern.N(), MaxN)
	}
	radius := float64(pattern.StepRadius())
	if cutoff > radius*lat.Side.X || cutoff > radius*lat.Side.Y || cutoff > radius*lat.Side.Z {
		return fmt.Errorf("tuple: cutoff %g exceeds pattern reach (step radius %g × cell side %v)",
			cutoff, radius, lat.Side)
	}
	return nil
}

// newEnumerator resolves the dedup policy and compiles the pattern
// into its covered-cell table and per-path indices.
func newEnumerator(bin *cell.Binning, pattern *core.Pattern, cutoff float64, dedup Dedup, bounded bool) *Enumerator {
	if dedup == DedupAuto {
		if pattern.RedundancyCount() == 0 {
			dedup = DedupPalindromic
		} else {
			dedup = DedupCanonical
		}
	}
	e := &Enumerator{
		bin:         bin,
		pattern:     pattern,
		cutoff2:     cutoff * cutoff,
		dedup:       dedup,
		n:           pattern.N(),
		bounded:     bounded,
		palindromic: make([]bool, pattern.Len()),
		pathCell:    make([]int32, 0, pattern.Len()*pattern.N()),
	}
	index := make(map[geom.IVec3]int32)
	for i, p := range pattern.Paths() {
		e.palindromic[i] = p.IsSelfReflective()
		for _, v := range p {
			c, ok := index[v]
			if !ok {
				c = int32(len(e.cellOff))
				index[v] = c
				e.cellOff = append(e.cellOff, v)
			}
			e.pathCell = append(e.pathCell, c)
		}
	}
	n := e.n
	e.pathSkip = make([]int32, len(e.pathCell))
	for i := pattern.Len() - 1; i >= 0; i-- {
		for k := 0; k < n; k++ {
			j := i + 1
			// Path i+1 shares path i's prefix up to level k: it skips to
			// where path i+1 would.
			if j < pattern.Len() && slices.Equal(e.pathCell[j*n:j*n+k+1], e.pathCell[i*n:i*n+k+1]) {
				e.pathSkip[i*n+k] = e.pathSkip[j*n+k]
			} else {
				e.pathSkip[i*n+k] = int32(j)
			}
		}
	}
	e.resLo = make([]int32, len(e.cellOff))
	e.resHi = make([]int32, len(e.cellOff))
	e.resShift = make([]geom.Vec3, len(e.cellOff))
	return e
}

// SetKeys installs a per-atom ordering key used by the reflection
// dedup policies in place of the raw atom index. Parallel runs pass
// global atom IDs here so that the canonical-orientation choice is
// identical on every rank regardless of local index assignment. Pass
// nil to revert to local indices.
func (e *Enumerator) SetKeys(keys []int64) { e.keys = keys }

// keyOf returns the dedup ordering key of local atom index a.
func (e *Enumerator) keyOf(a int32) int64 {
	if e.keys != nil {
		return e.keys[a]
	}
	return int64(a)
}

// N returns the tuple length.
func (e *Enumerator) N() int { return e.n }

// Pattern returns the pattern being enumerated.
func (e *Enumerator) Pattern() *core.Pattern { return e.pattern }

// Dedup returns the resolved deduplication policy.
func (e *Enumerator) Dedup() Dedup { return e.dedup }

// Visit streams every tuple anchored at any cell of the full lattice.
func (e *Enumerator) Visit(positions []geom.Vec3, fn Visitor) Stats {
	var st Stats
	e.VisitInto(positions, fn, &st)
	return st
}

// VisitInto is Visit accumulating into a caller-held Stats, so one
// counter block can gather several enumerations (e.g. every term of a
// model into one kernel accumulation slot) without intermediate
// copies.
func (e *Enumerator) VisitInto(positions []geom.Vec3, fn Visitor, st *Stats) {
	dims := e.bin.Lat.Dims
	for x := 0; x < dims.X; x++ {
		for y := 0; y < dims.Y; y++ {
			for z := 0; z < dims.Z; z++ {
				e.VisitCell(geom.IV(x, y, z), positions, fn, st)
			}
		}
	}
}

// VisitCells streams tuples anchored at the given cells only (the Ω of
// one processor in parallel runs).
func (e *Enumerator) VisitCells(cells []geom.IVec3, positions []geom.Vec3, fn Visitor) Stats {
	var st Stats
	e.VisitCellsInto(cells, positions, fn, &st)
	return st
}

// VisitCellsInto is VisitCells accumulating into a caller-held Stats.
func (e *Enumerator) VisitCellsInto(cells []geom.IVec3, positions []geom.Vec3, fn Visitor, st *Stats) {
	for _, q := range cells {
		e.VisitCell(q, positions, fn, st)
	}
}

// VisitCell streams the cell search-space S_cell(c(q), Ψ) of Eq. 10:
// all tuples of all paths anchored at cell q, accumulating counters
// into st. Paths are applied in pattern order, so the emission
// sequence is that of resolving each path's cells on its own; only
// the resolution is shared.
func (e *Enumerator) VisitCell(q geom.IVec3, positions []geom.Vec3, fn Visitor, st *Stats) {
	st.Cells++
	st.PathApplications += int64(len(e.palindromic))
	if !e.resolve(q) {
		return
	}
	n := e.n
	for pi := 0; pi < len(e.palindromic); {
		cells := e.pathCell[pi*n : pi*n+n]
		empty := -1
		for k, c := range cells {
			if e.resLo[c] == e.resHi[c] {
				empty = k
				break
			}
		}
		if empty >= 0 {
			pi = int(e.pathSkip[pi*n+empty])
			continue
		}
		for k, c := range cells {
			e.spanLo[k], e.spanHi[k] = e.resLo[c], e.resHi[c]
		}
		if !e.bounded { // bounded shifts stay zero
			for k, c := range cells {
				e.shifts[k] = e.resShift[c]
			}
		}
		if e.bin.Spans() {
			e.extendSpan(0, pi, positions, fn, st)
		} else {
			e.extend(0, pi, e.bin.Atoms, positions, fn, st)
		}
		pi++
	}
}

// resolve fills the covered-cell table for anchor q: each cell's
// storage range (a span, or a range of the CSR atom array) and image
// shift. In bounded mode out-of-lattice cells are empty and shifts
// stay zero (the importer pre-shifted halo atoms). It reports whether
// any covered cell holds atoms.
func (e *Enumerator) resolve(q geom.IVec3) bool {
	lat := e.bin.Lat
	spans := e.bin.Spans()
	occupied := false
	for c, v := range e.cellOff {
		cq := q.Add(v)
		var li int
		if e.bounded {
			if !cq.InBox(lat.Dims) {
				e.resLo[c], e.resHi[c] = 0, 0
				continue
			}
			li = lat.Linear(cq)
		} else {
			li = lat.Linear(lat.WrapCell(cq))
			e.resShift[c] = lat.ImageShift(cq)
		}
		if spans {
			e.resLo[c], e.resHi[c] = e.bin.CellSpan(li)
		} else {
			e.resLo[c], e.resHi[c] = e.bin.Start[li], e.bin.Start[li+1]
		}
		if e.resLo[c] != e.resHi[c] {
			occupied = true
		}
	}
	return occupied
}

// extend grows the chain at level k by every atom of the k-th cell
// list — the CSR atom indices csr[spanLo[k]:spanHi[k]] — pruning on
// duplicate atoms and on the consecutive-distance cutoff, and emits
// completed chains.
func (e *Enumerator) extend(k, pi int, csr []int32, positions []geom.Vec3, fn Visitor, st *Stats) {
	for _, ai := range csr[e.spanLo[k]:e.spanHi[k]] {
		st.Candidates++
		dup := false
		for j := 0; j < k; j++ {
			if e.atoms[j] == ai {
				dup = true
				break
			}
		}
		if dup {
			st.DuplicateAtom++
			continue
		}
		r := positions[ai].Add(e.shifts[k])
		if k > 0 {
			d := r.Sub(e.pos[k-1])
			if d.Norm2() >= e.cutoff2 {
				st.DistancePruned++
				continue
			}
		}
		e.atoms[k] = ai
		e.pos[k] = r
		if k+1 < e.n {
			e.extend(k+1, pi, csr, positions, fn, st)
			continue
		}
		// Completed chain: apply the reflection policy.
		switch e.dedup {
		case DedupPalindromic:
			if e.palindromic[pi] && e.keyOf(e.atoms[0]) > e.keyOf(e.atoms[e.n-1]) {
				st.ReflectionCut++
				continue
			}
		case DedupCanonical:
			if e.keyOf(e.atoms[0]) > e.keyOf(e.atoms[e.n-1]) {
				st.ReflectionCut++
				continue
			}
		}
		st.Emitted++
		fn(e.atoms[:e.n], e.pos[:e.n])
	}
}

// extendSpan is extend for span-layout binnings: level k's candidates
// are the storage slots [spanLo[k], spanHi[k]) themselves — no
// indirection load in the hot loop.
func (e *Enumerator) extendSpan(k, pi int, positions []geom.Vec3, fn Visitor, st *Stats) {
	for ai := e.spanLo[k]; ai < e.spanHi[k]; ai++ {
		st.Candidates++
		dup := false
		for j := 0; j < k; j++ {
			if e.atoms[j] == ai {
				dup = true
				break
			}
		}
		if dup {
			st.DuplicateAtom++
			continue
		}
		r := positions[ai].Add(e.shifts[k])
		if k > 0 {
			d := r.Sub(e.pos[k-1])
			if d.Norm2() >= e.cutoff2 {
				st.DistancePruned++
				continue
			}
		}
		e.atoms[k] = ai
		e.pos[k] = r
		if k+1 < e.n {
			e.extendSpan(k+1, pi, positions, fn, st)
			continue
		}
		switch e.dedup {
		case DedupPalindromic:
			if e.palindromic[pi] && e.keyOf(e.atoms[0]) > e.keyOf(e.atoms[e.n-1]) {
				st.ReflectionCut++
				continue
			}
		case DedupCanonical:
			if e.keyOf(e.atoms[0]) > e.keyOf(e.atoms[e.n-1]) {
				st.ReflectionCut++
				continue
			}
		}
		st.Emitted++
		fn(e.atoms[:e.n], e.pos[:e.n])
	}
}

// Count runs the enumeration without a visitor and returns the stats.
// It reports the force-set size |S(n)| (Emitted) and the search cost
// (Candidates) of the paper's Fig. 7 and §5.1.
func (e *Enumerator) Count(positions []geom.Vec3) Stats {
	return e.Visit(positions, func([]int32, []geom.Vec3) {})
}
