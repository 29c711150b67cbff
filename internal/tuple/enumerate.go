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
	"math/bits"
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

// Stats accumulates the operation counts of an enumeration. The
// counters keep the per-path meaning of the paper's Eq. 12: they count
// what walking every (anchor, path) chain on its own would examine, so
// Candidates is the model search cost, not the executed work. The
// engine searches each prefix shared by a block of paths once per
// anchor and credits its counts to every path of the block that
// reaches its last level; only the time per candidate reflects the
// sharing.
type Stats struct {
	Cells            int   // cells visited
	PathApplications int64 // (cell, path) combinations processed
	Candidates       int64 // partial chains extended (Eq. 12 search cost)
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
//
// Paths are walked as prefix blocks: maximal runs of consecutive paths
// that share their first n−1 cells. Per anchor, a block's surviving
// (n−1)-atom chains are built once and every path of the block extends
// only its last level over them. The emission sequence is exactly that
// of walking each path's nested loops on its own, and Stats keep their
// per-path meaning.
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

	// Compiled pattern. cellOff lists the pattern's distinct cell
	// offsets (its coverage). Block b holds paths blockLo[b] up to
	// blockLo[b+1]; blockCell[b*(n-1)+k] indexes level k of its shared
	// prefix into cellOff, and pathLast[i] indexes path i's last cell.
	// A prefix that recurs non-contiguously (an unsorted pattern) just
	// opens another block.
	cellOff   []geom.IVec3
	blockLo   []int32
	blockCell []int32
	pathLast  []int32
	// blockSkip[b*(n-1)+k] is the first block after b whose prefix
	// differs from b's within levels 0…k: when level k of block b
	// resolves empty, so does every block in between.
	blockSkip []int32
	// An atom lies in one cell and one path's cells are distinct
	// lattice cells, so an atom can repeat within a chain only where a
	// cell does. blockDup[b*(n-1)+k] and pathDup[i] are bitmasks of the
	// earlier levels sharing the cell of prefix level k and of path i's
	// last level; only those are compared.
	blockDup []uint8
	pathDup  []uint8

	// Per-anchor cell table. VisitCell resolves every covered cell once
	// per anchor (wrap, image shift, storage range); covered cell c then
	// occupies [resLo[c], resHi[c]) of cellAtoms and cellPos, its atoms
	// and image-resolved positions, so the chain loops below never see
	// the span-versus-CSR layout or an image shift. Those are copies
	// gathered into gatherAtoms/gatherPos, except on bounded span
	// binnings: there a slot is its atom and needs no shift, so they are
	// the identity slot map and the positions themselves.
	resLo       []int32
	resHi       []int32
	resShift    []geom.Vec3
	cellAtoms   []int32
	cellPos     []geom.Vec3
	gatherAtoms []int32
	gatherPos   []geom.Vec3
	slots       []int32

	// Chain scratch, reused across cells and calls. Level k holds
	// chainLen[k] chains of k+1 atoms, flat with stride k+1, in
	// (a0, …, ak) lexicographic order — the order of the nested loops.
	// Level 0 aliases the block's first prefix cell in cellAtoms/cellPos.
	chainAtoms [MaxN][]int32
	chainPos   [MaxN][]geom.Vec3
	chainLen   [MaxN]int
	prefix     Stats // search counts of the current block's prefix

	// The tuple handed to the visitor.
	atoms [MaxN]int32
	pos   [MaxN]geom.Vec3
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
	if pattern.N() < 2 || pattern.N() > MaxN {
		return fmt.Errorf("tuple: n=%d outside [2, MaxN=%d]", pattern.N(), MaxN)
	}
	radius := float64(pattern.StepRadius())
	if cutoff > radius*lat.Side.X || cutoff > radius*lat.Side.Y || cutoff > radius*lat.Side.Z {
		return fmt.Errorf("tuple: cutoff %g exceeds pattern reach (step radius %g × cell side %v)",
			cutoff, radius, lat.Side)
	}
	return nil
}

// newEnumerator resolves the dedup policy and compiles the pattern
// into its covered-cell table and prefix blocks.
func newEnumerator(bin *cell.Binning, pattern *core.Pattern, cutoff float64, dedup Dedup, bounded bool) *Enumerator {
	if dedup == DedupAuto {
		if pattern.RedundancyCount() == 0 {
			dedup = DedupPalindromic
		} else {
			dedup = DedupCanonical
		}
	}
	n := pattern.N()
	e := &Enumerator{
		bin:         bin,
		pattern:     pattern,
		cutoff2:     cutoff * cutoff,
		dedup:       dedup,
		n:           n,
		bounded:     bounded,
		palindromic: make([]bool, pattern.Len()),
		pathLast:    make([]int32, pattern.Len()),
		pathDup:     make([]uint8, pattern.Len()),
	}
	index := make(map[geom.IVec3]int32)
	cells := make([]int32, n)
	for i, p := range pattern.Paths() {
		e.palindromic[i] = p.IsSelfReflective()
		for k, v := range p {
			c, ok := index[v]
			if !ok {
				c = int32(len(e.cellOff))
				index[v] = c
				e.cellOff = append(e.cellOff, v)
			}
			cells[k] = c
		}
		nb := len(e.blockLo)
		if nb == 0 || !slices.Equal(e.blockCell[(nb-1)*(n-1):], cells[:n-1]) {
			e.blockLo = append(e.blockLo, int32(i))
			e.blockCell = append(e.blockCell, cells[:n-1]...)
			for k := range n - 1 {
				e.blockDup = append(e.blockDup, sameCell(cells, k))
			}
		}
		e.pathLast[i] = cells[n-1]
		e.pathDup[i] = sameCell(cells, n-1)
	}
	e.blockLo = append(e.blockLo, int32(pattern.Len()))
	nb := len(e.blockLo) - 1
	e.blockSkip = make([]int32, len(e.blockCell))
	for b := nb - 1; b >= 0; b-- {
		for k := range n - 1 {
			// Block b+1 shares block b's prefix up to level k: it skips
			// to where block b+1 would.
			if b+1 < nb && slices.Equal(e.blockCell[(b+1)*(n-1):(b+1)*(n-1)+k+1], e.blockCell[b*(n-1):b*(n-1)+k+1]) {
				e.blockSkip[b*(n-1)+k] = e.blockSkip[(b+1)*(n-1)+k]
			} else {
				e.blockSkip[b*(n-1)+k] = int32(b + 1)
			}
		}
	}
	e.resLo = make([]int32, len(e.cellOff))
	e.resHi = make([]int32, len(e.cellOff))
	e.resShift = make([]geom.Vec3, len(e.cellOff))
	return e
}

// sameCell returns the bitmask of the levels below k whose cell is
// level k's.
func sameCell(cells []int32, k int) uint8 {
	var mask uint8
	for j := range k {
		if cells[j] == cells[k] {
			mask |= 1 << j
		}
	}
	return mask
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
// into st. Paths are applied in pattern order and each path's chains
// come out in the order of its nested loops, so the emission sequence
// is that of walking every path on its own; only cell resolution and
// the prefix chains of each block are shared.
func (e *Enumerator) VisitCell(q geom.IVec3, positions []geom.Vec3, fn Visitor, st *Stats) {
	st.Cells++
	st.PathApplications += int64(len(e.pathLast))
	if !e.resolve(q, positions) {
		return
	}
	n := e.n
	resLo, resHi := e.resLo, e.resHi
	for b := 0; b+1 < len(e.blockLo); b++ {
		if k := e.firstEmpty(e.blockCell[b*(n-1) : (b+1)*(n-1)]); k >= 0 {
			b = int(e.blockSkip[b*(n-1)+k]) - 1
			continue
		}
		built := false
		first := int(e.blockLo[b])
		for i, last := range e.pathLast[first:e.blockLo[b+1]] {
			if resLo[last] == resHi[last] {
				continue
			}
			if !built {
				e.buildPrefix(b)
				built = true
			}
			st.Candidates += e.prefix.Candidates
			st.DuplicateAtom += e.prefix.DuplicateAtom
			st.DistancePruned += e.prefix.DistancePruned
			if e.chainLen[n-2] > 0 {
				e.extend(n-1, last, e.pathDup[first+i], first+i, fn, st)
			}
		}
	}
}

// firstEmpty returns the index of the first of the covered cells that
// holds no atoms, or -1.
func (e *Enumerator) firstEmpty(cells []int32) int {
	for k, c := range cells {
		if e.resLo[c] == e.resHi[c] {
			return k
		}
	}
	return -1
}

// buildPrefix builds the chains of levels 0…n−2 over block b's prefix
// cells and records their search counts in e.prefix. Level 0 is the
// first cell's atoms themselves, a view of cellAtoms/cellPos.
func (e *Enumerator) buildPrefix(b int) {
	n := e.n
	cells := e.blockCell[b*(n-1) : (b+1)*(n-1)]
	e.prefix = Stats{}
	c := cells[0]
	lo, hi := e.resLo[c], e.resHi[c]
	e.chainAtoms[0], e.chainPos[0] = e.cellAtoms[lo:hi], e.cellPos[lo:hi]
	e.chainLen[0] = int(hi - lo)
	e.prefix.Candidates = int64(hi - lo)
	for k := 1; k < len(cells); k++ {
		e.extend(k, cells[k], e.blockDup[b*(n-1)+k], 0, nil, &e.prefix)
	}
}

// extend grows every level-(k−1) chain by each atom of covered cell c,
// pruning on duplicate atoms (checking only the levels set in dup) and
// on the consecutive-distance cutoff. Below the last level the
// survivors become the level-k chains; at the last level they are
// complete tuples of path pi, which the reflection policy filters
// before they are emitted. It is the one chain-growing loop: span and
// CSR binnings differ only in how resolve lays out their cells.
func (e *Enumerator) extend(k int, c int32, dup uint8, pi int, fn Visitor, st *Stats) {
	cand := e.cellAtoms[e.resLo[c]:e.resHi[c]]
	cpos := e.cellPos[e.resLo[c]:e.resHi[c]]
	chains := e.chainLen[k-1]
	parAtoms, parPos := e.chainAtoms[k-1][:chains*k], e.chainPos[k-1][:chains*k]
	last := k == e.n-1
	var nextAtoms []int32
	var nextPos []geom.Vec3
	var reflect bool
	if last {
		reflect = e.dedup == DedupCanonical || e.dedup == DedupPalindromic && e.palindromic[pi]
	} else {
		// At most every (chain, candidate) pair survives.
		need := chains * len(cand) * (k + 1)
		nextAtoms = growScratch(&e.chainAtoms[k], need)
		nextPos = growScratch(&e.chainPos[k], need)
	}
	m := 0
	for ch := 0; ch < chains; ch++ {
		atoms, pos := parAtoms[ch*k:ch*k+k], parPos[ch*k:ch*k+k]
		tail := pos[k-1]
		st.Candidates += int64(len(cand))
		staged := false // chain copied into the visitor's tuple
		for j, ai := range cand {
			if dup != 0 && repeats(atoms, dup, ai) {
				st.DuplicateAtom++
				continue
			}
			r := cpos[j]
			if d := r.Sub(tail); d.Norm2() >= e.cutoff2 {
				st.DistancePruned++
				continue
			}
			if !last {
				next := m * (k + 1)
				for i := range k { // a loop: copy would call memmove per chain
					nextAtoms[next+i], nextPos[next+i] = atoms[i], pos[i]
				}
				nextAtoms[next+k], nextPos[next+k] = ai, r
				m++
				continue
			}
			if reflect && e.keyOf(atoms[0]) > e.keyOf(ai) {
				st.ReflectionCut++
				continue
			}
			if !staged {
				for i := range k {
					e.atoms[i], e.pos[i] = atoms[i], pos[i]
				}
				staged = true
			}
			e.atoms[k], e.pos[k] = ai, r
			st.Emitted++
			fn(e.atoms[:k+1], e.pos[:k+1])
		}
	}
	if !last {
		e.chainLen[k] = m
	}
}

// repeats reports whether atom a is among the chain atoms at the
// levels set in mask.
func repeats(atoms []int32, mask uint8, a int32) bool {
	for ; mask != 0; mask &= mask - 1 {
		if atoms[bits.TrailingZeros8(mask)] == a {
			return true
		}
	}
	return false
}

// resolve fills the covered-cell table for anchor q and points
// cellAtoms/cellPos at each covered cell's atoms and image-resolved
// positions. In bounded mode out-of-lattice cells are empty and shifts
// stay zero (the importer pre-shifted halo atoms). It reports whether
// any covered cell holds atoms.
func (e *Enumerator) resolve(q geom.IVec3, positions []geom.Vec3) bool {
	lat := e.bin.Lat
	spans := e.bin.Spans()
	total := int32(0)
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
		total += e.resHi[c] - e.resLo[c]
	}
	if total == 0 {
		return false
	}
	if e.bounded && spans {
		// A zero shift changes only a −0.0 coordinate, which neither
		// wrapped nor rank-local positions hold: reading the stored
		// positions in place is bit-identical to shifting them.
		if len(e.slots) < len(positions) {
			n := len(positions)
			e.slots = make([]int32, n+n/8)
			for i := range e.slots {
				e.slots[i] = int32(i)
			}
		}
		e.cellAtoms, e.cellPos = e.slots, positions
		return true
	}
	atoms := growScratch(&e.gatherAtoms, int(total))
	pos := growScratch(&e.gatherPos, int(total))
	e.cellAtoms, e.cellPos = atoms, pos
	g := int32(0)
	for c := range e.cellOff {
		lo, hi := e.resLo[c], e.resHi[c]
		if lo == hi {
			continue
		}
		shift := e.resShift[c] // zero in bounded mode
		for s := lo; s < hi; s++ {
			ai := s
			if !spans {
				ai = e.bin.Atoms[s]
			}
			atoms[g+s-lo] = ai
			pos[g+s-lo] = positions[ai].Add(shift)
		}
		e.resLo[c], e.resHi[c] = g, g+hi-lo
		g += hi - lo
	}
	return true
}

// growScratch returns (*buf)[:n], reallocating with an eighth of
// headroom when the capacity falls short: chain and gather sizes
// fluctuate with thermal motion, and an exact fit would reallocate at
// every new high-water mark.
func growScratch[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n+n/8)
	}
	*buf = (*buf)[:n]
	return *buf
}

// Count runs the enumeration without a visitor and returns the stats.
// It reports the force-set size |S(n)| (Emitted) and the search cost
// (Candidates) of the paper's Fig. 7 and §5.1.
func (e *Enumerator) Count(positions []geom.Vec3) Stats {
	return e.Visit(positions, func([]int32, []geom.Vec3) {})
}
