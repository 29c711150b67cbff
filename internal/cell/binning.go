package cell

import (
	"fmt"

	"sctuple/internal/geom"
)

// Binning assigns atoms to cells in one of two layouts. The CSR
// (compressed sparse row) layout, built by Rebin/RebinCells/RebinKeyed,
// lists the atoms of cell with linear index i as
// Atoms[Start[i]:Start[i+1]] — an indirection over arbitrary atom
// storage. The span layout, built by RebinSpans over cell-sorted atom
// storage, records each cell's atoms as the contiguous storage range
// [SpanLo[i], SpanHi[i]) with no indirection array at all; consumers
// walk storage directly, which is what makes the cell-sorted
// structure-of-arrays layout cache-friendly. The structure is rebuilt
// every MD step — the "dynamic" part of dynamic n-tuple computation —
// so every rebuild path reuses all storage and allocates nothing at
// warm capacity.
type Binning struct {
	Lat   Lattice
	Start []int32 // CSR: length NumCells+1
	Atoms []int32 // CSR: atom indices grouped by cell, stable within a cell

	// Span layout (nil when the binning is CSR). SpanLo/SpanHi have
	// length NumCells; empty cells have SpanLo == SpanHi.
	SpanLo []int32
	SpanHi []int32

	n      int     // atoms binned (both layouts)
	cellOf []int32 // scratch: cell linear index per atom
	fill   []int32 // scratch: per-cell fill cursor of the CSR build
}

// Spans reports whether the binning is in the span layout (built by
// RebinSpans over cell-sorted storage).
func (b *Binning) Spans() bool { return b.SpanLo != nil }

// CellSpan returns the storage range of the cell with linear index i
// in the span layout.
func (b *Binning) CellSpan(i int) (lo, hi int32) {
	return b.SpanLo[i], b.SpanHi[i]
}

// NewBinning bins the given positions (which must lie in the primary
// image) into the lattice.
func NewBinning(lat Lattice, positions []geom.Vec3) *Binning {
	b := &Binning{Lat: lat}
	b.Rebin(positions)
	return b
}

// Rebin rebuilds the cell assignment for the current positions,
// reusing internal storage. Positions must lie in the primary image
// (wrap them first); CellOf clamps rounding stragglers.
func (b *Binning) Rebin(positions []geom.Vec3) {
	b.prepareCSR(len(positions))
	nc := b.Lat.NumCells()

	// Count, prefix-sum, fill: O(N + cells), stable.
	for i, r := range positions {
		c := int32(b.Lat.Linear(b.Lat.CellOf(r)))
		b.cellOf[i] = c
		b.Start[c+1]++
	}
	for i := 0; i < nc; i++ {
		b.Start[i+1] += b.Start[i]
	}
	fill := b.fill[:nc]
	for i := range positions {
		c := b.cellOf[i]
		b.Atoms[b.Start[c]+fill[c]] = int32(i)
		fill[c]++
	}
}

// RebinKeyed is Rebin with each cell's atom list ordered by the given
// per-atom keys instead of by storage order. The resulting CSR is the
// canonical (cell, key) layout: a pure function of positions and keys,
// independent of how the atoms happen to be stored — which is what
// keeps enumeration order (and with it floating-point accumulation
// order) invariant when atom storage is permuted. Keys must be unique
// per atom (global IDs).
func (b *Binning) RebinKeyed(positions []geom.Vec3, keys []int64) {
	b.Rebin(positions)
	b.sortCellsByKey(keys)
}

// RebinCellsKeyed is RebinCells with key-ordered cell lists (see
// RebinKeyed).
func (b *Binning) RebinCellsKeyed(cells []int32, keys []int64) {
	b.RebinCells(cells)
	b.sortCellsByKey(keys)
}

// sortCellsByKey insertion-sorts each cell's CSR atom list by key.
// Cell occupancy is O(1) (bounded by density × cell volume), so the
// quadratic local sort is cheap — and it allocates nothing.
func (b *Binning) sortCellsByKey(keys []int64) {
	nc := b.Lat.NumCells()
	for c := 0; c < nc; c++ {
		atoms := b.Atoms[b.Start[c]:b.Start[c+1]]
		for i := 1; i < len(atoms); i++ {
			a := atoms[i]
			k := keys[a]
			j := i - 1
			for j >= 0 && keys[atoms[j]] > k {
				atoms[j+1] = atoms[j]
				j--
			}
			atoms[j+1] = a
		}
	}
}

// prepareCSR sizes the CSR arrays for n atoms, clears the counters,
// and switches the binning out of span mode.
func (b *Binning) prepareCSR(n int) {
	nc := b.Lat.NumCells()
	if cap(b.Start) < nc+1 {
		b.Start = make([]int32, nc+1)
	}
	b.Start = b.Start[:nc+1]
	clear(b.Start)
	if cap(b.fill) < nc {
		b.fill = make([]int32, nc)
	}
	clear(b.fill[:nc])
	if cap(b.cellOf) < n {
		// Headroom (an eighth, as for every per-atom scratch array):
		// a rank's keyed sub-cell rebin covers owned plus halo atoms,
		// whose count fluctuates with thermal motion; an exact fit would
		// reallocate at every new high-water mark.
		b.cellOf = make([]int32, n+n/8)
	}
	b.cellOf = b.cellOf[:n]
	if cap(b.Atoms) < n {
		b.Atoms = make([]int32, n+n/8)
	}
	b.Atoms = b.Atoms[:n]
	b.SpanLo = nil
	b.SpanHi = nil
	b.n = n
}

// RebinCells rebuilds the CSR structure from caller-supplied local
// linear cell indices, one per atom. Parallel MD uses this so that the
// cell an atom belongs to is decided once (by its owner, in exact
// integer arithmetic on global cell coordinates) and never re-derived
// from floating-point positions, which could round differently on
// different ranks for atoms exactly on a cell boundary.
func (b *Binning) RebinCells(cells []int32) {
	b.prepareCSR(len(cells))
	nc := b.Lat.NumCells()
	copy(b.cellOf, cells)
	for _, c := range cells {
		b.Start[c+1]++
	}
	for i := 0; i < nc; i++ {
		b.Start[i+1] += b.Start[i]
	}
	fill := b.fill[:nc]
	for i, c := range cells {
		b.Atoms[b.Start[c]+fill[c]] = int32(i)
		fill[c]++
	}
}

// RebinSpans builds the span layout from caller-supplied local linear
// cell indices over cell-run-contiguous atom storage: all atoms of one
// cell must occupy consecutive storage slots (runs may appear in any
// order — the parallel ranks store owned atoms in lattice order
// followed by halo atoms in arrival order, whose runs are contiguous
// but not monotone). A cell whose atoms are split across
// non-consecutive slots is a broken layout contract and is returned as
// an error rather than silently mis-binned.
func (b *Binning) RebinSpans(cells []int32) error {
	nc := b.Lat.NumCells()
	if cap(b.SpanLo) < nc {
		b.SpanLo = make([]int32, nc)
		b.SpanHi = make([]int32, nc)
	}
	b.SpanLo = b.SpanLo[:nc]
	b.SpanHi = b.SpanHi[:nc]
	for i := range b.SpanLo {
		b.SpanLo[i] = -1
		b.SpanHi[i] = -1
	}
	if cap(b.cellOf) < len(cells) {
		// Headroom: in parallel runs the atom count includes a halo that
		// fluctuates with thermal motion; an exact fit would reallocate
		// at every new high-water mark.
		b.cellOf = make([]int32, 0, len(cells)+len(cells)/8)
	}
	b.cellOf = b.cellOf[:len(cells)]
	copy(b.cellOf, cells)
	b.n = len(cells)
	b.Start = b.Start[:0]
	b.Atoms = b.Atoms[:0]

	for i, c := range cells {
		switch {
		case b.SpanLo[c] == -1:
			b.SpanLo[c] = int32(i)
			b.SpanHi[c] = int32(i) + 1
		case b.SpanHi[c] == int32(i):
			b.SpanHi[c]++
		default:
			return fmt.Errorf("cell: atom %d extends cell %d whose span closed at %d (storage not cell-contiguous)",
				i, c, b.SpanHi[c])
		}
	}
	for i := range b.SpanLo {
		if b.SpanLo[i] == -1 {
			b.SpanLo[i] = 0
			b.SpanHi[i] = 0
		}
	}
	return nil
}

// CellAtoms returns the atom indices in the (unwrapped) cell q.
// The returned slice aliases internal storage; do not modify it.
func (b *Binning) CellAtoms(q geom.IVec3) []int32 {
	i := b.Lat.Linear(b.Lat.WrapCell(q))
	return b.Atoms[b.Start[i]:b.Start[i+1]]
}

// CellAtomsLinear returns the atom indices of the cell with linear
// index i (already wrapped).
func (b *Binning) CellAtomsLinear(i int) []int32 {
	return b.Atoms[b.Start[i]:b.Start[i+1]]
}

// CellOfAtom returns the linear cell index atom i was binned into.
func (b *Binning) CellOfAtom(i int) int { return int(b.cellOf[i]) }

// NumAtoms returns the number of binned atoms.
func (b *Binning) NumAtoms() int { return b.n }

// MaxOccupancy returns the largest number of atoms in any cell, a
// useful sanity metric for workload balance.
func (b *Binning) MaxOccupancy() int {
	m := 0
	if b.Spans() {
		for i := range b.SpanLo {
			if n := int(b.SpanHi[i] - b.SpanLo[i]); n > m {
				m = n
			}
		}
		return m
	}
	for i := 0; i+1 < len(b.Start); i++ {
		if n := int(b.Start[i+1] - b.Start[i]); n > m {
			m = n
		}
	}
	return m
}

// MeanOccupancy returns ⟨ρcell⟩, the average number of atoms per cell
// (the quantity the paper's Lemma 5 cost model is built on).
func (b *Binning) MeanOccupancy() float64 {
	if b.Lat.NumCells() == 0 {
		return 0
	}
	return float64(b.n) / float64(b.Lat.NumCells())
}

// SpanValidate cross-checks the span layout against the cell indices
// used to build it: every atom must fall inside exactly its cell's
// span, and the spans must tile [0, n) exactly. Tests and debug builds
// call this; production steps do not.
func (b *Binning) SpanValidate(cells []int32) error {
	if !b.Spans() {
		return fmt.Errorf("cell: binning is not in span layout")
	}
	if len(cells) != b.n {
		return fmt.Errorf("cell: span-binned %d atoms, have %d cells", b.n, len(cells))
	}
	total := 0
	for c := range b.SpanLo {
		lo, hi := b.SpanLo[c], b.SpanHi[c]
		if lo > hi || lo < 0 || int(hi) > b.n {
			return fmt.Errorf("cell: cell %d span [%d,%d) out of range", c, lo, hi)
		}
		total += int(hi - lo)
		for i := lo; i < hi; i++ {
			if int(cells[i]) != c {
				return fmt.Errorf("cell: storage slot %d in span of cell %d, belongs to %d", i, c, cells[i])
			}
		}
	}
	if total != b.n {
		return fmt.Errorf("cell: spans cover %d slots, storage holds %d", total, b.n)
	}
	return nil
}

// Validate cross-checks the CSR structure against the positions and
// returns the first inconsistency found, or nil. Tests and debug
// builds call this; production steps do not.
func (b *Binning) Validate(positions []geom.Vec3) error {
	if len(positions) != len(b.Atoms) {
		return fmt.Errorf("cell: binned %d atoms, have %d positions", len(b.Atoms), len(positions))
	}
	seen := make([]bool, len(positions))
	for ci := 0; ci < b.Lat.NumCells(); ci++ {
		for _, ai := range b.CellAtomsLinear(ci) {
			if seen[ai] {
				return fmt.Errorf("cell: atom %d binned twice", ai)
			}
			seen[ai] = true
			if got := b.Lat.Linear(b.Lat.CellOf(positions[ai])); got != ci {
				return fmt.Errorf("cell: atom %d in cell %d, belongs to %d", ai, ci, got)
			}
		}
	}
	for i, s := range seen {
		if !s {
			return fmt.Errorf("cell: atom %d not binned", i)
		}
	}
	return nil
}
