// Package nlist implements the Verlet neighbor list used by the
// Hybrid-MD baseline of the paper (§5): a dynamic pair list built
// every step from the full-shell cell pattern, from which shorter-
// range triplets are pruned directly — avoiding a second cell search
// at the triplet cutoff, at the price of full-shell import volume.
package nlist

import (
	"fmt"
	"slices"

	"sctuple/internal/cell"
	"sctuple/internal/core"
	"sctuple/internal/geom"
	"sctuple/internal/tuple"
)

// PairList is a full (both-directions) neighbor list in CSR layout:
// the neighbors of atom i are Nbr[Start[i]:Start[i+1]], with
// image-resolved displacement vectors from i to each neighbor and the
// corresponding distances stored alongside.
type PairList struct {
	Cutoff float64
	Start  []int32
	Nbr    []int32
	Disp   []geom.Vec3
	Dist   []float64

	// BuildStats holds the enumeration counters of the cell-based
	// pair search that produced the list.
	BuildStats tuple.Stats

	short []int32 // triplet-pruning scratch, reused across visits
}

// half is one undirected pair as emitted by the cell search.
type half struct {
	i, j int32
	d    geom.Vec3
}

// Builder owns everything a pair-list rebuild needs — the full-shell
// pair enumerator (whose shift-collapse pattern generation is far too
// expensive to redo each step), the half-pair staging array, the CSR
// fill cursors, and the list storage itself. Storage grows in place
// and is reused across rebuilds: at warm capacity a rebuild allocates
// nothing. Growth keeps an eighth of headroom: the atom and pair
// counts fluctuate with thermal motion, and an exact fit would
// reallocate at every new high-water mark.
type Builder struct {
	cutoff float64
	enum   *tuple.Enumerator
	pairs  []half
	fill   []int32
	pl     PairList
}

// NewBuilder prepares a reusable pair-list builder over the given
// binning. keys, when non-nil, orders the canonical pair dedup by
// per-atom key (global atom ID) instead of storage index, which keeps
// the emitted pair stream invariant under storage permutations; it
// may alias a caller array that is updated between builds.
func NewBuilder(bin *cell.Binning, cutoff float64, keys []int64) (*Builder, error) {
	e, err := tuple.NewEnumerator(bin, core.FS(2), cutoff, tuple.DedupCanonical)
	if err != nil {
		return nil, fmt.Errorf("nlist: %w", err)
	}
	e.SetKeys(keys)
	return &Builder{cutoff: cutoff, enum: e}, nil
}

// Build constructs the pair list for all atoms within the cutoff,
// reusing all storage from the previous build. The returned list is
// valid until the next Build call. The list is symmetric: (i→j) and
// (j→i) both appear.
func (b *Builder) Build(positions []geom.Vec3) (*PairList, error) {
	n := len(positions)
	pl := &b.pl
	pl.Cutoff = b.cutoff
	if cap(pl.Start) < n+1 {
		pl.Start = make([]int32, n+1+n/8)
	}
	pl.Start = pl.Start[:n+1]
	clear(pl.Start)

	b.pairs = b.pairs[:0]
	pl.BuildStats = b.enum.Visit(positions, func(atoms []int32, pos []geom.Vec3) {
		b.pairs = append(b.pairs, half{atoms[0], atoms[1], pos[1].Sub(pos[0])})
	})
	b.pairs = slices.Grow(b.pairs, len(b.pairs)/8)

	// Count degrees, prefix-sum, fill both directions.
	for _, p := range b.pairs {
		pl.Start[p.i+1]++
		pl.Start[p.j+1]++
	}
	for i := 0; i < n; i++ {
		pl.Start[i+1] += pl.Start[i]
	}
	total := int(pl.Start[n])
	if cap(pl.Nbr) < total {
		pl.Nbr = make([]int32, total+total/8)
		pl.Disp = make([]geom.Vec3, total+total/8)
		pl.Dist = make([]float64, total+total/8)
	}
	pl.Nbr = pl.Nbr[:total]
	pl.Disp = pl.Disp[:total]
	pl.Dist = pl.Dist[:total]
	if cap(b.fill) < n {
		b.fill = make([]int32, n+n/8)
	}
	fill := b.fill[:n]
	clear(fill)
	for _, p := range b.pairs {
		ki := pl.Start[p.i] + fill[p.i]
		pl.Nbr[ki] = p.j
		pl.Disp[ki] = p.d
		pl.Dist[ki] = p.d.Norm()
		fill[p.i]++
		kj := pl.Start[p.j] + fill[p.j]
		pl.Nbr[kj] = p.i
		pl.Disp[kj] = p.d.Neg()
		pl.Dist[kj] = pl.Dist[ki]
		fill[p.j]++
	}
	return pl, nil
}

// Build constructs a fresh pair list with a one-shot Builder — the
// convenience form for callers without a rebuild loop.
func Build(bin *cell.Binning, positions []geom.Vec3, cutoff float64) (*PairList, error) {
	b, err := NewBuilder(bin, cutoff, nil)
	if err != nil {
		return nil, err
	}
	return b.Build(positions)
}

// Refresh recomputes every entry's displacement and distance from the
// current (possibly re-wrapped) positions under the minimum-image
// convention. This is the Verlet-skin reuse path: a list built with
// cutoff r+skin stays valid while no atom has moved more than skin/2
// since the build, and refreshing costs O(entries) instead of a full
// cell search. Minimum-image resolution requires every box side to
// exceed 2·(r+skin), which the Build lattice (≥ 3 cells of side ≥
// cutoff) already guarantees.
func (pl *PairList) Refresh(box geom.Box, positions []geom.Vec3) {
	n := len(pl.Start) - 1
	for i := 0; i < n; i++ {
		ri := positions[i]
		for k := pl.Start[i]; k < pl.Start[i+1]; k++ {
			d := box.MinImage(positions[pl.Nbr[k]].Sub(ri))
			pl.Disp[k] = d
			pl.Dist[k] = d.Norm()
		}
	}
}

// Degree returns the number of neighbors of atom i.
func (pl *PairList) Degree(i int32) int {
	return int(pl.Start[i+1] - pl.Start[i])
}

// NumEntries returns the total number of directed neighbor entries
// (twice the number of pairs).
func (pl *PairList) NumEntries() int { return len(pl.Nbr) }

// VisitPairs calls fn once per undirected pair (i < j) with the
// displacement from i to j.
func (pl *PairList) VisitPairs(fn func(i, j int32, disp geom.Vec3, dist float64)) {
	n := len(pl.Start) - 1
	for i := 0; i < n; i++ {
		for k := pl.Start[i]; k < pl.Start[i+1]; k++ {
			j := pl.Nbr[k]
			if int32(i) < j {
				fn(int32(i), j, pl.Disp[k], pl.Dist[k])
			}
		}
	}
}

// VisitPairsOrdered is VisitPairs for cell-sorted storage: rows are
// walked in the given order (storage slots listed in global-ID order)
// and each undirected pair is emitted once from its lower-keyed
// endpoint. With keys = global IDs this reproduces, tuple for tuple,
// the stream VisitPairs produces over ID-ordered storage — keeping
// force accumulation bit-identical however storage is permuted.
func (pl *PairList) VisitPairsOrdered(order []int32, keys []int64,
	fn func(i, j int32, disp geom.Vec3, dist float64)) {

	for _, i := range order {
		ki := keys[i]
		for k := pl.Start[i]; k < pl.Start[i+1]; k++ {
			j := pl.Nbr[k]
			if ki < keys[j] {
				fn(i, j, pl.Disp[k], pl.Dist[k])
			}
		}
	}
}

// TripletStats counts the pruning work of VisitTriplets.
type TripletStats struct {
	ShortNeighbors int64 // list entries examined against the triplet cutoff
	PairsExamined  int64 // neighbor pairs considered around a center
	Emitted        int64 // triplets delivered
}

// VisitTriplets prunes triplets (i, j, k) with central atom j from the
// pair list: both links within rcut3 ≤ Cutoff, each undirected triplet
// visited once (neighbor order in the list with i-entry before
// k-entry). fn receives the chain positions (center at its primary
// position, ends displaced by the stored image-resolved
// displacements) in the same layout the tuple enumerator uses, so the
// same potential terms apply.
func (pl *PairList) VisitTriplets(positions []geom.Vec3, rcut3 float64,
	fn func(atoms [3]int32, pos [3]geom.Vec3)) TripletStats {

	var st TripletStats
	n := len(pl.Start) - 1
	for j := 0; j < n; j++ {
		pl.visitTripletsAround(int32(j), positions, nil, nil, rcut3, fn, &st)
	}
	return st
}

// VisitTripletsOrdered is VisitTriplets with centers walked in the
// given order (storage slots in global-ID order) — the cell-sorted
// counterpart, matching the accumulation order of ID-ordered storage.
// A non-nil species link table (potential.SpeciesLinks) further drops
// every neighbour whose link to the center it does not admit, so only
// triplets the term can give a nonzero contribution are visited.
func (pl *PairList) VisitTripletsOrdered(order []int32, positions []geom.Vec3, species []int32, links [][]bool,
	rcut3 float64, fn func(atoms [3]int32, pos [3]geom.Vec3)) TripletStats {

	var st TripletStats
	for _, j := range order {
		pl.visitTripletsAround(j, positions, species, links, rcut3, fn, &st)
	}
	return st
}

// visitTripletsAround expands the pruned triplets centered on atom j,
// keeping the neighbours within rcut3 whose link to j the species link
// table admits (all of them for a nil table).
func (pl *PairList) visitTripletsAround(j int32, positions []geom.Vec3, species []int32, links [][]bool,
	rcut3 float64, fn func(atoms [3]int32, pos [3]geom.Vec3), st *TripletStats) {

	var admit []bool
	if links != nil {
		admit = links[species[j]]
	}
	short := pl.short[:0]
	for k := pl.Start[j]; k < pl.Start[j+1]; k++ {
		st.ShortNeighbors++
		if pl.Dist[k] < rcut3 && (admit == nil || admit[species[pl.Nbr[k]]]) {
			short = append(short, k)
		}
	}
	pl.short = short // keep grown capacity for the next center
	center := positions[j]
	for a := 0; a < len(short); a++ {
		for b := a + 1; b < len(short); b++ {
			st.PairsExamined++
			ka, kb := short[a], short[b]
			st.Emitted++
			fn(
				[3]int32{pl.Nbr[ka], j, pl.Nbr[kb]},
				[3]geom.Vec3{center.Add(pl.Disp[ka]), center, center.Add(pl.Disp[kb])},
			)
		}
	}
}
