package tuple

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sctuple/internal/cell"
	"sctuple/internal/core"
	"sctuple/internal/geom"
)

// naiveVisitCell is the per-path reference for VisitCell: every path
// resolves each of its own offset cells — wrap, image shift, storage
// range — and walks its own nested loops, with nothing shared between
// paths. VisitCell must reproduce its emission sequence and counters
// exactly.
func naiveVisitCell(e *Enumerator, q geom.IVec3, positions []geom.Vec3, fn Visitor, st *Stats) {
	st.Cells++
	lat := e.bin.Lat
	n := e.n
	var (
		cells  [MaxN][]int32
		shifts [MaxN]geom.Vec3
		atoms  [MaxN]int32
		pos    [MaxN]geom.Vec3
	)
	for _, p := range e.pattern.Paths() {
		st.PathApplications++
		empty := false
		for k, v := range p {
			cq := q.Add(v)
			var li int
			if e.bounded {
				if !cq.InBox(lat.Dims) {
					empty = true
					break
				}
				li = lat.Linear(cq)
				shifts[k] = geom.Vec3{}
			} else {
				li = lat.Linear(lat.WrapCell(cq))
				shifts[k] = lat.ImageShift(cq)
			}
			cells[k] = cells[k][:0]
			if e.bin.Spans() {
				lo, hi := e.bin.CellSpan(li)
				for a := lo; a < hi; a++ {
					cells[k] = append(cells[k], a)
				}
			} else {
				cells[k] = append(cells[k], e.bin.CellAtomsLinear(li)...)
			}
			if len(cells[k]) == 0 {
				empty = true
				break
			}
		}
		if empty {
			continue
		}
		reflect := e.dedup == DedupCanonical || e.dedup == DedupPalindromic && p.IsSelfReflective()
		var walk func(k int)
		walk = func(k int) {
			for _, ai := range cells[k] {
				st.Candidates++
				if slices.Contains(atoms[:k], ai) {
					st.DuplicateAtom++
					continue
				}
				r := positions[ai].Add(shifts[k])
				if k > 0 && r.Sub(pos[k-1]).Norm2() >= e.cutoff2 {
					st.DistancePruned++
					continue
				}
				atoms[k], pos[k] = ai, r
				if k+1 < n {
					walk(k + 1)
					continue
				}
				if reflect && e.keyOf(atoms[0]) > e.keyOf(atoms[n-1]) {
					st.ReflectionCut++
					continue
				}
				st.Emitted++
				fn(atoms[:n], pos[:n])
			}
		}
		walk(0)
	}
}

// emission is one visited tuple: atoms and image-resolved positions.
type emission struct {
	atoms []int32
	pos   []geom.Vec3
}

func recorder(out *[]emission) Visitor {
	return func(atoms []int32, pos []geom.Vec3) {
		*out = append(*out, emission{slices.Clone(atoms), slices.Clone(pos)})
	}
}

// cellSortedSystem places natoms uniformly in the lattice's box and
// returns them in cell-sorted storage order with their linear cells,
// so that the same storage can be binned both CSR and span.
func cellSortedSystem(rng *rand.Rand, lat cell.Lattice, natoms int) ([]geom.Vec3, []int32) {
	pos := make([]geom.Vec3, natoms)
	for i := range pos {
		pos[i] = geom.V(rng.Float64()*lat.Box.L.X, rng.Float64()*lat.Box.L.Y, rng.Float64()*lat.Box.L.Z)
	}
	return sortByCell(lat, pos)
}

// sortByCell stably sorts pos into cell order in place and returns it
// with the linear cell of each slot.
func sortByCell(lat cell.Lattice, pos []geom.Vec3) ([]geom.Vec3, []int32) {
	cellOf := func(r geom.Vec3) int32 { return int32(lat.Linear(lat.CellOf(r))) }
	slices.SortStableFunc(pos, func(a, b geom.Vec3) int { return int(cellOf(a) - cellOf(b)) })
	cells := make([]int32, len(pos))
	for i, r := range pos {
		cells[i] = cellOf(r)
	}
	return pos, cells
}

// TestVisitCellMatchesPerPathReference: resolving the pattern's cells
// once per anchor and sharing each block's prefix chains change
// nothing observable. For SC and FS patterns at n = 2–4 and stencil
// radius k = 1–3 (n = 4 at k = 1 only: the radius-2 four-body patterns
// have ~10⁶ paths), on periodic and bounded lattices, over CSR and span
// binnings of the same storage, with and without dedup keys, VisitCell
// emits the same tuples with the same image-resolved positions in the
// same order as the per-path reference, and every Stats field agrees.
// Two block-edge cases follow: shuffled patterns, whose prefixes recur
// non-contiguously, and a block whose first path's last cell is empty
// while a later path of the same prefix still needs the chains.
func TestVisitCellMatchesPerPathReference(t *testing.T) {
	type family struct {
		name    string
		pattern func(n, k int) *core.Pattern
		dedup   Dedup // what DedupAuto resolves to, without its O(paths) scan per case
	}
	families := []family{
		{"SC", core.SCRadius, DedupPalindromic},
		{"FS", func(n, k int) *core.Pattern { return core.GenerateFSRadius(n, k).Sort() }, DedupCanonical},
	}
	rng := rand.New(rand.NewSource(20))
	for _, fam := range families {
		for n := 2; n <= 4; n++ {
			for k := 1; k <= 3; k++ {
				if n == 4 && k > 1 {
					continue
				}
				pattern := fam.pattern(n, k)
				lat, anchors, pos, bins, keys := referenceSystem(t, rng, pattern, 1)
				// One atom per cell of side cutoff/k.
				cutoff := 0.95 * lat.Side.X * float64(k)
				checkMatchesReference(t, fmt.Sprintf("%s n=%d k=%d", fam.name, n, k),
					pattern, cutoff, fam.dedup, bins, anchors, pos, keys)
			}
		}
	}

	// Shuffled patterns: a prefix that recurs after other prefixes opens
	// a new block, so paths still run in pattern order.
	for _, tc := range []struct {
		name    string
		pattern *core.Pattern
		dedup   Dedup
	}{
		{"SC", core.SC(3), DedupPalindromic},
		{"FS", core.FS(3), DedupCanonical},
		{"SC", core.SC(4), DedupPalindromic},
	} {
		paths := slices.Clone(tc.pattern.Paths())
		rng.Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
		shuffled := core.NewPattern(tc.pattern.N(), paths...)
		lat, anchors, pos, bins, keys := referenceSystem(t, rng, shuffled, 2)
		label := fmt.Sprintf("shuffled %s n=%d", tc.name, shuffled.N())
		e, err := NewEnumerator(bins[0], shuffled, 0.95*lat.Side.X, tc.dedup)
		if err != nil {
			t.Fatal(err)
		}
		if blocks, prefixes := len(e.blockLo)-1, distinctPrefixes(shuffled); blocks <= prefixes {
			t.Fatalf("%s: %d blocks over %d distinct prefixes; no prefix recurs", label, blocks, prefixes)
		}
		checkMatchesReference(t, label, shuffled, 0.95*lat.Side.X, tc.dedup, bins, anchors, pos, keys)
	}

	// A block whose first path ends in an empty cell: the chains must
	// still be built for the second path. The third path has another
	// prefix, and the fourth repeats the first prefix after it.
	iv := geom.IV
	blockEdge := core.NewPattern(3,
		core.NewPath(iv(0, 0, 0), iv(1, 0, 0), iv(1, 1, 0)), // (1,1,0) holds no atom
		core.NewPath(iv(0, 0, 0), iv(1, 0, 0), iv(2, 0, 0)),
		core.NewPath(iv(0, 0, 0), iv(0, 0, 0), iv(1, 0, 0)),
		core.NewPath(iv(0, 0, 0), iv(1, 0, 0), iv(1, 0, 1)),
	)
	lat, err := cell.NewLatticeDims(geom.NewCubicBox(4), iv(4, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	pos, cells := sortByCell(lat, []geom.Vec3{
		geom.V(0.7, 0.5, 0.5), geom.V(0.9, 0.2, 0.8), // cell (0,0,0)
		geom.V(1.2, 0.5, 0.5), geom.V(1.6, 0.6, 0.4), // cell (1,0,0)
		geom.V(2.1, 0.5, 0.5), geom.V(2.3, 0.9, 0.1), // cell (2,0,0)
		geom.V(1.3, 0.5, 1.1), // cell (1,0,1)
		geom.V(3.5, 3.5, 3.5), // far corner cell (3,3,3)
	})
	spans := cell.NewBinning(lat, nil)
	if err := spans.RebinSpans(cells); err != nil {
		t.Fatal(err)
	}
	bins := []*cell.Binning{cell.NewBinning(lat, pos), spans}
	keys := []int64{5, 3, 7, 0, 6, 1, 2, 4}
	// Anchor the corner cell first, so a wrongly skipped build would
	// leave its chains in place.
	anchors := []geom.IVec3{iv(3, 3, 3), iv(0, 0, 0)}
	checkMatchesReference(t, "block edge", blockEdge, 0.95, DedupCanonical, bins, anchors, pos, keys)
}

// referenceSystem builds a lattice of unit cells at least one cell
// wider than the pattern's span, perAtom atoms per cell in cell-sorted
// storage binned both CSR and span, random dedup keys, and up to 24
// anchors (fewer for the largest patterns), corners included so the
// bounded mode's out-of-lattice cells are exercised.
func referenceSystem(t *testing.T, rng *rand.Rand, pattern *core.Pattern, perCell int) (cell.Lattice, []geom.IVec3, []geom.Vec3, []*cell.Binning, []int64) {
	t.Helper()
	lo, hi := pattern.BoundingBox()
	span := hi.Sub(lo)
	d := max(3, max(span.X, max(span.Y, span.Z))+1)
	dims := geom.IV(d, d+1, d)
	lat, err := cell.NewLatticeDims(geom.NewBox(float64(dims.X), float64(dims.Y), float64(dims.Z)), dims)
	if err != nil {
		t.Fatal(err)
	}
	pos, cells := cellSortedSystem(rng, lat, perCell*lat.NumCells())
	csr := cell.NewBinning(lat, pos)
	spans := cell.NewBinning(lat, nil)
	if err := spans.RebinSpans(cells); err != nil {
		t.Fatal(err)
	}
	keys := make([]int64, len(pos))
	for i, p := range rng.Perm(len(pos)) {
		keys[i] = int64(p)
	}
	anchors := []geom.IVec3{{}, dims.Sub(geom.IV(1, 1, 1))}
	for len(anchors) < min(24, max(4, 100000/pattern.Len())) {
		anchors = append(anchors, lat.CellAt(rng.Intn(lat.NumCells())))
	}
	return lat, anchors, pos, []*cell.Binning{csr, spans}, keys
}

// checkMatchesReference compares VisitCell with the per-path reference
// over the anchors — emissions in order, image-resolved positions and
// every Stats field — on periodic and bounded enumerators over each
// binning, with and without dedup keys.
func checkMatchesReference(t *testing.T, name string, pattern *core.Pattern, cutoff float64, dedup Dedup,
	bins []*cell.Binning, anchors []geom.IVec3, pos []geom.Vec3, keys []int64) {
	t.Helper()
	for _, bounded := range []bool{false, true} {
		for _, bin := range bins {
			ctor := NewEnumerator
			if bounded {
				ctor = NewBoundedEnumerator
			}
			e, err := ctor(bin, pattern, cutoff, dedup)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, withKeys := range []bool{false, true} {
				label := fmt.Sprintf("%s bounded=%v spans=%v keys=%v", name, bounded, bin.Spans(), withKeys)
				e.SetKeys(nil)
				if withKeys {
					e.SetKeys(keys)
				}
				var got, want []emission
				var gotSt, wantSt Stats
				for _, q := range anchors {
					e.VisitCell(q, pos, recorder(&got), &gotSt)
					naiveVisitCell(e, q, pos, recorder(&want), &wantSt)
				}
				if gotSt != wantSt {
					t.Errorf("%s: stats %+v, reference %+v", label, gotSt, wantSt)
				}
				if len(got) != len(want) {
					t.Errorf("%s: %d emissions, reference %d", label, len(got), len(want))
					continue
				}
				for i := range got {
					if !slices.Equal(got[i].atoms, want[i].atoms) || !slices.Equal(got[i].pos, want[i].pos) {
						t.Errorf("%s: emission %d = %v %v, reference %v %v",
							label, i, got[i].atoms, got[i].pos, want[i].atoms, want[i].pos)
						break
					}
				}
				if wantSt.Emitted == 0 {
					t.Errorf("%s: reference emitted nothing; the case tests no chains", label)
				}
			}
		}
	}
}

// distinctPrefixes counts the distinct (n−1)-cell path prefixes.
func distinctPrefixes(pattern *core.Pattern) int {
	seen := make(map[string]bool)
	for _, p := range pattern.Paths() {
		seen[fmt.Sprint(p[:len(p)-1])] = true
	}
	return len(seen)
}
