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
// range — before walking its chain, with no table shared between
// paths. VisitCell must reproduce its emission sequence and counters
// exactly.
func naiveVisitCell(e *Enumerator, q geom.IVec3, positions []geom.Vec3, fn Visitor, st *Stats) {
	st.Cells++
	lat := e.bin.Lat
	for pi, p := range e.pattern.Paths() {
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
				e.shifts[k] = geom.Vec3{}
			} else {
				li = lat.Linear(lat.WrapCell(cq))
				e.shifts[k] = lat.ImageShift(cq)
			}
			if e.bin.Spans() {
				e.spanLo[k], e.spanHi[k] = e.bin.CellSpan(li)
			} else {
				e.spanLo[k], e.spanHi[k] = e.bin.Start[li], e.bin.Start[li+1]
			}
			if e.spanLo[k] == e.spanHi[k] {
				empty = true
				break
			}
		}
		if empty {
			continue
		}
		if e.bin.Spans() {
			e.extendSpan(0, pi, positions, fn, st)
		} else {
			e.extend(0, pi, e.bin.Atoms, positions, fn, st)
		}
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
	cellOf := func(r geom.Vec3) int32 { return int32(lat.Linear(lat.CellOf(r))) }
	slices.SortStableFunc(pos, func(a, b geom.Vec3) int { return int(cellOf(a) - cellOf(b)) })
	cells := make([]int32, natoms)
	for i, r := range pos {
		cells[i] = cellOf(r)
	}
	return pos, cells
}

// TestVisitCellMatchesPerPathReference: resolving the pattern's cells
// once per anchor changes nothing observable. For SC and FS patterns
// at n = 2–4 and stencil radius k = 1–3 (n = 4 at k = 1 only: the
// radius-2 four-body patterns have ~10⁶ paths), on periodic and
// bounded lattices, over CSR and span binnings of the same storage,
// with and without dedup keys, VisitCell emits the same tuples with
// the same image-resolved positions in the same order as the per-path
// reference, and every Stats field agrees.
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
				lo, hi := pattern.BoundingBox()
				span := hi.Sub(lo)
				d := max(3, max(span.X, max(span.Y, span.Z))+1)
				dims := geom.IV(d, d+1, d)
				side := 1.0
				lat, err := cell.NewLatticeDims(geom.NewBox(side*float64(dims.X), side*float64(dims.Y), side*float64(dims.Z)), dims)
				if err != nil {
					t.Fatal(err)
				}
				// One atom per cell of side cutoff/k.
				cutoff := 0.95 * side * float64(k)
				pos, cells := cellSortedSystem(rng, lat, lat.NumCells())
				csr := cell.NewBinning(lat, pos)
				spans := cell.NewBinning(lat, nil)
				if err := spans.RebinSpans(cells); err != nil {
					t.Fatal(err)
				}
				keys := make([]int64, len(pos))
				for i, p := range rng.Perm(len(pos)) {
					keys[i] = int64(p)
				}
				// Up to 24 anchors per lattice (fewer for the largest
				// patterns), corners included, so the bounded mode's
				// out-of-lattice cells are exercised.
				anchors := []geom.IVec3{{}, dims.Sub(geom.IV(1, 1, 1))}
				for len(anchors) < min(24, max(4, 100000/pattern.Len())) {
					anchors = append(anchors, lat.CellAt(rng.Intn(lat.NumCells())))
				}
				for _, bounded := range []bool{false, true} {
					for bi, bin := range []*cell.Binning{csr, spans} {
						ctor := NewEnumerator
						if bounded {
							ctor = NewBoundedEnumerator
						}
						e, err := ctor(bin, pattern, cutoff, fam.dedup)
						if err != nil {
							t.Fatalf("%s n=%d k=%d: %v", fam.name, n, k, err)
						}
						for _, withKeys := range []bool{false, true} {
							label := fmt.Sprintf("%s n=%d k=%d bounded=%v spans=%v keys=%v",
								fam.name, n, k, bounded, bi == 1, withKeys)
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
		}
	}
}
