package tuple

import (
	"fmt"
	"math/rand"
	"testing"

	"sctuple/internal/cell"
	"sctuple/internal/core"
	"sctuple/internal/geom"
)

func discard([]int32, []geom.Vec3) {}

// TestVisitCellsPrefixZeroAllocs: once warm, enumeration allocates
// nothing — not the per-anchor gather, not the prefix-chain levels.
// SC(3), FS(3) and SC(4) run periodic and bounded over a span binning
// and a keyed CSR binning (the two layouts parallel ranks use). Each
// binning is then rebinned in place onto a denser configuration whose
// chains set a new high-water mark: one warm-up pass may grow the
// scratch, after which enumeration is again allocation-free. Every case
// runs with and without a species link table.
func TestVisitCellsPrefixZeroAllocs(t *testing.T) {
	dims := geom.IV(6, 6, 6)
	lat, err := cell.NewLatticeDims(geom.NewCubicBox(6), dims)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	sparse, sparseCells := cellSortedSystem(rng, lat, lat.NumCells())
	dense, denseCells := cellSortedSystem(rng, lat, 3*lat.NumCells())
	keys := make([]int64, len(dense))
	for i, p := range rng.Perm(len(dense)) {
		keys[i] = int64(p)
	}
	anchors := []geom.IVec3{{}, dims.Sub(geom.IV(1, 1, 1))}
	for len(anchors) < 12 {
		anchors = append(anchors, lat.CellAt(rng.Intn(lat.NumCells())))
	}
	layouts := []struct {
		name  string
		rebin func(b *cell.Binning, cells []int32) error
	}{
		{"spans", func(b *cell.Binning, cells []int32) error { return b.RebinSpans(cells) }},
		{"keyed-csr", func(b *cell.Binning, cells []int32) error {
			b.RebinCellsKeyed(cells, keys)
			return nil
		}},
	}
	species, links := linkCase(len(dense))
	for _, pattern := range []*core.Pattern{core.SC(3), core.FS(3), core.SC(4)} {
		for _, bounded := range []bool{false, true} {
			for _, c := range []struct {
				layout int
				links  bool
			}{{0, false}, {1, false}, {0, true}, {1, true}} {
				layout := layouts[c.layout]
				name := fmt.Sprintf("n=%d paths=%d bounded=%v %s links=%v", pattern.N(), pattern.Len(), bounded, layout.name, c.links)
				bin := &cell.Binning{Lat: lat}
				if err := layout.rebin(bin, sparseCells); err != nil {
					t.Fatal(err)
				}
				ctor := NewEnumerator
				if bounded {
					ctor = NewBoundedEnumerator
				}
				e, err := ctor(bin, pattern, 0.95, DedupAuto)
				if err != nil {
					t.Fatal(err)
				}
				e.SetKeys(keys)
				if c.links {
					e.SetLinks(species, links)
				}
				var st Stats
				pos := sparse
				pass := func() { e.VisitCellsInto(anchors, pos, discard, &st) }
				pass()
				if allocs := testing.AllocsPerRun(3, pass); allocs != 0 {
					t.Errorf("%s: %g allocs per pass, want 0", name, allocs)
				}
				high := cap(e.chainAtoms[e.n-2])
				if err := layout.rebin(bin, denseCells); err != nil {
					t.Fatal(err)
				}
				pos = dense
				pass()
				if grown := cap(e.chainAtoms[e.n-2]); grown <= high {
					t.Fatalf("%s: dense chain scratch %d did not pass the sparse high-water mark %d", name, grown, high)
				}
				if allocs := testing.AllocsPerRun(3, pass); allocs != 0 {
					t.Errorf("%s: %g allocs per pass after the new high, want 0", name, allocs)
				}
				if st.Emitted == 0 {
					t.Errorf("%s: nothing emitted; the case exercises no chains", name)
				}
				if c.links && st.LinkCut == 0 {
					t.Errorf("%s: the link table cut nothing", name)
				}
			}
		}
	}
}
