package cell

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sctuple/internal/geom"
)

func TestNewLatticeDims(t *testing.T) {
	box := geom.NewBox(11, 22, 33)
	lat, err := NewLattice(box, 5.5)
	if err != nil {
		t.Fatal(err)
	}
	if lat.Dims != geom.IV(2, 4, 6) {
		t.Fatalf("dims = %v", lat.Dims)
	}
	// Cell sides must be at least the requested minimum.
	if lat.Side.X < 5.5 || lat.Side.Y < 5.5 || lat.Side.Z < 5.5 {
		t.Fatalf("cell side %v below minimum", lat.Side)
	}
	if lat.NumCells() != 48 {
		t.Fatalf("NumCells = %d", lat.NumCells())
	}
}

func TestNewLatticeTooSmall(t *testing.T) {
	if _, err := NewLattice(geom.NewCubicBox(3), 5); err == nil {
		t.Fatal("expected error for box smaller than cell side")
	}
	if _, err := NewLattice(geom.NewCubicBox(3), -1); err == nil {
		t.Fatal("expected error for negative cell side")
	}
	if _, err := NewLatticeDims(geom.NewCubicBox(3), geom.IV(0, 1, 1)); err == nil {
		t.Fatal("expected error for zero dims")
	}
}

func TestLinearCellAtRoundTrip(t *testing.T) {
	lat, _ := NewLatticeDims(geom.NewBox(3, 4, 5), geom.IV(3, 4, 5))
	for i := 0; i < lat.NumCells(); i++ {
		q := lat.CellAt(i)
		if !q.InBox(lat.Dims) {
			t.Fatalf("CellAt(%d) = %v outside lattice", i, q)
		}
		if lat.Linear(q) != i {
			t.Fatalf("Linear(CellAt(%d)) = %d", i, lat.Linear(q))
		}
	}
}

func TestWrapCell(t *testing.T) {
	lat, _ := NewLatticeDims(geom.NewCubicBox(10), geom.IV(4, 4, 4))
	cases := []struct{ in, want geom.IVec3 }{
		{geom.IV(0, 0, 0), geom.IV(0, 0, 0)},
		{geom.IV(4, 4, 4), geom.IV(0, 0, 0)},
		{geom.IV(-1, -1, -1), geom.IV(3, 3, 3)},
		{geom.IV(5, -6, 9), geom.IV(1, 2, 1)},
	}
	for _, c := range cases {
		if got := lat.WrapCell(c.in); got != c.want {
			t.Errorf("WrapCell(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestWrapCellProperty(t *testing.T) {
	lat, _ := NewLatticeDims(geom.NewCubicBox(10), geom.IV(3, 5, 7))
	f := func(x, y, z int16) bool {
		q := lat.WrapCell(geom.IV(int(x), int(y), int(z)))
		return q.InBox(lat.Dims)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestImageShift(t *testing.T) {
	lat, _ := NewLatticeDims(geom.NewCubicBox(12), geom.IV(4, 4, 4))
	cases := []struct {
		q    geom.IVec3
		want geom.Vec3
	}{
		{geom.IV(1, 2, 3), geom.V(0, 0, 0)},
		{geom.IV(4, 0, 0), geom.V(12, 0, 0)},
		{geom.IV(-1, 0, 0), geom.V(-12, 0, 0)},
		{geom.IV(9, -5, 4), geom.V(24, -24, 12)},
	}
	for _, c := range cases {
		if got := lat.ImageShift(c.q); got != c.want {
			t.Errorf("ImageShift(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestImageShiftConsistentWithWrap(t *testing.T) {
	// Origin(wrapped q) + ImageShift(q) must equal the unwrapped cell
	// origin extrapolated from the lattice.
	lat, _ := NewLatticeDims(geom.NewBox(8, 12, 16), geom.IV(4, 4, 4))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		q := geom.IV(rng.Intn(13)-6, rng.Intn(13)-6, rng.Intn(13)-6)
		w := lat.WrapCell(q)
		got := lat.Origin(w).Add(lat.ImageShift(q))
		want := geom.V(
			float64(q.X)*lat.Side.X,
			float64(q.Y)*lat.Side.Y,
			float64(q.Z)*lat.Side.Z,
		)
		if got.Sub(want).Norm() > 1e-9 {
			t.Fatalf("q=%v: origin+shift=%v, want %v", q, got, want)
		}
	}
}

func TestCellOfClamping(t *testing.T) {
	lat, _ := NewLatticeDims(geom.NewCubicBox(10), geom.IV(3, 3, 3))
	// Position exactly at the box edge (can arise from rounding in
	// Wrap) must clamp to the last cell, not index out of range.
	q := lat.CellOf(geom.V(10, 10, 10))
	if q != geom.IV(2, 2, 2) {
		t.Errorf("CellOf(edge) = %v", q)
	}
}

func TestMinSpanOK(t *testing.T) {
	lat, _ := NewLatticeDims(geom.NewCubicBox(10), geom.IV(3, 4, 5))
	if !lat.MinSpanOK(3) {
		t.Error("3×4×5 lattice should satisfy span 3")
	}
	if lat.MinSpanOK(4) {
		t.Error("3×4×5 lattice should fail span 4")
	}
}

func randomPositions(rng *rand.Rand, n int, box geom.Box) []geom.Vec3 {
	out := make([]geom.Vec3, n)
	for i := range out {
		out[i] = geom.V(rng.Float64()*box.L.X, rng.Float64()*box.L.Y, rng.Float64()*box.L.Z)
	}
	return out
}

func TestBinningValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	box := geom.NewBox(10, 12, 14)
	lat, _ := NewLattice(box, 2.0)
	pos := randomPositions(rng, 500, box)
	b := NewBinning(lat, pos)
	if err := b.Validate(pos); err != nil {
		t.Fatal(err)
	}
	if b.NumAtoms() != 500 {
		t.Fatalf("NumAtoms = %d", b.NumAtoms())
	}
}

func TestBinningAllAtomsExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	box := geom.NewCubicBox(9)
	lat, _ := NewLatticeDims(box, geom.IV(3, 3, 3))
	pos := randomPositions(rng, 200, box)
	b := NewBinning(lat, pos)
	count := make(map[int32]int)
	for ci := 0; ci < lat.NumCells(); ci++ {
		for _, ai := range b.CellAtomsLinear(ci) {
			count[ai]++
		}
	}
	if len(count) != 200 {
		t.Fatalf("binned %d distinct atoms", len(count))
	}
	for ai, c := range count {
		if c != 1 {
			t.Fatalf("atom %d binned %d times", ai, c)
		}
	}
}

func TestBinningAtomsInsideTheirCell(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	box := geom.NewCubicBox(8)
	lat, _ := NewLatticeDims(box, geom.IV(4, 4, 4))
	pos := randomPositions(rng, 300, box)
	b := NewBinning(lat, pos)
	for ci := 0; ci < lat.NumCells(); ci++ {
		q := lat.CellAt(ci)
		lo := lat.Origin(q)
		for _, ai := range b.CellAtomsLinear(ci) {
			r := pos[ai]
			for c := 0; c < 3; c++ {
				if r.Comp(c) < lo.Comp(c)-1e-12 || r.Comp(c) > lo.Comp(c)+lat.Side.Comp(c)+1e-12 {
					t.Fatalf("atom %d at %v outside cell %v", ai, r, q)
				}
			}
		}
	}
}

func TestRebinReusesStorageAndTracksMoves(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	box := geom.NewCubicBox(6)
	lat, _ := NewLatticeDims(box, geom.IV(3, 3, 3))
	pos := randomPositions(rng, 100, box)
	b := NewBinning(lat, pos)
	// Move every atom and rebin.
	for i := range pos {
		pos[i] = box.Wrap(pos[i].Add(geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())))
	}
	b.Rebin(pos)
	if err := b.Validate(pos); err != nil {
		t.Fatal(err)
	}
	// Rebin with fewer atoms must shrink cleanly.
	b.Rebin(pos[:10])
	if err := b.Validate(pos[:10]); err != nil {
		t.Fatal(err)
	}
}

// TestRebinCellsKeyedFluctuatingZeroAllocs: a keyed CSR rebin whose
// atom count grows to a working size and then fluctuates — each call
// dipping and then setting a new high-water mark, as a rank's
// owned-plus-halo count does under thermal motion — allocates nothing
// once warm, because the per-atom arrays keep an eighth of headroom.
func TestRebinCellsKeyedFluctuatingZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lat, _ := NewLatticeDims(geom.NewCubicBox(8), geom.IV(4, 4, 4))
	const base = 800
	cells := make([]int32, base+base/8)
	keys := make([]int64, len(cells))
	for i := range cells {
		cells[i] = int32(rng.Intn(lat.NumCells()))
		keys[i] = int64(len(cells) - i) // reverse storage order: every cell list sorts
	}
	var b Binning
	b.Lat = lat
	for n := 100; n <= base; n += 100 {
		b.RebinCellsKeyed(cells[:n], keys)
	}
	n := base
	allocs := testing.AllocsPerRun(20, func() {
		n += 4
		b.RebinCellsKeyed(cells[:n-50], keys)
		b.RebinCellsKeyed(cells[:n], keys)
	})
	if allocs != 0 {
		t.Errorf("%g allocs per fluctuating rebin, want 0", allocs)
	}
	if n > len(cells) {
		t.Fatalf("fluctuation reached %d atoms, past the %d-atom headroom", n, len(cells))
	}
	for c := 0; c < lat.NumCells(); c++ {
		list := b.CellAtomsLinear(c)
		for i, a := range list {
			if int(cells[a]) != c || (i > 0 && keys[list[i-1]] > keys[a]) {
				t.Fatalf("cell %d list %v not the key-ordered members", c, list)
			}
		}
	}
}

func TestCellAtomsWrapsOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	box := geom.NewCubicBox(9)
	lat, _ := NewLatticeDims(box, geom.IV(3, 3, 3))
	pos := randomPositions(rng, 100, box)
	b := NewBinning(lat, pos)
	for i := 0; i < 50; i++ {
		q := geom.IV(rng.Intn(9)-3, rng.Intn(9)-3, rng.Intn(9)-3)
		a := b.CellAtoms(q)
		w := b.CellAtoms(lat.WrapCell(q))
		if len(a) != len(w) {
			t.Fatalf("CellAtoms(%v) inconsistent with wrapped", q)
		}
		for j := range a {
			if a[j] != w[j] {
				t.Fatalf("CellAtoms(%v) inconsistent with wrapped", q)
			}
		}
	}
}

func TestOccupancyStats(t *testing.T) {
	box := geom.NewCubicBox(4)
	lat, _ := NewLatticeDims(box, geom.IV(2, 2, 2))
	// 5 atoms in one cell, none elsewhere.
	pos := make([]geom.Vec3, 5)
	for i := range pos {
		pos[i] = geom.V(0.5, 0.5, 0.5)
	}
	b := NewBinning(lat, pos)
	if b.MaxOccupancy() != 5 {
		t.Errorf("MaxOccupancy = %d", b.MaxOccupancy())
	}
	if b.MeanOccupancy() != 5.0/8.0 {
		t.Errorf("MeanOccupancy = %g", b.MeanOccupancy())
	}
}

func TestBinningStableOrder(t *testing.T) {
	// Atoms within a cell keep ascending index order (stability), which
	// downstream enumeration relies on for deterministic output.
	box := geom.NewCubicBox(4)
	lat, _ := NewLatticeDims(box, geom.IV(2, 2, 2))
	pos := []geom.Vec3{
		geom.V(0.5, 0.5, 0.5),
		geom.V(3.5, 3.5, 3.5),
		geom.V(0.7, 0.7, 0.7),
		geom.V(0.1, 0.1, 0.1),
	}
	b := NewBinning(lat, pos)
	got := b.CellAtoms(geom.IV(0, 0, 0))
	want := []int32{0, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("cell atoms = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell atoms = %v, want %v", got, want)
		}
	}
}
