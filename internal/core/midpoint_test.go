package core

import (
	"fmt"
	"math/rand"
	"testing"

	"sctuple/internal/geom"
)

func TestStencilOffsets(t *testing.T) {
	if got := len(StencilOffsets(1)); got != 27 {
		t.Errorf("radius-1 stencil has %d offsets", got)
	}
	if got := len(StencilOffsets(2)); got != 125 {
		t.Errorf("radius-2 stencil has %d offsets", got)
	}
	for _, d := range StencilOffsets(2) {
		if d.X < -2 || d.X > 2 || d.Y < -2 || d.Y > 2 || d.Z < -2 || d.Z > 2 {
			t.Fatalf("offset %v outside radius 2", d)
		}
	}
}

func TestGenerateFSRadiusReducesToFS(t *testing.T) {
	for n := 2; n <= 3; n++ {
		if !GenerateFSRadius(n, 1).Equal(GenerateFS(n)) {
			t.Errorf("GenerateFSRadius(%d, 1) != GenerateFS(%d)", n, n)
		}
	}
}

func TestSCRadiusReducesToSC(t *testing.T) {
	for n := 2; n <= 3; n++ {
		if !SCRadius(n, 1).Equal(SC(n)) {
			t.Errorf("SCRadius(%d, 1) != SC(%d)", n, n)
		}
	}
}

func TestRadiusPathCounts(t *testing.T) {
	// m = (2k+1)³: FS = m^(n-1), SC = ½(m^(n-1) + m^(⌈n/2⌉-1)).
	cases := []struct{ n, k, fs, sc int }{
		{2, 1, 27, 14},
		{2, 2, 125, 63},
		{2, 3, 343, 172},
		{3, 2, 15625, 7875},
	}
	for _, c := range cases {
		if got := FSPathCountRadius(c.n, c.k); got != c.fs {
			t.Errorf("FSPathCountRadius(%d,%d) = %d, want %d", c.n, c.k, got, c.fs)
		}
		if got := SCPathCountRadius(c.n, c.k); got != c.sc {
			t.Errorf("SCPathCountRadius(%d,%d) = %d, want %d", c.n, c.k, got, c.sc)
		}
		if got := GenerateFSRadius(c.n, c.k).Len(); got != c.fs {
			t.Errorf("|GenerateFSRadius(%d,%d)| = %d, want %d", c.n, c.k, got, c.fs)
		}
		if got := SCRadius(c.n, c.k).Len(); got != c.sc {
			t.Errorf("|SCRadius(%d,%d)| = %d, want %d", c.n, c.k, got, c.sc)
		}
	}
}

func TestSCRadiusComplete(t *testing.T) {
	for _, c := range []struct{ n, k int }{{2, 2}, {2, 3}, {3, 2}} {
		sc := SCRadius(c.n, c.k)
		if !sc.IsCompleteRadius(c.k) {
			t.Errorf("SCRadius(%d,%d) not complete on radius-%d lattice", c.n, c.k, c.k)
		}
		if sc.RedundancyCount() != 0 {
			t.Errorf("SCRadius(%d,%d) has redundant paths", c.n, c.k)
		}
	}
	// A radius-1 pattern is NOT complete on a radius-2 lattice.
	if SC(2).IsCompleteRadius(2) {
		t.Error("SC(2) wrongly complete for radius-2 steps")
	}
}

func TestSCRadiusOctantCoverage(t *testing.T) {
	for _, c := range []struct{ n, k int }{{2, 2}, {3, 2}} {
		sc := SCRadius(c.n, c.k)
		if !sc.InFirstOctant() {
			t.Errorf("SCRadius(%d,%d) not in first octant", c.n, c.k)
		}
		_, hi := sc.BoundingBox()
		limit := (c.n - 1) * c.k
		if hi.X > limit || hi.Y > limit || hi.Z > limit {
			t.Errorf("SCRadius(%d,%d) coverage %v exceeds (n-1)k = %d", c.n, c.k, hi, limit)
		}
	}
}

func TestStepRadius(t *testing.T) {
	if got := SC(3).StepRadius(); got != 1 {
		t.Errorf("SC(3) step radius %d", got)
	}
	if got := SCRadius(2, 3).StepRadius(); got != 3 {
		t.Errorf("SCRadius(2,3) step radius %d", got)
	}
	p := NewPattern(2, NewPath(geom.IV(0, 0, 0), geom.IV(0, -4, 1)))
	if got := p.StepRadius(); got != 4 {
		t.Errorf("custom pattern step radius %d, want 4", got)
	}
}

func TestMidpointAnalysisMonotone(t *testing.T) {
	// §6: finer cells shrink the per-atom search space monotonically.
	rows := MidpointAnalysis(2, 4, 11.0)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].SearchPerAtom >= rows[i-1].SearchPerAtom {
			t.Errorf("search space not decreasing at k=%d: %g >= %g",
				rows[i].K, rows[i].SearchPerAtom, rows[i-1].SearchPerAtom)
		}
	}
	// k = 1 matches Lemma 5 directly: 14·ρ.
	if got, want := rows[0].SearchPerAtom, 14*11.0; got != want {
		t.Errorf("k=1 search space %g, want %g", got, want)
	}
	// Every k matches the closed form ((2k+1)³+1)/2 · ρ/k³ exactly,
	// approaching the geometric limit 4ρ (a (2r)³/2 box) as k → ∞.
	for _, r := range rows {
		m := (2*r.K + 1) * (2*r.K + 1) * (2*r.K + 1)
		want := float64(m+1) / 2 * 11.0 / float64(r.K*r.K*r.K)
		if diff := r.SearchPerAtom - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("k=%d search space %g, want %g", r.K, r.SearchPerAtom, want)
		}
	}
}

// TestSCPathsAnchorAtMinimum: every path of SC(n) and SCRadius(n, k)
// has per-axis minimum offset exactly 0, so the anchor cell of any
// tuple it generates is the component-wise minimum of the tuple's
// cells. Rank-parallel SC-MD rests its ownership argument on this:
// on a sub-cell lattice nested in the pair lattice, the anchor's
// parent pair cell is then the component-wise minimum of the tuple's
// pair cells, an integer every rank agrees on. Checked exhaustively
// for n = 2–4 at k = 1 and n = 2–3 at k = 2–3; the four-body radius-2
// and radius-3 patterns have 10⁶–10⁷ paths, and since R-COLLAPSE only
// removes paths the property is OC-SHIFT's, checked there on random
// four-body radius-k paths.
func TestSCPathsAnchorAtMinimum(t *testing.T) {
	check := func(label string, ps *Pattern) {
		t.Helper()
		for _, p := range ps.Paths() {
			if lo, _ := p.BoundingBox(); lo != (geom.IVec3{}) {
				t.Errorf("%s: path %v has per-axis minimum %v, want 0", label, p, lo)
				return
			}
		}
	}
	for n := 2; n <= 4; n++ {
		check(fmt.Sprintf("SC(%d)", n), SC(n))
	}
	for k := 2; k <= 3; k++ {
		for n := 2; n <= 3; n++ {
			check(fmt.Sprintf("SCRadius(%d,%d)", n, k), SCRadius(n, k))
		}
	}
	rng := rand.New(rand.NewSource(4))
	for k := 2; k <= 3; k++ {
		seen := map[string]bool{}
		var paths []Path
		for len(paths) < 2000 {
			p := make(Path, 4)
			for i := 1; i < len(p); i++ {
				p[i] = p[i-1].Add(geom.IV(rng.Intn(2*k+1)-k, rng.Intn(2*k+1)-k, rng.Intn(2*k+1)-k))
			}
			if !seen[p.Key()] {
				seen[p.Key()] = true
				paths = append(paths, p)
			}
		}
		check(fmt.Sprintf("OCShift(radius-%d four-body sample)", k), OCShift(NewPattern(4, paths...)))
	}
}
