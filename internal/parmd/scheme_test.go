package parmd

import (
	"fmt"
	"math"
	"testing"

	"sctuple/internal/comm"
	"sctuple/internal/geom"
	"sctuple/internal/potential"
	"sctuple/internal/workload"
)

// TestSchemeLattice pins the decomposition lattice of each scheme.
// SC-MD rounds every split axis down to a multiple of its ranks and
// thickens the other axes to match, unless that would leave fewer than
// 3 cells or fewer than one halo slab per rank; FS-MD and Hybrid-MD
// keep the densest lattice of cells no thinner than the largest
// cutoff. Boxes are β-cristobalite unit cells (7.16 Å) per axis. On
// the sc-fine configuration and on 6³ unit cells a 20-step SC run then
// keeps every rank's owned atoms within 2 % of the mean.
func TestSchemeLattice(t *testing.T) {
	model := potential.NewSilicaModel()
	cases := []struct {
		scheme Scheme
		uc     geom.IVec3 // unit cells per axis
		ranks  geom.IVec3
		want   geom.IVec3
		run    bool // run 20 steps and check the owned balance
	}{
		{SchemeSC, geom.IV(4, 4, 4), comm.NewCart(2).Dims, geom.IV(4, 4, 4), true}, // sc-fine: 5³ → 4³
		{SchemeSC, geom.IV(6, 6, 6), comm.NewCart(2).Dims, geom.IV(6, 6, 6), true}, // 7³ → 6³
		{SchemeSC, geom.IV(4, 4, 4), geom.IV(2, 2, 2), geom.IV(4, 4, 4), false},
		{SchemeSC, geom.IV(3, 3, 3), comm.NewCart(2).Dims, geom.IV(3, 3, 3), false}, // 2 < 3 cells: floor
		{SchemeSC, geom.IV(5, 4, 4), geom.IV(2, 1, 1), geom.IV(6, 4, 4), false},     // 6×5×5: y, z thicken to 5.97 Å
		{SchemeSC, geom.IV(6, 6, 6), geom.IV(1, 2, 3), geom.IV(6, 6, 6), false},
		{SchemeSC, geom.IV(4, 4, 4), geom.IV(3, 1, 1), geom.IV(3, 3, 3), false}, // 5 → 3, the rest to 9.55 Å
		{SchemeFS, geom.IV(4, 4, 4), comm.NewCart(2).Dims, geom.IV(5, 5, 5), false},
		{SchemeHybrid, geom.IV(4, 4, 4), comm.NewCart(2).Dims, geom.IV(5, 5, 5), false},
		{SchemeFS, geom.IV(5, 4, 4), geom.IV(2, 1, 1), geom.IV(6, 5, 5), false},
		{SchemeHybrid, geom.IV(6, 6, 6), geom.IV(1, 2, 3), geom.IV(7, 7, 7), false},
	}
	for _, c := range cases {
		label := fmt.Sprintf("%v %v unit cells on %v ranks", c.scheme, c.uc, c.ranks)
		cfg := workload.BetaCristobalite(c.uc.X, c.uc.Y, c.uc.Z)
		cart, err := comm.NewCartDims(c.ranks)
		if err != nil {
			t.Fatal(err)
		}
		lat, err := c.scheme.lattice(cfg.Box, model, cart)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if lat.Dims != c.want {
			t.Errorf("%s: %v cells, want %v", label, lat.Dims, c.want)
		}
		for axis := 0; axis < 3; axis++ {
			if lat.Side.Comp(axis) < model.MaxCutoff() {
				t.Errorf("%s: axis %d cell side %.3f Å below the cutoff", label, axis, lat.Side.Comp(axis))
			}
		}
		if !c.run || testing.Short() {
			continue
		}
		cfg, _ = silicaConfig(t, c.uc.X, 300, 101)
		res, err := Run(cfg, model, Options{Scheme: c.scheme, Cart: cart, Dt: 0.5, Steps: 20})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res.Cells != c.want {
			t.Errorf("%s: run laid %v cells, want %v", label, res.Cells, c.want)
		}
		if imb := res.OwnedImbalance(); imb > 1.02 {
			t.Errorf("%s: owned atoms max/mean %.3f after 20 steps, want ≤ 1.02", label, imb)
		}
	}
	// The even lattice leaves SC-MD's lists the 0.98 Å skin of its
	// 3.58 Å triplet sub-cells on sc-fine.
	lat, err := SchemeSC.lattice(workload.BetaCristobalite(4, 4, 4).Box, model, comm.NewCart(2))
	if err != nil {
		t.Fatal(err)
	}
	if s := SchemeSC.skin(model, minSide(lat.Side)); math.Abs(s-0.98) > 0.005 {
		t.Errorf("sc-fine SC skin %.4f Å, want 0.98", s)
	}
}
