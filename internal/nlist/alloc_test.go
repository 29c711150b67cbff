package nlist

import (
	"runtime"
	"runtime/debug"
	"testing"

	"sctuple/internal/geom"
)

// TestBuilderRebuildZeroAllocs: once the staging array, the CSR fill
// cursors, and the list storage have reached working capacity, a full
// rebuild — rebin, cell search, degree count, two-direction fill —
// allocates nothing.
func TestBuilderRebuildZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	_, pos, bin := buildSystem(t, 7, 300, 9, geom.IV(4, 4, 4))
	b, err := NewBuilder(bin, 2.2, nil)
	if err != nil {
		t.Fatal(err)
	}
	rebuild := func() {
		bin.Rebin(pos)
		if _, err := b.Build(pos); err != nil {
			t.Error(err)
		}
	}
	for k := 0; k < 3; k++ {
		rebuild()
	}
	if allocs := testing.AllocsPerRun(10, rebuild); allocs != 0 {
		t.Errorf("%g allocs per list rebuild, want 0", allocs)
	}

	// The skin-reuse refresh must be allocation-free as well.
	pl, err := b.Build(pos)
	if err != nil {
		t.Fatal(err)
	}
	box := geom.NewCubicBox(9)
	if allocs := testing.AllocsPerRun(10, func() { pl.Refresh(box, pos) }); allocs != 0 {
		t.Errorf("%g allocs per list refresh, want 0", allocs)
	}
}

// TestBuilderGrowthHeadroom: a rebuild that sets a new high-water mark
// (the gas compressed by 3 %) grows the list storage with an eighth of
// headroom, so rebuilds on configurations fluctuating around it — some
// a little above the new mark — allocate nothing.
func TestBuilderGrowthHeadroom(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	_, pos, bin := buildSystem(t, 7, 300, 9, geom.IV(4, 4, 4))
	const cutoff = 2.2
	b, err := NewBuilder(bin, cutoff, nil)
	if err != nil {
		t.Fatal(err)
	}
	scaled := func(s float64) []geom.Vec3 {
		out := make([]geom.Vec3, len(pos))
		for i, r := range pos {
			out[i] = r.Scale(s)
		}
		return out
	}
	entries := func(p []geom.Vec3) int {
		bin.Rebin(p)
		pl, err := Build(bin, p, cutoff)
		if err != nil {
			t.Fatal(err)
		}
		return pl.NumEntries()
	}
	compressed := scaled(0.97)
	var fluct [][]geom.Vec3
	for _, s := range []float64{0.972, 0.967, 0.975, 0.965, 0.97, 0.968, 0.974, 0.966, 0.971, 0.969} {
		fluct = append(fluct, scaled(s))
	}
	high, peak := entries(compressed), 0
	for _, c := range fluct {
		peak = max(peak, entries(c))
	}
	if base := entries(pos); high <= base || peak <= high || peak > high+high/8 {
		t.Fatalf("want base %d < compressed %d < fluctuating peak %d ≤ compressed + 1/8", base, high, peak)
	}

	rebuild := func(p []geom.Vec3) {
		bin.Rebin(p)
		if _, err := b.Build(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		rebuild(pos)
	}
	rebuild(compressed) // the new high-water mark: may allocate
	// Counted directly: testing.AllocsPerRun truncates the per-run mean,
	// which would hide a handful of reallocations over ten runs. The
	// malloc counter is process-wide, so the window also holds off the
	// garbage collector: a cycle starting inside it (the earlier tests'
	// garbage makes one likelier in a full-suite run) can allocate on
	// the runtime's side and count against the builder.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, c := range fluct {
		rebuild(c)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("%d allocs over %d rebuilds after the new high-water mark, want 0", n, len(fluct))
	}
}
