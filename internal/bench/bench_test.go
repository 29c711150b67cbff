package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"sctuple/internal/comm"
	"sctuple/internal/parmd"
	"sctuple/internal/perfmodel"
	"sctuple/internal/potential"
	"sctuple/internal/workload"
)

func TestPatternsReportContent(t *testing.T) {
	var buf bytes.Buffer
	PatternsReport(&buf, 4)
	out := buf.String()
	for _, want := range []string{
		"27 (27)", "14 (14)", "729 (729)", "378 (378)", "19683 (19683)", "9855 (9855)",
		"eighth-shell",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("patterns report missing %q", want)
		}
	}
}

func TestImportsReportContent(t *testing.T) {
	var buf bytes.Buffer
	ImportsReport(&buf, []int{2, 3}, []int{4, 8})
	out := buf.String()
	// Exact == formula for n=3, l=8: 488 and 1216.
	if !strings.Contains(out, "488") || !strings.Contains(out, "1216") {
		t.Errorf("imports report missing Eq.33 values:\n%s", out)
	}
}

func TestMidpointReportContent(t *testing.T) {
	var buf bytes.Buffer
	MidpointReport(&buf, 2, 3, 11.0)
	out := buf.String()
	for _, want := range []string{"14", "63", "172", "1.00×"} {
		if !strings.Contains(out, want) {
			t.Errorf("midpoint report missing %q:\n%s", want, out)
		}
	}
}

func TestFig7RatioNearTwo(t *testing.T) {
	rows, err := Fig7([]int{5, 8}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if math.Abs(r.Ratio-2.0) > 0.05 {
			t.Errorf("cells=%d: FS/SC ratio %.3f, want ≈ 2 (paper 2.13)", r.Cells, r.Ratio)
		}
		if r.SCTriplets <= 0 || r.FSTriplets <= r.SCTriplets {
			t.Errorf("cells=%d: counts SC %d FS %d", r.Cells, r.SCTriplets, r.FSTriplets)
		}
	}
	// Linear growth: triplets per cell roughly constant.
	perCell0 := float64(rows[0].SCTriplets) / float64(rows[0].Cells)
	perCell1 := float64(rows[1].SCTriplets) / float64(rows[1].Cells)
	if math.Abs(perCell1-perCell0)/perCell0 > 0.25 {
		t.Errorf("triplet density not size-invariant: %.1f vs %.1f per cell", perCell0, perCell1)
	}
}

func TestFig8ReportRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig8Report(&buf, perfmodel.IntelXeon(), []float64{24, 425, 2095}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "crossover") {
		t.Error("fig8 report missing crossover line")
	}
}

func TestFig9ReportRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig9Report(&buf, perfmodel.BlueGeneQ(), 0.79e6, []int{16, 1024, 8192}, 16, 4); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "100.0%") {
		t.Errorf("fig9 report missing reference row:\n%s", out)
	}
}

func TestValidateAgreesWithModel(t *testing.T) {
	rows, err := Validate(3000, []int{8}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// Import volumes should agree within edge effects (~25%).
		if rel := math.Abs(r.MeasuredImport-r.ModelImport) / r.ModelImport; rel > 0.3 {
			t.Errorf("%v: import measured %.0f vs model %.0f (rel %.2f)",
				r.Scheme, r.MeasuredImport, r.ModelImport, rel)
		}
	}
}

// TestValidateOverlapHidesWait: the overlapped (default) exchange
// must hide the halo-import latency the synchronous baseline Validate
// runs alongside it pays — the point of posting the halo before the
// interior stage. In-process channels deliver in nanoseconds, so both
// runs go over the channel transport with a wire delay: every
// cross-rank message arrives a fixed latency after its send. Without overlap, each
// evaluation's halo receives wait about that latency per task; with
// it, the interior stage covers it. The world is 2 ranks (one per CPU
// of a small host) on 24,000 atoms, big enough that every scheme has
// interior cells. A sweep where a scheme hides less than half the
// latency is retried a few times; only a consistent miss fails.
func TestValidateOverlapHidesWait(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison over real runs")
	}
	const (
		nAtoms  = 24000 // 10³ β-cristobalite unit cells
		latency = 2 * time.Millisecond
		ms      = float64(latency) / float64(time.Millisecond)
	)
	// Precondition: FS- and Hybrid-MD import n_max − 1 cells on each
	// side of a block and SC-MD at most that on one side; an axis has
	// interior cells when its block is thicker than both margins.
	model := potential.NewSilicaModel()
	cfg := workload.BetaCristobalite(cube(nAtoms / 24))
	dec, err := parmd.NewDecomp(cfg.Box, model.MaxCutoff(), comm.NewCart(2))
	if err != nil {
		t.Fatal(err)
	}
	if got, need := dec.MinBlockDim(), 2*(model.MaxN()-1)+1; got < need {
		t.Fatalf("thinnest block is %d cells, need %d for every scheme to have interior cells", got, need)
	}

	const attempts = 4
	var last []ValidateRow
	for a := 0; a < attempts; a++ {
		rows, err := validateInto(nil, nAtoms, []int{2}, 2, 1, latency)
		if err != nil {
			t.Fatal(err)
		}
		ok := true
		for _, r := range rows {
			if !(r.SyncWaitMs-r.WaitMs >= ms/2) || !(r.OverlapFrac > 0 && r.OverlapFrac <= 1) {
				ok = false
			}
		}
		if ok {
			return
		}
		last = rows
	}
	for _, r := range last {
		t.Errorf("%v on %d tasks with %v latency: overlapped wait %.3f ms vs sync %.3f ms, want at least %.3f ms shorter (overlap %.2f) after %d attempts",
			r.Scheme, r.Tasks, latency, r.WaitMs, r.SyncWaitMs, ms/2, r.OverlapFrac, attempts)
	}
}
