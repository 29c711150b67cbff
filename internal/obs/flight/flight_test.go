package flight

import (
	"os"
	"path/filepath"
	"testing"

	"sctuple/internal/obs"
	"sctuple/internal/obs/health"
)

// mkRec builds one step record; phases/counters may be nil.
func mkRec(step, rank int, wallNs int64, phases, counters map[string]int64) obs.StepRecord {
	return obs.StepRecord{
		Step: step, Rank: rank, WallNs: wallNs,
		TNs:     int64(step+1) * 1_000_000,
		PhaseNs: phases, Counters: counters,
	}
}

func TestHistoryRawRing(t *testing.T) {
	r := New(Config{Ranks: 1, RawSteps: 4})
	for step := 0; step < 6; step++ {
		r.ObserveStep(mkRec(step, 0, int64(1000+step),
			map[string]int64{"halo": int64(10 * (step + 1))},
			map[string]int64{"comm_wait_ns": int64(step)}))
	}
	snap := r.History(1, nil)
	if snap.Ranks != 1 || len(snap.Records) != 4 {
		t.Fatalf("raw snapshot: ranks=%d records=%d, want 1/4", snap.Ranks, len(snap.Records))
	}
	first, last := snap.Records[0], snap.Records[3]
	if first.Step != 2 || last.Step != 5 {
		t.Fatalf("ring window [%d..%d], want [2..5]", first.Step, last.Step)
	}
	if last.WallNs != 1005 || last.TNs != 6_000_000 {
		t.Errorf("last record wall=%d t=%d, want 1005/6000000", last.WallNs, last.TNs)
	}
	if last.PhaseNs["halo"] != 60 || last.Counters["comm_wait_ns"] != 5 {
		t.Errorf("last record fields: %+v %+v", last.PhaseNs, last.Counters)
	}
	if got := r.Records(); got != 6 {
		t.Errorf("Records()=%d, want 6", got)
	}

	// Field filtering: keep the phase, drop the counter.
	snap = r.History(1, []string{"halo"})
	rec := snap.Records[0]
	if len(rec.PhaseNs) != 1 || len(rec.Counters) != 0 {
		t.Errorf("filtered record carries %+v %+v, want only phase.halo", rec.PhaseNs, rec.Counters)
	}
}

func TestHistoryAggregates(t *testing.T) {
	r := New(Config{Ranks: 1, AggBuckets: 8})
	for step := 0; step < 30; step++ {
		r.ObserveStep(mkRec(step, 0, int64(step), nil, nil))
	}
	snap := r.History(10, nil)
	if len(snap.Buckets) != 3 {
		t.Fatalf("res-10 buckets=%d, want 3", len(snap.Buckets))
	}
	b := snap.Buckets[0]
	if b.Step != 0 || b.Steps != 10 || b.Count != 10 {
		t.Fatalf("bucket 0: %+v", b)
	}
	fs, ok := b.Fields["wall_ns"]
	if !ok {
		t.Fatal("bucket 0 missing wall_ns")
	}
	if fs.Min != 0 || fs.Max != 9 || fs.Mean != 4.5 || fs.Count != 10 {
		t.Errorf("wall_ns agg = %+v, want min 0 max 9 mean 4.5 n 10", fs)
	}
	if snap.Buckets[2].Step != 20 {
		t.Errorf("bucket 2 start=%d, want 20", snap.Buckets[2].Step)
	}
	if got := r.History(100, nil); len(got.Buckets) != 1 || got.Buckets[0].Count != 30 {
		t.Errorf("res-100 snapshot: %+v", got.Buckets)
	}
}

// spikeRecorder feeds a steady 2-rank run with one huge wall-time
// spike at step 40 — the canonical wall-anomaly fixture shared by the
// detector and bundle tests.
func spikeRecorder(reg *obs.Registry) *Recorder {
	r := New(Config{
		Ranks: 2, Registry: reg,
		Detect: DetectConfig{Warmup: 10, Cooldown: 5},
	})
	for step := 0; step < 60; step++ {
		wall := int64(1_000_000)
		if step == 40 {
			wall = 100_000_000
		}
		for rank := 0; rank < 2; rank++ {
			r.ObserveStep(mkRec(step, rank, wall, nil, nil))
		}
	}
	return r
}

func TestWallSpikeDetector(t *testing.T) {
	reg := obs.NewRegistry()
	r := spikeRecorder(reg)
	snap := r.Anomalies()
	if snap.Total != 1 {
		t.Fatalf("anomalies=%d (%+v), want exactly the spike", snap.Total, snap.Anomalies)
	}
	a := snap.Anomalies[0]
	if a.Kind != KindWall || a.Step != 40 || !a.Hard {
		t.Errorf("anomaly = %+v, want hard wall at step 40", a)
	}
	if a.Score < 16 {
		t.Errorf("spike z-score %.1f, want >= hard threshold", a.Score)
	}
	if got := reg.Counter("anomaly.wall.total").Load(); got != 1 {
		t.Errorf("anomaly.wall.total=%d, want 1", got)
	}
	if r.CompletedSteps() != 60 {
		t.Errorf("completed=%d, want 60", r.CompletedSteps())
	}
}

// TestWallEscalationBeatsCooldown: a warning-level wall spike must not
// hold back a hard spike that follows inside its cooldown window —
// the run that only recorded the warning would replay as healthy. A
// second hard spike inside the window stays suppressed.
func TestWallEscalationBeatsCooldown(t *testing.T) {
	r := New(Config{Ranks: 1, Detect: DetectConfig{Warmup: 10, Cooldown: 50}})
	for step := 0; step < 60; step++ {
		wall := int64(1_000_000)
		switch step {
		case 20:
			wall = 1_500_000 // z = 10 against the 5% sigma floor: a warning
		case 30:
			wall = 100_000_000 // z ≈ 1900: hard
		case 40:
			wall = 1_000_000_000 // z ≈ 150 even after step 30 widened sigma: hard
		}
		r.ObserveStep(mkRec(step, 0, wall, nil, nil))
	}
	snap := r.Anomalies()
	if snap.Total != 2 {
		t.Fatalf("anomalies=%d (%+v), want the warning and the first hard spike", snap.Total, snap.Anomalies)
	}
	if a := snap.Anomalies[0]; a.Kind != KindWall || a.Step != 20 || a.Hard {
		t.Errorf("first anomaly = %+v, want a soft wall warning at step 20", a)
	}
	if a := snap.Anomalies[1]; a.Kind != KindWall || a.Step != 30 || !a.Hard {
		t.Errorf("second anomaly = %+v, want a hard wall spike at step 30", a)
	}
}

func TestImbalanceDetector(t *testing.T) {
	r := New(Config{
		Ranks:  2,
		Detect: DetectConfig{Warmup: 5, ImbalanceWarn: 1.6, ImbalanceSteps: 5, Cooldown: 10},
	})
	// rank 1 takes 5× rank 0: imbalance max/mean = 5/3 ≈ 1.67.
	for step := 0; step < 40; step++ {
		r.ObserveStep(mkRec(step, 0, 1_000_000, nil, nil))
		r.ObserveStep(mkRec(step, 1, 5_000_000, nil, nil))
	}
	snap := r.Anomalies()
	if snap.ByKind[KindImbalance] == 0 {
		t.Fatalf("no imbalance anomaly fired: %+v", snap.Anomalies)
	}
	a := *snap.Last
	if a.Kind != KindImbalance || a.Value < 1.6 {
		t.Errorf("imbalance anomaly = %+v", a)
	}
}

func TestCommWaitDetector(t *testing.T) {
	r := New(Config{
		Ranks:  1,
		Detect: DetectConfig{Warmup: 5, Cooldown: 10},
	})
	step := 0
	feed := func(n int, waitNs int64) {
		for i := 0; i < n; i++ {
			r.ObserveStep(mkRec(step, 0, 1_000_000, nil,
				map[string]int64{"comm_wait_ns": waitNs}))
			step++
		}
	}
	feed(20, 50_000)  // 5% wait: healthy baseline
	feed(10, 800_000) // 80% wait: comm degraded mid-run
	snap := r.Anomalies()
	if snap.ByKind[KindCommWait] == 0 {
		t.Fatalf("no comm_wait anomaly fired: %+v", snap.Anomalies)
	}
	if a := *snap.Last; a.Value < 0.15 {
		t.Errorf("comm_wait anomaly = %+v, want fast EWMA above floor", a)
	}
}

func TestModelResidualDetector(t *testing.T) {
	r := New(Config{
		Ranks:  1,
		Detect: DetectConfig{Warmup: 5, ModelBand: 3, ModelSteps: 5, Cooldown: 10},
	})
	r.SetPrediction(Prediction{ComputeNs: 1_000_000, CommNs: 500_000})
	// Measured force time 5× the model's expectation, comm on-model.
	for step := 0; step < 30; step++ {
		r.ObserveStep(mkRec(step, 0, 6_000_000,
			map[string]int64{"force:interior": 5_000_000, "halo": 500_000}, nil))
	}
	snap := r.Anomalies()
	if snap.ByKind[KindModel] == 0 {
		t.Fatalf("no model anomaly fired: %+v", snap.Anomalies)
	}
	a := *snap.Last
	if a.Phase != "compute" || a.Value < 3 {
		t.Errorf("model anomaly = %+v, want compute residual ratio >= band", a)
	}
}

func TestHealthDetector(t *testing.T) {
	mon := health.New(health.Config{Every: 1})
	r := New(Config{Ranks: 1, Detect: DetectConfig{Warmup: 5, Cooldown: 10}, Health: mon})
	for step := 0; step < 10; step++ {
		mon.ObserveAtomCount(step, 100, 100)
		r.ObserveStep(mkRec(step, 0, 1_000_000, nil, nil))
	}
	if n := r.Anomalies().Total; n != 0 {
		t.Fatalf("healthy run produced %d anomalies", n)
	}
	mon.ObserveAtomCount(10, 99, 100) // an atom went missing: probe fails
	r.ObserveStep(mkRec(10, 0, 1_000_000, nil, nil))
	snap := r.Anomalies()
	if snap.ByKind[KindHealth] != 1 {
		t.Fatalf("health anomaly missing: %+v", snap.Anomalies)
	}
	if a := *snap.Last; !a.Hard || a.Step != 10 {
		t.Errorf("health anomaly = %+v, want hard at step 10", a)
	}
}

func TestAnomalyTeeEventAndLog(t *testing.T) {
	tee := obs.NewStepTee()
	sub := tee.Subscribe(4)
	r := New(Config{Ranks: 1, Tee: tee})
	r.RecordAbort(7, "rank 1: halo checksum mismatch")

	line := <-sub.Lines()
	if line.Event != "anomaly" {
		t.Errorf("tee event = %q, want anomaly", line.Event)
	}
	for _, want := range []string{`"anomaly"`, `"kind":"abort"`, `"hard":true`, "halo checksum"} {
		if !contains(string(line.Data), want) {
			t.Errorf("anomaly line %s missing %q", line.Data, want)
		}
	}
	snap := r.Anomalies()
	if snap.Total != 1 || snap.ByKind[KindAbort] != 1 || snap.Last == nil {
		t.Fatalf("anomaly log snapshot: %+v", snap)
	}
	if snap.Last.Step != 7 || snap.Last.Msg == "" {
		t.Errorf("abort anomaly = %+v", snap.Last)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestAnomalyLogBounded(t *testing.T) {
	r := New(Config{Ranks: 1, Detect: DetectConfig{LogSize: 4}})
	for i := 0; i < 10; i++ {
		r.RecordAbort(i, "x")
	}
	snap := r.Anomalies()
	if snap.Total != 10 || len(snap.Anomalies) != 4 {
		t.Fatalf("total=%d retained=%d, want 10/4", snap.Total, len(snap.Anomalies))
	}
	if snap.Anomalies[0].Step != 6 || snap.Last.Step != 9 {
		t.Errorf("retained window [%d..%d], want [6..9]", snap.Anomalies[0].Step, snap.Last.Step)
	}
}

func TestObserveStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	r := New(Config{Ranks: 2, RawSteps: 64})
	phases := map[string]int64{"force:interior": 900_000, "halo": 50_000, "search": 20_000}
	counters := map[string]int64{"comm_wait_ns": 40_000, "halo.bytes": 4096}
	step := 0
	ingest := func() {
		for rank := 0; rank < 2; rank++ {
			r.ObserveStep(mkRec(step, rank, 1_000_000, phases, counters))
		}
		step++
	}
	// Warm-up: intern every field and roll once through the raw ring so
	// steady state is genuinely steady.
	for i := 0; i < 100; i++ {
		ingest()
	}
	if allocs := testing.AllocsPerRun(50, ingest); allocs != 0 {
		t.Errorf("ObserveStep allocates %.1f per step in steady state, want 0", allocs)
	}
	if r.DroppedFields() != 0 {
		t.Errorf("dropped fields: %d", r.DroppedFields())
	}
}

func TestBundleWriteAnalyze(t *testing.T) {
	reg := obs.NewRegistry()
	r := spikeRecorder(reg)
	r.RecordAbort(59, "test abort")
	mon := health.New(health.Config{Every: 1})
	mon.ObserveAtomCount(0, 100, 100)

	dir := filepath.Join(t.TempDir(), "bundle")
	err := WriteBundle(dir, BundleSources{
		Flight:   r,
		Registry: reg,
		Health:   mon,
		Info:     map[string]string{"model": "test", "ranks": "2"},
		Reason:   "test abort",
	})
	if err != nil {
		t.Fatalf("WriteBundle: %v", err)
	}
	for _, name := range []string{BundleSteps, BundleAnomalies, BundleMetrics, BundleHealth, BundleConfig} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("bundle missing %s: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Errorf("bundle %s is empty", name)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, BundleTrace)); err == nil {
		t.Error("trace.json written without a trace recorder attached")
	}

	// Offline replay over the bundle reproduces the live detection.
	rep, err := Analyze(dir, DetectConfig{Warmup: 10, Cooldown: 5})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if rep.Ranks != 2 || rep.Records != 120 {
		t.Errorf("report ranks=%d records=%d, want 2/120", rep.Ranks, rep.Records)
	}
	var wall *Anomaly
	for i := range rep.Replayed {
		if rep.Replayed[i].Kind == KindWall {
			wall = &rep.Replayed[i]
			break
		}
	}
	if wall == nil || wall.Step != 40 || !wall.Hard {
		t.Fatalf("replay did not reproduce the wall spike: %+v", rep.Replayed)
	}
	// The run's own log (wall spike + abort) rides along verbatim.
	if len(rep.Recorded) != 2 {
		t.Errorf("recorded anomalies = %+v, want the spike and the abort", rep.Recorded)
	}
	if rep.Hard() < 2 {
		t.Errorf("Hard()=%d, want >= 2 (spike + abort)", rep.Hard())
	}

	// A bare steps.jsonl (no bundle directory) analyzes too.
	rep2, err := Analyze(filepath.Join(dir, BundleSteps), DetectConfig{Warmup: 10, Cooldown: 5})
	if err != nil {
		t.Fatalf("Analyze(steps.jsonl): %v", err)
	}
	if len(rep2.Recorded) != 0 {
		t.Error("bare step-log analysis should carry no recorded anomalies")
	}
	hasWall := false
	for _, a := range rep2.Replayed {
		hasWall = hasWall || a.Kind == KindWall
	}
	if !hasWall {
		t.Errorf("bare-log replay missed the wall spike: %+v", rep2.Replayed)
	}
}
