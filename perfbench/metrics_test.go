package main

import (
	"math"
	"testing"
	"time"

	"sctuple/internal/comm"
	"sctuple/internal/geom"
	"sctuple/internal/obs"
	"sctuple/internal/parmd"
	"sctuple/internal/potential"
	"sctuple/internal/workload"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestUsPerAtomStepIsNetOfSetup(t *testing.T) {
	// 1.5 s call, 0.5 s of it set-up: 1 s over 1000 atoms × 10 steps.
	got, err := usPerAtomStep(1500*time.Millisecond, 500*time.Millisecond, 1000, 10)
	if err != nil || !near(got, 100) {
		t.Fatalf("usPerAtomStep = %v, %v; want 100 µs", got, err)
	}
	if ms := stepMs(got, 1000); !near(ms, 100) {
		t.Fatalf("stepMs = %v; want the 100 ms of one step", ms)
	}
	for _, c := range []struct {
		run, setup   time.Duration
		atoms, steps int
	}{
		{time.Second, time.Second, 10, 10}, // no step-loop time left
		{time.Second, 2 * time.Second, 10, 10},
		{time.Second, 0, 0, 10},
		{time.Second, 0, 10, 0},
	} {
		if _, err := usPerAtomStep(c.run, c.setup, c.atoms, c.steps); err == nil {
			t.Errorf("usPerAtomStep(%v) accepted", c)
		}
	}
}

func TestClosureResidual(t *testing.T) {
	terms := []closureTerm{{"a", 2, 100}, {"b", 0.5, 400}} // 200 + 200 ns
	for _, c := range []struct{ step, want float64 }{
		{400, 0},   // layers account for the whole step
		{800, 0.5}, // half the step unexplained
		{200, -1},  // layers over-predict twofold
		{1e9, 1 - 400/1e9},
	} {
		if got := closureResidual(terms, c.step); !near(got, c.want) {
			t.Errorf("closureResidual(step %g) = %v; want %v", c.step, got, c.want)
		}
	}
	if got := closureResidual(terms, 0); !math.IsNaN(got) {
		t.Errorf("closureResidual(step 0) = %v; want NaN", got)
	}
	if got := closureResidual(nil, 100); got != 1 {
		t.Errorf("closureResidual(no terms) = %v; want 1", got)
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9, 4}, 1.8125, 3.75, 7.75},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, q3 := quartiles(c.xs)
		if med := median(c.xs); !near(q1, c.q1) || !near(med, c.med) || !near(q3, c.q3) {
			t.Errorf("%v: quartiles %v, %v, %v; want %v, %v, %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	quartiles(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("median/quartiles reordered their input")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestForceTolerance(t *testing.T) {
	// Bond-scale forces: the tolerance is relative to max |F_ref|.
	if err := withinTolerance(0.9e-9*5, 5, -100, -100); err != nil {
		t.Errorf("deviation inside 1e-9 × max|F| rejected: %v", err)
	}
	if err := withinTolerance(1.1e-9*5, 5, -100, -100); err == nil {
		t.Error("deviation beyond 1e-9 × max|F| accepted")
	}
	// Ideal lattice, forces cancel to rounding: the scale floors at
	// forceScale, so rounding-level noise passes and a real error
	// does not.
	if err := withinTolerance(1e-14, 1e-13, -100, -100); err != nil {
		t.Errorf("rounding noise on a force-free lattice rejected: %v", err)
	}
	if err := withinTolerance(1e-6, 1e-13, -100, -100); err == nil {
		t.Error("a 1e-6 eV/Å error on a force-free lattice accepted")
	}
	if err := withinTolerance(0, 1, -100, -100*(1+2*energyRelTol)); err == nil {
		t.Error("potential energy beyond its tolerance accepted")
	}
	if err := withinTolerance(math.NaN(), 1, -100, -100); err == nil {
		t.Error("NaN deviation accepted")
	}
}

func TestNVEDriftGate(t *testing.T) {
	model := potential.NewSilicaModel()
	cfg := &workload.Config{
		Box:     geom.NewCubicBox(10),
		Pos:     []geom.Vec3{{}, {X: 1}},
		Vel:     []geom.Vec3{{X: 0.01}, {X: -0.01}},
		Species: []int32{0, 1},
	}
	ke0 := kinetic(cfg, model)
	res := &parmd.Result{InitialPotential: -5}
	res.Energies = []parmd.StepEnergy{{Potential: -6, Kinetic: ke0 + 1}, {Potential: -5, Kinetic: ke0 * (1 + driftLimit/2)}}
	d, err := checkDrift(cfg, model, res)
	if err != nil || !near(d, driftLimit/2) {
		t.Fatalf("drift %v, %v; want %v and a pass (only the end state counts)", d, err, driftLimit/2)
	}
	res.Energies[1].Kinetic = ke0 * (1 + 2*driftLimit)
	if _, err := checkDrift(cfg, model, res); err == nil {
		t.Error("drift of twice the limit accepted")
	}
	res.Energies = nil
	if _, err := checkDrift(cfg, model, res); err == nil {
		t.Error("run without traced energies accepted")
	}
}

func TestStateAndBitChecks(t *testing.T) {
	final := &workload.Config{Pos: make([]geom.Vec3, 2), Vel: make([]geom.Vec3, 2), Species: []int32{0, 1}}
	res := &parmd.Result{Final: final, Forces: make([]geom.Vec3, 2)}
	if err := checkState(res, 2); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	if err := checkState(res, 3); err == nil {
		t.Error("lost atom accepted")
	}
	res.Forces[1].Y = math.Inf(1)
	if err := checkState(res, 2); err == nil {
		t.Error("infinite force accepted")
	}
	a := []geom.Vec3{{X: 1}, {Y: 0}}
	b := []geom.Vec3{{X: 1}, {Y: math.Copysign(0, -1)}}
	if i := bitIdentical(a, a); i != -1 {
		t.Errorf("identical forces reported different at %d", i)
	}
	if i := bitIdentical(a, b); i != 1 {
		t.Errorf("+0 vs -0 reported at %d; want atom 1", i)
	}
}

func TestPerStepSubtractsSetUp(t *testing.T) {
	zero := &parmd.Result{
		RankStats: []parmd.RankStats{
			{SearchCandidates: 100, TuplesEvaluated: 10, AtomsImported: 50, ForceNs: 1e6},
			{SearchCandidates: 80, TuplesEvaluated: 8, AtomsImported: 40, ForceNs: 2e6},
		},
		Comm:        comm.Stats{Messages: 4, Wait: time.Millisecond},
		CommByClass: map[string]comm.Stats{"halo": {Bytes: 1000}, "force": {Bytes: 500}},
		Phases:      []obs.PhaseStat{{Phase: "halo", PerRankNs: []int64{1e6, 3e6}}},
	}
	run := &parmd.Result{
		RankStats: []parmd.RankStats{
			{SearchCandidates: 1100, TuplesEvaluated: 110, AtomsImported: 550, ForceNs: 21e6, OwnedAtoms: 7},
			{SearchCandidates: 1080, TuplesEvaluated: 8, AtomsImported: 440, ForceNs: 12e6, OwnedAtoms: 9},
		},
		Comm:        comm.Stats{Messages: 44, Wait: 11 * time.Millisecond},
		CommByClass: map[string]comm.Stats{"halo": {Bytes: 21000}, "force": {Bytes: 10500}},
		Phases:      []obs.PhaseStat{{Phase: "halo", PerRankNs: []int64{11e6, 13e6}}},
	}
	c := perStep(run, zero, 10)
	for _, chk := range []struct {
		name      string
		got, want float64
	}{
		{"candidates (max rank)", c.candidates, 100},
		{"tuples (max rank)", c.tuples, 10},
		{"imported (max rank)", c.imported, 50},
		{"force ms (max rank)", c.forceMs, 2},
		{"owned (max rank, absolute)", c.owned, 9},
		{"yield (world)", c.yield, 100.0 / 2000},
		{"halo kB", c.haloKB, 2},
		{"force kB", c.forceKB, 1},
		{"messages", c.msgs, 4},
		{"wait ms", c.waitMs, 1},
		{"halo phase ms (max rank)", c.phaseMs["halo"], 1},
	} {
		if !near(chk.got, chk.want) {
			t.Errorf("%s = %v; want %v", chk.name, chk.got, chk.want)
		}
	}
}

func TestTracerKeepsParentage(t *testing.T) {
	var off *tracer
	if id := off.begin("x", -1); id != -1 {
		t.Fatalf("nil tracer opened span %d", id)
	}
	off.end(-1)
	tr := newTracer()
	root := tr.begin("root", -1)
	tr.timed("child", root, func() { time.Sleep(time.Millisecond) })
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[0].Parent != -1 {
		t.Fatalf("spans %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %q ends before it starts", s.Name)
		}
	}
	if c, r := tr.spans[1], tr.spans[0]; c.Start < r.Start || c.End > r.End {
		t.Error("child span not inside its parent")
	}
}

func TestPingPongEchoesOnBothTransports(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, socket := range []bool{false, true} {
		rtts, err := pingPong(socket, 4096, 10*time.Millisecond)
		if err != nil {
			t.Fatalf("socket=%v: %v", socket, err)
		}
		if len(rtts) < 50 {
			t.Errorf("socket=%v: %d round trips, want at least 50", socket, len(rtts))
		}
	}
}
