package bench

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sctuple/internal/comm"
	"sctuple/internal/obs"
	"sctuple/internal/obs/flight"
	"sctuple/internal/obs/serve"
	"sctuple/internal/parmd"
	"sctuple/internal/potential"
	"sctuple/internal/workload"
)

// spikeWorkload is the tiny 2-rank system of the end-to-end flight
// test: small enough that sub-millisecond steps make a 25 ms halo
// stall an unmistakable wall-time spike.
func spikeWorkload() (*workload.Config, *potential.Model) {
	model := potential.NewLJModel(0.0104, 3.4, 8.5, 39.948)
	rng := rand.New(rand.NewSource(7))
	cfg := workload.LJFluid(rng, 256, 0.55, 3.4)
	cfg.Thermalize(rng, model, 120)
	return cfg, model
}

// haloRate measures the halo messages sent during setup and per step
// with two clean counting runs, so the spike window of the main run
// can be pinned to a chosen step exactly — no guessing at the
// topology's message pattern.
func haloRate(t *testing.T, ranks int) (setup, perStep int64) {
	t.Helper()
	count := func(steps int) int64 {
		cfg, model := spikeWorkload()
		dt, matched, err := parmd.DelayTap(comm.NewChanTransport(ranks, 0), "halo", 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := parmd.Run(cfg, model, parmd.Options{
			Scheme: parmd.SchemeSC, Cart: comm.NewCart(ranks),
			Dt: 1, Steps: steps, Transport: dt,
		}); err != nil {
			t.Fatal(err)
		}
		return matched()
	}
	a, b := count(4), count(8)
	perStep = (b - a) / 4
	if perStep <= 0 {
		t.Fatalf("halo message rate %d per step (counts %d @4, %d @8)", perStep, a, b)
	}
	return a - 4*perStep, perStep
}

// TestFlightSpikeEndToEnd is the observability acceptance path in one
// piece: a 2-rank run with an injected step-time spike must report a
// wall anomaly through the live flight recorder and /anomalies, and
// writing the postmortem bundle and replaying it offline (the
// `scbench analyze` path) must reproduce the finding and flag the run
// as broken.
func TestFlightSpikeEndToEnd(t *testing.T) {
	const (
		ranks     = 2
		steps     = 60
		spikeStep = 45
	)
	setup, perStep := haloRate(t, ranks)

	cfg, model := spikeWorkload()
	// Stall one step's worth of halo sends at spikeStep, well past the
	// wall detector's warmup.
	dt, _, err := parmd.DelayTap(comm.NewChanTransport(ranks, 0), "halo",
		int(setup+int64(spikeStep)*perStep), int(perStep), 25*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tee := obs.NewStepTee()
	fl := flight.New(flight.Config{Ranks: ranks, Registry: reg, Tee: tee})
	sw := obs.NewStepWriterTee(nil, tee)
	sw.SetSink(fl)
	rec := obs.NewRecorder(ranks, 16*(steps+2))
	if _, err := parmd.Run(cfg, model, parmd.Options{
		Scheme: parmd.SchemeSC, Cart: comm.NewCart(ranks),
		Dt: 1, Steps: steps, Transport: dt,
		StepLog: sw, Metrics: reg, Recorder: rec,
	}); err != nil {
		t.Fatal(err)
	}
	fl.Flush()

	snap := fl.Anomalies()
	if snap.ByKind[flight.KindWall] == 0 {
		t.Fatalf("no wall anomaly after a %d-step spike at step %d: %+v",
			perStep, spikeStep, snap)
	}
	if got := reg.Counter("anomaly.wall.total").Load(); got == 0 {
		t.Error("anomaly.wall.total counter not bumped")
	}

	// The same snapshot over the wire, as scbench watch reads it.
	srv := httptest.NewServer((&serve.Server{
		Registry: reg, Recorder: rec, Steps: tee, Flight: fl,
	}).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/anomalies")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire flight.AnomalySnapshot
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if wire.ByKind[flight.KindWall] == 0 {
		t.Errorf("/anomalies lost the wall anomaly: %+v", wire)
	}

	// Postmortem bundle + offline replay reproduce the finding.
	dir := filepath.Join(t.TempDir(), "bundle")
	if err := flight.WriteBundle(dir, flight.BundleSources{
		Flight: fl, Trace: rec, Registry: reg, Reason: "test spike",
	}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = AnalyzeReport(&out, dir)
	if err == nil {
		t.Fatalf("analyze of a spiked run reported no hard anomalies:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "hard anomalies") {
		t.Fatalf("analyze failed for the wrong reason: %v", err)
	}
	if !strings.Contains(out.String(), flight.KindWall) {
		t.Errorf("analyze report missing the wall anomaly:\n%s", out.String())
	}
}
