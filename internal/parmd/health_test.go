package parmd

import (
	"errors"
	"testing"

	"sctuple/internal/comm"
	"sctuple/internal/geom"
	"sctuple/internal/obs/health"
)

// TestHealthProbesAllOK is the headline health-monitor acceptance
// test: a short 2-rank NVE run of every scheme with every probe
// enabled — energy drift, momentum, atom count, halo mirror checksums,
// and the SC-vs-FS tuple parity re-enumeration — must report ok for
// every observation, and the probes' own exchange on the health tag
// class must move exactly the recorded bytes and messages (one 8-byte
// mirror checksum per halo message at each sampled step, so FS-MD and
// Hybrid-MD's full shell sends twice SC-MD's). 5³ unit cells are
// required so the global lattice fits the FS(3) pattern's 5-cell span
// for the parity probe.
func TestHealthProbesAllOK(t *testing.T) {
	if testing.Short() {
		t.Skip("parity probe re-enumerates the global tuple set")
	}
	cfg, model := silicaConfig(t, 5, 300, 3)
	cart, err := comm.NewCartDims(geom.IV(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		scheme                  Scheme
		healthBytes, healthMsgs int64
	}{
		{SchemeSC, 192, 24},
		{SchemeFS, 384, 48},
		{SchemeHybrid, 384, 48},
	}
	for _, c := range cases {
		mon := health.New(health.Config{Every: 2, ParityEvery: 4})
		res, err := Run(cfg, model, Options{
			Scheme: c.scheme,
			Cart:   cart,
			Dt:     0.5,
			Steps:  8,
			Health: mon,
		})
		if err != nil {
			t.Fatalf("%v: %v", c.scheme, err)
		}

		if !res.Health.Healthy() {
			t.Errorf("%v: run unhealthy: %+v", c.scheme, res.Health)
		}
		wantProbes := map[string]int{
			health.ProbeEnergyDrift: 4, // steps 1,3,5,7 (cadence 2, after step 0 baseline at first sampled step)
			health.ProbeMomentum:    4,
			health.ProbeAtomCount:   4,
			health.ProbeHaloMirror:  0, // > 0, exact count depends on plan phases × ranks
			health.ProbeTupleParity: 2, // steps 3,7
		}
		for probe, wantOK := range wantProbes {
			p := res.Health.Probe(probe)
			if p.Warn != 0 || p.Fail != 0 {
				t.Errorf("%v %s: warn=%d fail=%d, want clean", c.scheme, probe, p.Warn, p.Fail)
			}
			if wantOK > 0 && p.OK != int64(wantOK) {
				t.Errorf("%v %s: ok=%d, want %d", c.scheme, probe, p.OK, wantOK)
			}
			if p.OK == 0 {
				t.Errorf("%v %s: never observed", c.scheme, probe)
			}
		}
		if h := res.CommByClass["health"]; h.Bytes != c.healthBytes || h.Messages != c.healthMsgs {
			t.Errorf("%v: health class %d bytes / %d messages, want %d / %d",
				c.scheme, h.Bytes, h.Messages, c.healthBytes, c.healthMsgs)
		}
	}
}

// TestHealthAbortOnBrokenIntegrator wires a deliberately unstable
// configuration — a 50 fs timestep, two orders of magnitude past
// stability for silica — into a run with abort-on-fail. The energy
// probe must escalate to Fail, and Run must return the monitor's
// *health.FailError on every rank instead of completing or
// deadlocking.
func TestHealthAbortOnBrokenIntegrator(t *testing.T) {
	cfg, model := silicaConfig(t, 4, 600, 5)
	cart, err := comm.NewCartDims(geom.IV(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	mon := health.New(health.Config{
		Every:  1,
		OnFail: health.ActionRecord | health.ActionAbort,
	})
	_, err = Run(cfg, model, Options{
		Scheme: SchemeSC,
		Cart:   cart,
		Dt:     50,
		Steps:  200,
		Health: mon,
	})
	if err == nil {
		t.Fatal("broken integrator ran to completion without aborting")
	}
	var fe *health.FailError
	if !errors.As(err, &fe) {
		t.Fatalf("error %T (%v), want *health.FailError", err, err)
	}
	if fe.Probe != health.ProbeEnergyDrift {
		t.Errorf("failing probe %q, want %q", fe.Probe, health.ProbeEnergyDrift)
	}
	if mon.Summary().Healthy() {
		t.Error("summary healthy after an abort")
	}
	if p := mon.Summary().Probe(health.ProbeEnergyDrift); p.Fail == 0 {
		t.Errorf("energy probe recorded no fails: %+v", p)
	}
}

// TestHealthNilMonitorUnchanged: Options without a Health monitor must
// behave exactly as before the probe layer existed — no health spans,
// no health-class traffic, an empty summary.
func TestHealthNilMonitorUnchanged(t *testing.T) {
	cfg, model := silicaConfig(t, 4, 300, 1)
	cart, err := comm.NewCartDims(geom.IV(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, model, Options{Scheme: SchemeSC, Cart: cart, Dt: 0.5, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Health.Probes) != 0 || !res.Health.Healthy() {
		t.Errorf("monitor-less run produced health data: %+v", res.Health)
	}
	for class, st := range res.CommByClass {
		if class == "health" && (st.Messages != 0 || st.Bytes != 0) {
			t.Errorf("monitor-less run sent health traffic: %+v", st)
		}
	}
}
