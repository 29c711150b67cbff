package parmd

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"sctuple/internal/comm"
	"sctuple/internal/geom"
)

// TestSocketTransportBitIdentical is the transport-equivalence
// acceptance test: a 2-rank silica run over the socket fabric must
// produce bit-identical forces, positions, velocities, and initial
// potential to the in-process channel transport, for every scheme.
// The wire codec round-trips float64 bits exactly and the reduction
// order is fixed by the topology, so any difference is a transport
// bug.
func TestSocketTransportBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("socket fabric run in -short mode")
	}
	cfg, model := silicaConfig(t, 4, 300, 1)
	cart, err := comm.NewCartDims(geom.IV(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range Schemes() {
		opt := Options{Scheme: scheme, Cart: cart, Dt: 1, Steps: 3}
		want, err := Run(cfg, model, opt)
		if err != nil {
			t.Fatalf("%v chan: %v", scheme, err)
		}
		got, err := RunSocket(cfg, model, opt, "unix")
		if err != nil {
			t.Fatalf("%v socket: %v", scheme, err)
		}
		if math.Float64bits(got.InitialPotential) != math.Float64bits(want.InitialPotential) {
			t.Errorf("%v: initial PE %.17g != %.17g", scheme, got.InitialPotential, want.InitialPotential)
		}
		if len(got.Forces) != len(want.Forces) {
			t.Fatalf("%v: %d forces, want %d", scheme, len(got.Forces), len(want.Forces))
		}
		for i := range want.Forces {
			if !bitsEqualVec3(got.Forces[i], want.Forces[i]) {
				t.Fatalf("%v: atom %d force %v != %v", scheme, i, got.Forces[i], want.Forces[i])
			}
			if !bitsEqualVec3(got.Final.Pos[i], want.Final.Pos[i]) {
				t.Fatalf("%v: atom %d position %v != %v", scheme, i, got.Final.Pos[i], want.Final.Pos[i])
			}
			if !bitsEqualVec3(got.Final.Vel[i], want.Final.Vel[i]) {
				t.Fatalf("%v: atom %d velocity %v != %v", scheme, i, got.Final.Vel[i], want.Final.Vel[i])
			}
		}
		// The gathered per-rank counters must describe the same
		// simulation: identical owned-atom and tuple totals.
		for r := range want.RankStats {
			if got.RankStats[r].TuplesEvaluated != want.RankStats[r].TuplesEvaluated ||
				got.RankStats[r].OwnedAtoms != want.RankStats[r].OwnedAtoms {
				t.Errorf("%v: rank %d stats %+v != %+v", scheme, r, got.RankStats[r], want.RankStats[r])
			}
		}
		if got.Comm.Messages == 0 || got.Comm.Bytes == 0 {
			t.Errorf("%v: socket run gathered no comm traffic (%+v)", scheme, got.Comm)
		}
	}
}

func bitsEqualVec3(a, b geom.Vec3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

// TestSocketKilledWorkerAborts: when one rank's fabric dies mid-run,
// every survivor must unwind with a typed error carrying ErrAborted —
// no deadlock, no panic — and the run as a whole must fail.
func TestSocketKilledWorkerAborts(t *testing.T) {
	if testing.Short() {
		t.Skip("socket fabric run in -short mode")
	}
	cfg, model := silicaConfig(t, 4, 300, 1)
	cart, err := comm.NewCartDims(geom.IV(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Scheme: SchemeSC, Cart: cart, Dt: 1, Steps: 50}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := runSocketWorlds(cfg, model, opt, "unix",
			func(rank int, tr *comm.SocketTransport) comm.Transport {
				if rank != 1 {
					return tr
				}
				// Close the fabric when the step loop reaches step 3 —
				// from the peers' side indistinguishable from the worker
				// process dying mid-run.
				return &comm.Tap{Transport: tr, OnStep: func(step int) {
					if step >= 3 {
						tr.Close()
					}
				}}
			})
		done <- outcome{res, err}
	}()
	select {
	case out := <-done:
		if out.err == nil {
			t.Fatal("run with a killed worker succeeded")
		}
		if !errors.Is(out.err, comm.ErrAborted) {
			t.Errorf("err = %v, want ErrAborted in chain", out.err)
		}
		var re *RankError
		if !errors.As(out.err, &re) {
			t.Errorf("err = %v, want *RankError with rank/step context", out.err)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("killed worker deadlocked the fleet")
	}
}

// TestSocketHaloFaultAborts: the fault tap works over any transport.
// With rank 0's outgoing halo payloads corrupted on a socket fleet (to
// its peer and, through the periodic self-images, to itself), a
// receiving rank fails with the typed halo diagnostic, any other one
// unwinds with ErrAborted once the abort closes the fabric, and the
// run fails with one *RankError per rank — no deadlock, no panic.
func TestSocketHaloFaultAborts(t *testing.T) {
	if testing.Short() {
		t.Skip("socket fabric run in -short mode")
	}
	cfg, model := silicaConfig(t, 4, 300, 1)
	cart, err := comm.NewCartDims(geom.IV(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Scheme: SchemeSC, Cart: cart, Dt: 1, Steps: 5}
	done := make(chan error, 1)
	go func() {
		_, err := runSocketWorlds(cfg, model, opt, "unix",
			func(rank int, tr *comm.SocketTransport) comm.Transport {
				if rank != 0 {
					return tr
				}
				ft, err := FaultTap(tr, "halo", 0)
				if err != nil {
					panic(err)
				}
				return ft
			})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run with corrupted halo traffic succeeded")
		}
		rerrs := RankErrors(err)
		if len(rerrs) != cart.Size() {
			t.Fatalf("%d rank errors for %d ranks: %v", len(rerrs), cart.Size(), err)
		}
		haloErrs := 0
		for _, re := range rerrs {
			if re.Phase == "halo" && strings.Contains(re.Error(), "malformed halo message") {
				haloErrs++
			} else if !errors.Is(re, comm.ErrAborted) {
				t.Errorf("rank %d failed without the halo diagnostic or an abort: %v", re.Rank, re)
			}
		}
		if haloErrs == 0 {
			t.Errorf("no rank reported the halo corruption: %v", err)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("halo fault deadlocked the fleet")
	}
}

// TestSocketStepLoopAllocs: the Hybrid-MD step loop over unix sockets
// allocates almost nothing once a call is under way — 1,536 atoms at
// 300 K on 2 ranks for 120 steps, as the hybrid-fine-socket benchmark
// runs it. Positions-only and write-back frames are reserved to their
// known size, frames go out as one vectored write without a staging
// copy, and the receive pool hands each frame a buffer that already
// fits. MeasureAllocs counts the whole process (both ranks, both
// readers); the best of three calls must show at most one allocation
// in the step loop, which leaves room for a stray runtime allocation.
func TestSocketStepLoopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	if testing.Short() {
		t.Skip("three 120-step socket fabric runs")
	}
	cfg, model := silicaConfig(t, 4, 300, 1)
	const steps = 120
	opt := Options{Scheme: SchemeHybrid, Cart: comm.NewCart(2), Dt: 0.5, Steps: steps,
		Workers: 1, TraceEnergies: true, MeasureAllocs: true}
	best := math.Inf(1)
	for call := 0; call < 3; call++ {
		res, err := RunSocket(cfg, model, opt, "unix")
		if err != nil {
			t.Fatal(err)
		}
		best = math.Min(best, math.Round(res.StepAllocs*steps))
	}
	if best > 1 {
		t.Errorf("fewest step-loop allocations over three calls: %g, want ≤ 1", best)
	}
}
