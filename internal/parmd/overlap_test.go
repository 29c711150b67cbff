package parmd

import (
	"bytes"
	"errors"
	"log/slog"
	"strconv"
	"strings"
	"testing"

	"sctuple/internal/comm"
	"sctuple/internal/geom"
	"sctuple/internal/obs"
)

// TestOverlapMatchesSyncBitIdentical is the A/B determinism pin of the
// overlapped exchange: for every scheme, on a 2-rank axis split and on
// the fully split 2×2×2 topology, the overlapped (default) run and the
// synchronous (NoOverlap) run produce bit-identical forces, energies,
// and final positions. Both modes dispatch the identical two-stage
// interior/boundary partition into the fixed-shard accumulator, so any
// difference would mean the exchange timing leaked into the physics.
func TestOverlapMatchesSyncBitIdentical(t *testing.T) {
	cfg, model := silicaConfig(t, 4, 300, 41)
	for _, dims := range []geom.IVec3{geom.IV(2, 1, 1), geom.IV(2, 2, 2)} {
		cart, err := comm.NewCartDims(dims)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range Schemes() {
			base := Options{Scheme: scheme, Cart: cart, Dt: 1, Steps: 2, TraceEnergies: true}
			over, err := Run(cfg, model, base)
			if err != nil {
				t.Fatalf("%v %v overlapped: %v", scheme, dims, err)
			}
			syncOpt := base
			syncOpt.NoOverlap = true
			sync, err := Run(cfg, model, syncOpt)
			if err != nil {
				t.Fatalf("%v %v synchronous: %v", scheme, dims, err)
			}

			if over.InitialPotential != sync.InitialPotential {
				t.Errorf("%v %v: initial PE %v (overlapped) vs %v (sync)",
					scheme, dims, over.InitialPotential, sync.InitialPotential)
			}
			for i := range over.Forces {
				if over.Forces[i] != sync.Forces[i] {
					t.Fatalf("%v %v: force %d differs bitwise: %v vs %v",
						scheme, dims, i, over.Forces[i], sync.Forces[i])
				}
				if over.Final.Pos[i] != sync.Final.Pos[i] {
					t.Fatalf("%v %v: position %d differs bitwise", scheme, dims, i)
				}
			}
			for s := range over.Energies {
				if over.Energies[s] != sync.Energies[s] {
					t.Errorf("%v %v: step %d energies differ: %+v vs %+v",
						scheme, dims, s, over.Energies[s], sync.Energies[s])
				}
			}
		}
	}
}

// TestOverlapPhasesRecorded: the overlapped run exports the split
// phases (force:interior, halo:wait, force:boundary) and a sane
// overlap fraction; the synchronous run reports no wait-derived
// overlap above 1 either.
func TestOverlapPhasesRecorded(t *testing.T) {
	cfg, model := silicaConfig(t, 4, 300, 42)
	cart, _ := comm.NewCartDims(geom.IV(2, 2, 2))
	rec := obs.NewRecorder(cart.Size(), 256)
	res, err := Run(cfg, model, Options{
		Scheme: SchemeSC, Cart: cart, Dt: 1, Steps: 2, Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, ps := range res.Phases {
		got[ps.Phase] = true
	}
	for _, want := range []string{"force:interior", "force:boundary", "halo:wait", "halo"} {
		if !got[want] {
			t.Errorf("phase %q missing from overlapped run (have %v)", want, got)
		}
	}
	if f := res.OverlapFraction(); !(f > 0 && f <= 1) {
		t.Errorf("overlap fraction %g, want in (0, 1]", f)
	}
}

// TestOverlapPostsCrossRankHaloFirst: in the overlapped mode every rank
// posts a cross-rank halo send before its interior stage starts, on
// every evaluation — including grids that leave an axis unsplit, whose
// self-exchange phases come first in the compiled plan and would
// otherwise hold the first cross-rank send back until after the
// interior stage, leaving nothing in flight to overlap.
func TestOverlapPostsCrossRankHaloFirst(t *testing.T) {
	cfg, model := silicaConfig(t, 4, 300, 44)
	for _, dims := range []geom.IVec3{geom.IV(1, 1, 2), geom.IV(2, 1, 1), geom.IV(2, 2, 2)} {
		cart, err := comm.NewCartDims(dims)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range Schemes() {
			rec := obs.NewRecorder(cart.Size(), 1024)
			if _, err := Run(cfg, model, Options{
				Scheme: scheme, Cart: cart, Dt: 1, Steps: 2, Recorder: rec,
			}); err != nil {
				t.Fatal(err)
			}
			type rankStep struct{ rank, step int }
			events := rec.Events()
			recvTid := map[string]int{}
			for _, ev := range events {
				if ev.Cat == "flow" && ev.Ph == "f" {
					recvTid[ev.ID] = ev.Tid
				}
			}
			// Earliest cross-rank halo send per (rank, step).
			firstSend := map[rankStep]float64{}
			for _, ev := range events {
				if ev.Cat != "flow" || ev.Ph != "s" || recvTid[ev.ID] == ev.Tid {
					continue
				}
				id, err := strconv.ParseUint(ev.ID, 16, 64)
				if err != nil {
					t.Fatal(err)
				}
				if tag := int(uint32(id >> 8 & 0xffffff)); tag < tagHalo || tag >= tagForce {
					continue
				}
				k := rankStep{ev.Tid, ev.Args["step"].(int)}
				if ts, ok := firstSend[k]; !ok || ev.Ts < ts {
					firstSend[k] = ev.Ts
				}
			}
			interiors := 0
			for _, ev := range events {
				if ev.Cat != "phase" || ev.Name != "force:interior" {
					continue
				}
				interiors++
				k := rankStep{ev.Tid, ev.Args["step"].(int)}
				ts, ok := firstSend[k]
				if !ok {
					t.Errorf("%v on %v: rank %d step %d sent no cross-rank halo message", scheme, dims, k.rank, k.step)
				} else if ts > ev.Ts {
					t.Errorf("%v on %v: rank %d step %d posted its first cross-rank halo send %.1f µs after the interior stage began",
						scheme, dims, k.rank, k.step, ts-ev.Ts)
				}
			}
			if want := cart.Size() * 3; interiors != want {
				t.Errorf("%v on %v: %d interior stages recorded, want %d (3 evaluations per rank)", scheme, dims, interiors, want)
			}
		}
	}
}

// mustFaultTransport builds a FaultTransport or fails the test — the
// exported fault-injection seam is also what these corruption tests
// exercise.
func mustFaultTransport(t *testing.T, ranks int, class string) *FaultTransport {
	t.Helper()
	ft, err := NewFaultTransport(ranks, class, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

// TestMalformedHaloMessageTypedError: corrupting every halo payload
// must fail the run with one *RankError per rank — no panic, no
// deadlock — in both exchange modes, with the detecting rank(s)
// reporting phase "halo" and the failure logged through Options.Log.
func TestMalformedHaloMessageTypedError(t *testing.T) {
	cfg, model := silicaConfig(t, 4, 300, 43)
	cart, _ := comm.NewCartDims(geom.IV(2, 1, 1))
	for _, noOverlap := range []bool{false, true} {
		var logBuf bytes.Buffer
		_, err := Run(cfg, model, Options{
			Scheme: SchemeSC, Cart: cart, Dt: 1, Steps: 1,
			NoOverlap: noOverlap,
			Log:       obs.TextLogger(&logBuf, slog.LevelInfo),
			Transport: mustFaultTransport(t, cart.Size(), "halo"),
		})
		if err == nil {
			t.Fatalf("noOverlap=%v: corrupted halo exchange succeeded", noOverlap)
		}
		rerrs := RankErrors(err)
		if len(rerrs) != cart.Size() {
			t.Fatalf("noOverlap=%v: %d rank errors for %d ranks: %v", noOverlap, len(rerrs), cart.Size(), err)
		}
		seen := map[int]bool{}
		haloErrs := 0
		for _, re := range rerrs {
			if seen[re.Rank] {
				t.Errorf("noOverlap=%v: rank %d reported twice", noOverlap, re.Rank)
			}
			seen[re.Rank] = true
			if re.Phase == "halo" {
				haloErrs++
				if !strings.Contains(re.Error(), "malformed halo message") {
					t.Errorf("noOverlap=%v: halo error lost its diagnostic: %v", noOverlap, re)
				}
			} else if !errors.Is(re, comm.ErrAborted) {
				t.Errorf("noOverlap=%v: rank %d failed outside the halo without an abort: %v",
					noOverlap, re.Rank, re)
			}
		}
		if haloErrs == 0 {
			t.Errorf("noOverlap=%v: no rank reported the halo corruption: %v", noOverlap, err)
		}
		if !strings.Contains(logBuf.String(), "rank failed") {
			t.Errorf("noOverlap=%v: failures not logged through Options.Log: %q", noOverlap, logBuf.String())
		}
	}
}

// TestMalformedWriteBackTypedError: corrupting the force write-back
// payloads fails the run with typed phase "writeback" errors (the
// size check runs before any force is applied).
func TestMalformedWriteBackTypedError(t *testing.T) {
	cfg, model := silicaConfig(t, 4, 300, 44)
	cart, _ := comm.NewCartDims(geom.IV(2, 1, 1))
	_, err := Run(cfg, model, Options{
		Scheme: SchemeSC, Cart: cart, Dt: 1, Steps: 1,
		Transport: mustFaultTransport(t, cart.Size(), "force"),
	})
	if err == nil {
		t.Fatal("corrupted write-back succeeded")
	}
	rerrs := RankErrors(err)
	if len(rerrs) != cart.Size() {
		t.Fatalf("%d rank errors for %d ranks: %v", len(rerrs), cart.Size(), err)
	}
	wbErrs := 0
	for _, re := range rerrs {
		if re.Phase == "writeback" {
			wbErrs++
			if !strings.Contains(re.Error(), "size mismatch") {
				t.Errorf("write-back error lost its diagnostic: %v", re)
			}
		} else if !errors.Is(re, comm.ErrAborted) {
			t.Errorf("rank %d failed outside the write-back without an abort: %v", re.Rank, re)
		}
	}
	if wbErrs == 0 {
		t.Errorf("no rank reported the write-back corruption: %v", err)
	}
}

// TestAbortPropagatesToHealthyRanks: when only one rank's inbound halo
// traffic is corrupted, that rank fails with a typed halo error and
// every healthy peer — eventually blocked on messages the failed rank
// will never send — unwinds with comm.ErrAborted wrapped in its own
// *RankError, instead of deadlocking the world.
func TestAbortPropagatesToHealthyRanks(t *testing.T) {
	cfg, model := silicaConfig(t, 4, 300, 45)
	cart, _ := comm.NewCartDims(geom.IV(2, 1, 1))
	ft := mustFaultTransport(t, cart.Size(), "halo")
	ft.Dst = func(dst int) bool { return dst == 0 }
	_, err := Run(cfg, model, Options{
		Scheme: SchemeSC, Cart: cart, Dt: 1, Steps: 1,
		Transport: ft,
	})
	if err == nil {
		t.Fatal("run with a poisoned rank succeeded")
	}
	rerrs := RankErrors(err)
	if len(rerrs) != cart.Size() {
		t.Fatalf("%d rank errors for %d ranks: %v", len(rerrs), cart.Size(), err)
	}
	for _, re := range rerrs {
		switch re.Rank {
		case 0:
			if re.Phase != "halo" {
				t.Errorf("poisoned rank failed in phase %q, want halo: %v", re.Phase, re)
			}
		default:
			if !errors.Is(re, comm.ErrAborted) {
				t.Errorf("healthy rank %d did not unwind via abort: %v", re.Rank, re)
			}
		}
	}
	// Sanity: the same closure with a clean transport runs fine.
	if _, err := Run(cfg, model, Options{Scheme: SchemeSC, Cart: cart, Dt: 1, Steps: 1}); err != nil {
		t.Fatalf("clean control run failed: %v", err)
	}
}

// TestHopDirOverflowIsRunError: the migration path's impossible-hop
// condition (an atom crossing a whole block in one step — a blown-up
// integration) surfaces as a typed migrate error from Run, not a
// panic. Forced by an absurd time step.
func TestHopDirOverflowIsRunError(t *testing.T) {
	cfg, model := silicaConfig(t, 8, 300, 46)
	cart, _ := comm.NewCartDims(geom.IV(4, 1, 1))
	_, err := Run(cfg, model, Options{Scheme: SchemeSC, Cart: cart, Dt: 1e7, Steps: 2})
	if err == nil {
		t.Skip("absurd time step did not push an atom across a block this run")
	}
	rerrs := RankErrors(err)
	if len(rerrs) == 0 {
		t.Fatalf("blown-up run failed without typed rank errors: %v", err)
	}
	found := false
	for _, re := range rerrs {
		if re.Phase == "migrate" && strings.Contains(re.Error(), "blocks in one step") {
			found = true
		}
	}
	if !found {
		// The blow-up can also surface as a halo atom outside the
		// extended lattice, which is an acceptable typed failure too.
		for _, re := range rerrs {
			if re.Phase == "halo" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no typed migrate/halo error in %v", err)
	}
}
