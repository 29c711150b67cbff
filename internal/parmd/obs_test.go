package parmd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"sctuple/internal/comm"
	"sctuple/internal/geom"
	"sctuple/internal/obs"
)

// TestTelemetryDeterminism: attaching the full telemetry stack —
// recorder, step log, metrics registry — must not perturb the physics.
// Positions, forces, and energies are bit-identical with and without.
func TestTelemetryDeterminism(t *testing.T) {
	cfg, model := silicaConfig(t, 4, 300, 31)
	cart, _ := comm.NewCartDims(geom.IV(2, 1, 1))
	base := Options{Scheme: SchemeSC, Cart: cart, Dt: 1, Steps: 3, TraceEnergies: true}

	plain, err := Run(cfg, model, base)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	inst := base
	inst.Recorder = obs.NewRecorder(cart.Size(), 256)
	inst.StepLog = obs.NewStepWriter(&buf)
	inst.Metrics = obs.NewRegistry()
	traced, err := Run(cfg, model, inst)
	if err != nil {
		t.Fatal(err)
	}

	for i := range plain.Forces {
		if plain.Forces[i] != traced.Forces[i] {
			t.Fatalf("force %d differs with telemetry on: %v vs %v", i, plain.Forces[i], traced.Forces[i])
		}
		if plain.Final.Pos[i] != traced.Final.Pos[i] {
			t.Fatalf("position %d differs with telemetry on", i)
		}
	}
	if plain.InitialPotential != traced.InitialPotential {
		t.Errorf("initial PE differs: %v vs %v", plain.InitialPotential, traced.InitialPotential)
	}
	for s := range plain.Energies {
		if plain.Energies[s] != traced.Energies[s] {
			t.Errorf("step %d energies differ: %+v vs %+v", s, plain.Energies[s], traced.Energies[s])
		}
	}
	if len(traced.Phases) == 0 {
		t.Error("instrumented run returned no phase stats")
	}
	if plain.Phases != nil {
		t.Error("uninstrumented run returned phase stats")
	}
}

// TestTraceShape: a 2-rank run exports one named track per rank, and
// each simulated step carries at least 6 named phases on every rank.
func TestTraceShape(t *testing.T) {
	cfg, model := silicaConfig(t, 4, 300, 32)
	cart, _ := comm.NewCartDims(geom.IV(2, 1, 1))
	const steps = 3
	rec := obs.NewRecorder(cart.Size(), 1024)
	_, err := Run(cfg, model, Options{
		Scheme: SchemeSC, Cart: cart, Dt: 1, Steps: steps, TraceEnergies: true,
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf obs.TraceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	tracks := map[int]bool{}
	// phases[rank][step] = set of phase names recorded in that step.
	phases := map[int]map[int]map[string]bool{}
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				tracks[ev.Tid] = true
			}
		case "X":
			step := int(ev.Args["step"].(float64))
			if phases[ev.Tid] == nil {
				phases[ev.Tid] = map[int]map[string]bool{}
			}
			if phases[ev.Tid][step] == nil {
				phases[ev.Tid][step] = map[string]bool{}
			}
			phases[ev.Tid][step][ev.Name] = true
		}
	}
	if len(tracks) != cart.Size() {
		t.Fatalf("%d named tracks, want one per rank (%d)", len(tracks), cart.Size())
	}
	for rank := 0; rank < cart.Size(); rank++ {
		for step := 0; step < steps; step++ {
			got := phases[rank][step]
			if len(got) < 6 {
				t.Errorf("rank %d step %d: %d named phases %v, want ≥ 6", rank, step, len(got), got)
			}
		}
	}
}

// TestHaloExchangeZeroAllocsRecorder: the zero-alloc guarantee of the
// steady-state exchange holds with a recorder attached — both live
// (spans written into the preallocated rings) and disabled (the
// single-branch fast path).
func TestHaloExchangeZeroAllocsRecorder(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	cfg, model := silicaConfig(t, 4, 300, 22)
	cart, _ := comm.NewCartDims(geom.IV(2, 2, 2))
	for _, enabled := range []bool{true, false} {
		dec, err := NewDecomp(cfg.Box, model.MaxCutoff(), cart)
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.NewRecorder(cart.Size(), 64)
		rec.Enable(enabled)
		world := comm.NewWorld(cart.Size())
		defineTagClasses(world)
		err = world.Run(func(p *comm.Proc) error {
			r, iter, err := exchangeRig(p, dec, cfg, model, SchemeSC, false)
			if err != nil {
				return err
			}
			r.rec = rec.Rank(p.Rank())
			var iterErr error
			run := func() {
				if err := iter(); err != nil && iterErr == nil {
					iterErr = err
				}
			}
			for k := 0; k < 30; k++ {
				run()
			}
			p.Barrier()
			if p.Rank() != 0 {
				for k := 0; k < 11; k++ {
					run()
				}
				p.Barrier()
				return iterErr
			}
			allocs := testing.AllocsPerRun(10, run)
			p.Barrier()
			if iterErr != nil {
				return iterErr
			}
			if allocs != 0 {
				return fmt.Errorf("recorder enabled=%v: %g allocs per halo+write-back cycle", enabled, allocs)
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		if enabled {
			if got := rec.Rank(0).PhaseNs(phaseHalo); got <= 0 {
				t.Errorf("enabled recorder accumulated no halo time")
			}
		} else if got := rec.Rank(0).PhaseNs(phaseHalo); got != 0 {
			t.Errorf("disabled recorder accumulated %d ns of halo time", got)
		}
	}
}

// stepRecordJSON mirrors obs.StepRecord for decoding the JSONL stream.
type stepRecordJSON struct {
	Step     int              `json:"step"`
	Rank     int              `json:"rank"`
	WallNs   int64            `json:"wall_ns"`
	PhaseNs  map[string]int64 `json:"phase_ns"`
	Counters map[string]int64 `json:"counters"`
}

// TestStepRecordsAndRegistryConsistency: the per-step JSONL stream is
// internally consistent (every line parses; per-step phase time fits
// inside the step's wall time) and the registry's published counters
// match the run's own RankStats and per-class comm totals.
func TestStepRecordsAndRegistryConsistency(t *testing.T) {
	cfg, model := silicaConfig(t, 4, 300, 33)
	cart, _ := comm.NewCartDims(geom.IV(2, 1, 1))
	const steps = 3

	var buf bytes.Buffer
	reg := obs.NewRegistry()
	res, err := Run(cfg, model, Options{
		Scheme: SchemeSC, Cart: cart, Dt: 1, Steps: steps,
		Recorder: obs.NewRecorder(cart.Size(), 256),
		StepLog:  obs.NewStepWriter(&buf),
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if want := cart.Size() * steps; len(lines) != want {
		t.Fatalf("%d JSONL lines, want %d (ranks × steps)", len(lines), want)
	}
	perRank := map[int]map[string]int64{}
	for _, line := range lines {
		var rec stepRecordJSON
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if rec.WallNs <= 0 {
			t.Errorf("rank %d step %d: wall %d ns", rec.Rank, rec.Step, rec.WallNs)
		}
		var phaseSum int64
		for _, ns := range rec.PhaseNs {
			phaseSum += ns
		}
		if phaseSum > rec.WallNs {
			t.Errorf("rank %d step %d: phase sum %d ns exceeds wall %d ns",
				rec.Rank, rec.Step, phaseSum, rec.WallNs)
		}
		if perRank[rec.Rank] == nil {
			perRank[rec.Rank] = map[string]int64{}
		}
		for k, v := range rec.Counters {
			if k == "owned_atoms" || k == "comm_wait_ns" {
				continue // absolute / runtime values, not step deltas
			}
			perRank[rec.Rank][k] += v
		}
	}
	// Summed step deltas reproduce the cumulative RankStats, minus the
	// initial force evaluation the loop's records never cover.
	for rank, sums := range perRank {
		rs := res.RankStats[rank]
		if got, want := sums["steps"], int64(rs.Steps-1); got != want {
			t.Errorf("rank %d: step records sum to %d steps, stats say %d", rank, got, want)
		}
		if sums["tuples_evaluated"] >= rs.TuplesEvaluated {
			t.Errorf("rank %d: step deltas %d should exclude the initial evaluation (total %d)",
				rank, sums["tuples_evaluated"], rs.TuplesEvaluated)
		}
	}

	snap := reg.Snapshot()
	var tuples int64
	for _, rs := range res.RankStats {
		tuples += rs.TuplesEvaluated
	}
	if got := snap.Counters["parmd.tuples_evaluated"]; got != tuples {
		t.Errorf("registry parmd.tuples_evaluated = %d, RankStats sum %d", got, tuples)
	}
	if got, want := snap.Counters["comm.halo.bytes"], res.CommByClass["halo"].Bytes; got != want {
		t.Errorf("registry comm.halo.bytes = %d, run counted %d", got, want)
	}
	if got, want := snap.Counters["comm.halo.wait_ns"], res.CommByClass["halo"].Wait.Nanoseconds(); got != want {
		t.Errorf("registry comm.halo.wait_ns = %d, run counted %d", got, want)
	}
	if got := snap.Gauges["parmd.ranks"]; got != float64(cart.Size()) {
		t.Errorf("registry parmd.ranks = %g, want %d", got, cart.Size())
	}
	hist, ok := snap.Histograms["parmd.step_ms"]
	if !ok {
		t.Fatal("registry has no parmd.step_ms histogram")
	}
	if hist.Count != int64(cart.Size()*steps) {
		t.Errorf("parmd.step_ms count = %d, want %d", hist.Count, cart.Size()*steps)
	}
	cp, ok := snap.Gauges["phase.critical_path_fraction"]
	if !ok || cp <= 0 || cp > 1 {
		t.Errorf("phase.critical_path_fraction = %g (present=%v), want in (0, 1]", cp, ok)
	}
}

// TestMaxRankPin pins the table-driven MaxRank against the previous
// hand-written reduction for the five fields it covered, and checks
// the new fields reduce component-wise too (each column's maximum may
// come from a different rank).
func TestMaxRankPin(t *testing.T) {
	res := &Result{RankStats: []RankStats{
		{Steps: 3, OwnedAtoms: 10, SearchCandidates: 100, TuplesEvaluated: 5,
			PairListEntries: 7, AtomsImported: 50, AtomsMigrated: 2, HaloMessages: 12, Virial: -3.5},
		{Steps: 2, OwnedAtoms: 40, SearchCandidates: 90, TuplesEvaluated: 9,
			PairListEntries: 1, AtomsImported: 60, AtomsMigrated: 8, HaloMessages: 6, Virial: 1.25},
	}}
	// The pre-table implementation, verbatim.
	var legacy RankStats
	for _, s := range res.RankStats {
		legacy.SearchCandidates = max(legacy.SearchCandidates, s.SearchCandidates)
		legacy.TuplesEvaluated = max(legacy.TuplesEvaluated, s.TuplesEvaluated)
		legacy.AtomsImported = max(legacy.AtomsImported, s.AtomsImported)
		legacy.OwnedAtoms = max(legacy.OwnedAtoms, s.OwnedAtoms)
		legacy.HaloMessages = max(legacy.HaloMessages, s.HaloMessages)
	}
	got := res.MaxRank()
	if got.SearchCandidates != legacy.SearchCandidates || got.TuplesEvaluated != legacy.TuplesEvaluated ||
		got.AtomsImported != legacy.AtomsImported || got.OwnedAtoms != legacy.OwnedAtoms ||
		got.HaloMessages != legacy.HaloMessages {
		t.Errorf("MaxRank disagrees with the legacy reduction: %+v vs %+v", got, legacy)
	}
	want := RankStats{Steps: 3, OwnedAtoms: 40, SearchCandidates: 100, TuplesEvaluated: 9,
		PairListEntries: 7, AtomsImported: 60, AtomsMigrated: 8, HaloMessages: 12, Virial: 1.25}
	if got != want {
		t.Errorf("MaxRank = %+v, want %+v", got, want)
	}

	mean := res.MeanRank()
	if mean.SearchCandidates != 95 || mean.Virial != (-3.5+1.25)/2 {
		t.Errorf("MeanRank = %+v", mean)
	}
	if (&Result{}).MaxRank() != (RankStats{}) {
		t.Error("MaxRank of an empty result should be zero")
	}
}

// TestTraceFlowEvents: every point-to-point exchange on a recorded
// step emits a Chrome-trace flow pair — a "s" (start) event on the
// sender's track and a matching "f" (finish, bp "e") event on the
// receiver's — sharing one ID, so the viewer draws arrows from each
// send into the receive that consumed it. Covered for both exchange
// modes: the overlapped default (send posted in beginHalo/finishHalo,
// receive paired at the handle's completion point) and the synchronous
// path.
func TestTraceFlowEvents(t *testing.T) {
	cfg, model := silicaConfig(t, 4, 300, 32)
	// Fully split topology: an unsplit axis would wrap its halo phase
	// back to the sender itself, putting both flow endpoints on one
	// track and weakening the cross-track assertion below.
	cart, _ := comm.NewCartDims(geom.IV(2, 2, 2))
	for _, noOverlap := range []bool{false, true} {
		rec := obs.NewRecorder(cart.Size(), 1024)
		_, err := Run(cfg, model, Options{
			Scheme: SchemeSC, Cart: cart, Dt: 1, Steps: 3, Recorder: rec,
			NoOverlap: noOverlap,
		})
		if err != nil {
			t.Fatal(err)
		}

		type endpoints struct {
			starts, finishes int
			startTid, finTid int
		}
		flows := map[string]*endpoints{}
		for _, ev := range rec.Events() {
			if ev.Cat != "flow" {
				continue
			}
			if ev.Name != "msg" {
				t.Fatalf("flow event named %q, want \"msg\"", ev.Name)
			}
			ep := flows[ev.ID]
			if ep == nil {
				ep = &endpoints{}
				flows[ev.ID] = ep
			}
			switch ev.Ph {
			case "s":
				ep.starts++
				ep.startTid = ev.Tid
			case "f":
				if ev.Bp != "e" {
					t.Errorf("flow finish %s has bp %q, want \"e\"", ev.ID, ev.Bp)
				}
				ep.finishes++
				ep.finTid = ev.Tid
			default:
				t.Errorf("flow event %s has phase %q, want \"s\" or \"f\"", ev.ID, ev.Ph)
			}
		}
		if len(flows) == 0 {
			t.Fatal("trace contains no flow events")
		}
		for id, ep := range flows {
			if ep.starts != 1 || ep.finishes != 1 {
				t.Errorf("noOverlap=%v flow %s: %d starts, %d finishes, want exactly one of each",
					noOverlap, id, ep.starts, ep.finishes)
			}
			if ep.startTid == ep.finTid {
				t.Errorf("noOverlap=%v flow %s starts and finishes on the same track %d",
					noOverlap, id, ep.startTid)
			}
		}
	}
}

// TestStepRecordClassBytes: the JSONL step records carry per-tag-class
// byte deltas (comm_halo_bytes, comm_force_bytes, ...) whose per-rank
// sums — plus the initial force evaluation the loop's records never
// cover — reproduce the run's cumulative per-class totals. Forty 1 fs
// steps take the run past a list rebuild, the only steps that migrate
// (SC-MD's 0.98 Å skin on the even 4×4×4 lattice outlasts 24 fs here).
func TestStepRecordClassBytes(t *testing.T) {
	cfg, model := silicaConfig(t, 4, 300, 33)
	cart, _ := comm.NewCartDims(geom.IV(2, 1, 1))
	const steps = 40

	var buf bytes.Buffer
	res, err := Run(cfg, model, Options{
		Scheme: SchemeSC, Cart: cart, Dt: 1, Steps: steps,
		StepLog: obs.NewStepWriter(&buf),
	})
	if err != nil {
		t.Fatal(err)
	}

	sums := map[string]int64{}
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var rec stepRecordJSON
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		stepHalo := rec.Counters["comm_halo_bytes"]
		if stepHalo <= 0 {
			t.Errorf("rank %d step %d: comm_halo_bytes = %d, want > 0 (halo refresh every step)",
				rec.Rank, rec.Step, stepHalo)
		}
		for k, v := range rec.Counters {
			if strings.HasPrefix(k, "comm_") && strings.HasSuffix(k, "_bytes") {
				sums[strings.TrimSuffix(strings.TrimPrefix(k, "comm_"), "_bytes")] += v
			}
		}
	}
	if res.ListRebuilds < 2 {
		t.Fatalf("%d list builds in %d steps; the migrate class needs a rebuild step", res.ListRebuilds, steps)
	}
	for _, class := range []string{"halo", "force", "migrate", "vote"} {
		total := res.CommByClass[class].Bytes
		if sums[class] <= 0 || sums[class] > total {
			t.Errorf("class %s: step deltas sum to %d, cumulative total %d", class, sums[class], total)
		}
	}
	if sums["health"] != 0 {
		t.Errorf("monitor-less run recorded %d health bytes", sums["health"])
	}
}
