package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"sctuple/internal/nlist"
	"sctuple/internal/parmd"
	"sctuple/internal/workload"
)

// stepCounts is one traced call's per-step counters: the call's
// totals minus its variant's 0-step call, divided by the steps. "max"
// quantities take the largest rank, the critical path of a step.
type stepCounts struct {
	candidates, tuples, entries, imported, owned float64 // max rank
	forceMs                                      float64 // max rank
	yield                                        float64 // world
	haloKB, forceKB, msgs, waitMs                float64 // world
	phaseMs                                      map[string]float64
}

// phaseMetrics maps the parmd.* per-layer metrics to the phases of the
// program's own span recorder they read.
var phaseMetrics = []struct{ metric, phase string }{
	{"parmd.halo_ms", "halo"},
	{"parmd.halo_wait_ms", "halo:wait"},
	{"parmd.writeback_ms", "writeback"},
	{"parmd.migrate_ms", "migrate"},
	{"parmd.bin_ms", "bin"},
	{"parmd.reduce_ms", "reduce"},
	{"parmd.health_ms", "health"},
}

func perStep(run, zero *parmd.Result, steps int) stepCounts {
	n := float64(steps)
	var c stepCounts
	var candSum, tupSum float64
	for r := range run.RankStats {
		a, z := run.RankStats[r], zero.RankStats[r]
		cand := float64(a.SearchCandidates - z.SearchCandidates)
		tup := float64(a.TuplesEvaluated - z.TuplesEvaluated)
		candSum += cand
		tupSum += tup
		c.candidates = math.Max(c.candidates, cand/n)
		c.tuples = math.Max(c.tuples, tup/n)
		c.entries = math.Max(c.entries, float64(a.PairListEntries-z.PairListEntries)/n)
		c.imported = math.Max(c.imported, float64(a.AtomsImported-z.AtomsImported)/n)
		c.forceMs = math.Max(c.forceMs, float64(a.ForceNs-z.ForceNs)/1e6/n)
		c.owned = math.Max(c.owned, float64(a.OwnedAtoms))
	}
	if candSum > 0 {
		c.yield = tupSum / candSum
	}
	class := func(name string) (kb float64) {
		return float64(run.CommByClass[name].Bytes-zero.CommByClass[name].Bytes) / 1e3 / n
	}
	c.haloKB, c.forceKB = class("halo"), class("force")
	c.msgs = float64(run.Comm.Messages-zero.Comm.Messages) / n
	c.waitMs = float64((run.Comm.Wait - zero.Comm.Wait).Nanoseconds()) / 1e6 / n
	c.phaseMs = make(map[string]float64)
	for _, ps := range run.Phases {
		mx := 0.0
		for r, ns := range ps.PerRankNs {
			mx = math.Max(mx, float64(ns-phaseNs(zero, ps.Phase, r)))
		}
		c.phaseMs[ps.Phase] = mx / 1e6 / n
	}
	return c
}

// medianTimes returns the last of several 0-step results with every
// timed field — per-rank force time, phase times, receive wait —
// replaced by its median over all of them. Operation counts are the
// same in every 0-step call of one configuration; times are not, and
// one call's noise would otherwise land in every traced call's
// per-step figures.
func medianTimes(rs []*parmd.Result) *parmd.Result {
	last := rs[len(rs)-1]
	z := *last
	z.RankStats = slices.Clone(last.RankStats)
	pick := func(f func(*parmd.Result) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	for rank := range z.RankStats {
		z.RankStats[rank].ForceNs = int64(pick(func(r *parmd.Result) float64 { return float64(r.RankStats[rank].ForceNs) }))
	}
	z.Comm.Wait = time.Duration(pick(func(r *parmd.Result) float64 { return float64(r.Comm.Wait) }))
	z.Phases = slices.Clone(last.Phases)
	for i := range z.Phases {
		ps := &z.Phases[i]
		ps.PerRankNs = slices.Clone(ps.PerRankNs)
		for rank := range ps.PerRankNs {
			ps.PerRankNs[rank] = int64(pick(func(r *parmd.Result) float64 { return float64(phaseNs(r, ps.Phase, rank)) }))
		}
	}
	return &z
}

// phaseNs returns one rank's accumulated time in a phase (0 when the
// result has no such phase).
func phaseNs(r *parmd.Result, phase string, rank int) int64 {
	for _, ps := range r.Phases {
		if ps.Phase == phase && rank < len(ps.PerRankNs) {
			return ps.PerRankNs[rank]
		}
	}
	return 0
}

// medianOf returns the median of f over the per-call counts.
func medianOf(cs []stepCounts, f func(stepCounts) float64) float64 {
	xs := make([]float64, len(cs))
	for i, c := range cs {
		xs[i] = f(c)
	}
	return median(xs)
}

// traced is the traced run: the same set-up and timed calls as the
// untraced run, interleaved with a variant that turns the program's
// span recorder on (and, on the observed workload, one with every
// instrument off), then each layer timed through its own API on the
// configuration the run ended in.
func (b *bench) traced() (map[string]metric, error) {
	b.root = b.tr.begin("perfbench", -1)
	defer b.tr.end(b.root)

	plain := b.plainVariant()
	vs := []*variant{plain}
	tracedV, bare := plain, (*variant)(nil)
	if b.s.observed {
		// The observed stack already runs the span recorder; tracing
		// adds only the benchmark's own spans around its calls.
		bare = &variant{name: "bare", inst: func() instruments { return instruments{} }}
		vs = append(vs, bare)
		b.note("trace.overhead_frac is 0 by definition: this workload runs the span recorder in every call")
	} else {
		tracedV = &variant{name: "traced", inst: func() instruments { return newInstruments(false, true) }}
		vs = append(vs, tracedV)
	}
	cfg, configT, _, err := b.setup(vs)
	if err != nil {
		return nil, err
	}
	b.measure(vs, cfg, b.budget*6/10)
	if len(plain.us) == 0 || tracedV.last == nil {
		return nil, fmt.Errorf("no timed call succeeded: %v", b.failures)
	}

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	atoms := b.s.atoms()
	usPlain := median(plain.us)
	stepNs := stepMs(usPlain, atoms) * 1e6

	put("setup.config_ms", median(inUnits(configT, time.Millisecond)), "ms")
	put("setup.world_ms", median(inUnits(plain.zero, time.Millisecond)), "ms")
	put("trace.overhead_frac", relDiff(median(tracedV.us), usPlain), "fraction")
	obsNs := 0.0
	if bare != nil {
		usBare := median(bare.us)
		put("obs.overhead_frac", relDiff(usPlain, usBare), "fraction")
		obsNs = stepNs - stepMs(usBare, atoms)*1e6
	} else {
		put("obs.overhead_frac", 0, "fraction")
		b.note("obs.overhead_frac is 0 by definition: this workload runs with instruments off")
	}

	counts := tracedV.counts
	cnt := func(f func(stepCounts) float64) float64 { return medianOf(counts, f) }
	put("tuple.candidates_per_step", cnt(func(c stepCounts) float64 { return c.candidates }), "count")
	put("tuple.yield", cnt(func(c stepCounts) float64 { return c.yield }), "fraction")
	put("nlist.entries_per_step", cnt(func(c stepCounts) float64 { return c.entries }), "count")
	put("comm.halo_kb_per_step", cnt(func(c stepCounts) float64 { return c.haloKB }), "kB")
	put("comm.force_kb_per_step", cnt(func(c stepCounts) float64 { return c.forceKB }), "kB")
	put("comm.msgs_per_step", cnt(func(c stepCounts) float64 { return c.msgs }), "count")
	put("comm.wait_ms_per_step", cnt(func(c stepCounts) float64 { return c.waitMs }), "ms")
	put("parmd.force_ms", cnt(func(c stepCounts) float64 { return c.forceMs }), "ms")
	for _, pm := range phaseMetrics {
		put(pm.metric, cnt(func(c stepCounts) float64 { return c.phaseMs[pm.phase] }), "ms")
	}
	put("parmd.import_atoms_per_step", cnt(func(c stepCounts) float64 { return c.imported }), "count")
	last := tracedV.last
	put("parmd.overlap_fraction", last.OverlapFraction(), "fraction")
	put("parmd.imbalance", last.ForceImbalance(), "ratio")

	lay, err := b.layers(last.Final, m, counts)
	if err != nil {
		return nil, err
	}
	put("parmd.parallel_efficiency", m["md.step_ms"].Value*1e6/(ranks*stepNs), "fraction")
	if obsNs != 0 {
		lay = append(lay, closureTerm{"obs", obsNs, 1})
	}
	put("closure.residual_frac", closureResidual(lay, stepNs), "fraction")
	terms := map[string]float64{"measured_step": stepNs / 1e6}
	for _, t := range lay {
		terms[t.name] = t.ns() / 1e6
	}
	b.detail("closure_ms", terms)
	return m, nil
}

// probe is one layer timing: a call into the layer's own API, and the
// wall time of every repetition.
type probe struct {
	name string
	fn   func()
	ds   []time.Duration
}

// timeRoundRobin repeats every probe once per round, in turn, until
// budget is spent (and at least minReps rounds), so that slow drifts
// of the host affect every layer alike rather than whichever happened
// to be timed during them.
func (b *bench) timeRoundRobin(probes []*probe, budget time.Duration) {
	deadline := time.Now().Add(budget)
	for round := 0; round < minReps || time.Now().Before(deadline); round++ {
		for _, p := range probes {
			p.ds = append(p.ds, b.tr.timed(p.name, b.root, p.fn))
		}
	}
	for _, p := range probes {
		b.sampled(p.name, len(p.ds))
	}
}

// layers times every layer through its own API on cfg, records the
// per-layer metrics into m, and returns the closure terms: each
// layer's cost per operation times the traced calls' operation counts.
func (b *bench) layers(cfg *workload.Config, m map[string]metric, counts []stepCounts) ([]closureTerm, error) {
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	cnt := func(f func(stepCounts) float64) float64 { return medianOf(counts, f) }

	g, err := newLayerRig(b.s, b.model, cfg)
	if err != nil {
		return nil, fmt.Errorf("layer rig: %w", err)
	}
	pairs, trips, err := g.emitted()
	if err != nil {
		return nil, err
	}
	kp, err := newKernelPass(g)
	if err != nil {
		return nil, err
	}
	// A list build reuses its storage, so one NewBuilder serves every
	// timed Build.
	lb, err := nlist.NewBuilder(g.bin, g.pair.Cutoff(), g.ids)
	if err != nil {
		return nil, err
	}
	sim, err := serialSim(b.s, b.model, cfg)
	if err != nil {
		return nil, err
	}
	cands := g.search()
	pl, err := lb.Build(g.pos)
	if err != nil {
		return nil, err
	}
	listCands, entries := pl.BuildStats.Candidates, pl.NumEntries()

	var reduces []time.Duration
	var kernelCands int64
	var simErr error
	rebin := &probe{name: "layer.cell.rebin", fn: g.rebin}
	search := &probe{name: "layer.tuple.search", fn: func() { g.search() }}
	pair := &probe{name: "layer.potential.pair", fn: func() { evalAll(g.pair, pairs) }}
	trip := &probe{name: "layer.potential.triplet", fn: func() { evalAll(g.trip, trips) }}
	kern := &probe{name: "layer.kernel.force", fn: func() {
		var r time.Duration
		_, r, kernelCands = kp.run()
		reduces = append(reduces, r)
	}}
	build := &probe{name: "layer.nlist.build", fn: func() { lb.Build(g.pos) }}
	step := &probe{name: "layer.md.step", fn: func() {
		if err := sim.Step(); err != nil {
			simErr = err
		}
	}}
	b.timeRoundRobin([]*probe{rebin, search, pair, trip, kern, build, step}, b.budget*3/10)
	if simErr != nil {
		return nil, fmt.Errorf("serial md step: %w", simErr)
	}
	med := func(p *probe) float64 { return float64(medianDuration(p.ds).Nanoseconds()) }
	nsPerCand := med(search) / float64(cands)
	pairNs := med(pair) / float64(pairs.len())
	tripNs := med(trip) / float64(trips.len())
	kernelNs := med(kern)
	reduceNs := float64(medianDuration(reduces).Nanoseconds())
	put("cell.rebin_ms", med(rebin)/1e6, "ms")
	put("tuple.search_ns_per_candidate", nsPerCand, "ns")
	put("potential.pair_eval_ns", pairNs, "ns")
	put("potential.triplet_eval_ns", tripNs, "ns")
	put("kernel.force_ms", kernelNs/1e6, "ms")
	put("kernel.reduce_us", reduceNs/1e3, "us")
	put("nlist.build_ms", med(build)/1e6, "ms")
	put("md.step_ms", med(step)/1e6, "ms")

	// comm: a halo-message-sized buffer bounced over the workload's
	// transport.
	haloMsgBytes := 1
	if msgs := cnt(func(c stepCounts) float64 { return c.msgs }); msgs > 0 {
		haloMsgBytes = max(1, int(cnt(func(c stepCounts) float64 { return c.haloKB })*1e3/msgs))
	}
	sp := b.tr.begin("layer.comm.pingpong", b.root)
	rtts, err := pingPong(b.s.socket, haloMsgBytes, b.budget/10)
	b.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("ping-pong: %w", err)
	}
	b.sampled("layer.comm.pingpong", len(rtts))
	rtt := float64(medianDuration(rtts).Nanoseconds())
	put("comm.roundtrip_us", rtt/1e3, "us")
	put("comm.mb_per_s", 2*float64(haloMsgBytes)/rtt*1e3, "MB/s")
	b.detail("pingpong_bytes", haloMsgBytes)

	// Closure: per-operation layer costs × the traced calls' counts.
	n := float64(len(g.pos))
	serialTuples := float64(pairs.len() + trips.len())
	pairShare := float64(pairs.len()) / serialTuples
	tuples := cnt(func(c stepCounts) float64 { return c.tuples })
	kernelSelf := (kernelNs - reduceNs - nsPerCand*float64(kernelCands) -
		pairNs*float64(pairs.len()) - tripNs*float64(trips.len())) / serialTuples
	rankAtoms := cnt(func(c stepCounts) float64 { return c.owned + c.imported })
	terms := []closureTerm{
		{"tuple.search", nsPerCand, cnt(func(c stepCounts) float64 { return c.candidates })},
		{"potential.pair", pairNs, tuples * pairShare},
		{"potential.triplet", tripNs, tuples * (1 - pairShare)},
		{"kernel.accumulate", kernelSelf, tuples},
		{"kernel.reduce", reduceNs / n, rankAtoms},
		{"cell.rebin", med(rebin) / n, rankAtoms},
		{"comm.message", rtt / 2, cnt(func(c stepCounts) float64 { return c.msgs }) / ranks},
	}
	if b.s.scheme == parmd.SchemeHybrid && entries > 0 {
		listNs := med(build) - nsPerCand*float64(listCands)
		terms = append(terms, closureTerm{"nlist.list", listNs / float64(entries), cnt(func(c stepCounts) float64 { return c.entries })})
	}
	return terms, nil
}
