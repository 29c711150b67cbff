package parmd

import (
	"math"
	"time"

	"sctuple/internal/comm"
	"sctuple/internal/obs"
)

// rankStatField is one entry of the reflection-free field table below:
// a stable snake_case name (the key metrics and step records are
// emitted under) plus get/set accessors through float64, wide enough
// for every counter in RankStats (int64 counts stay exact to 2⁵³).
type rankStatField struct {
	Name string
	Get  func(*RankStats) float64
	Set  func(*RankStats, float64)
}

// rankStatFields enumerates every field of RankStats exactly once —
// the single source the component-wise reductions (MaxRank, MeanRank),
// the registry export, and the per-step counter records all share, so
// a new RankStats field added here shows up everywhere at once.
var rankStatFields = []rankStatField{
	{"steps",
		func(s *RankStats) float64 { return float64(s.Steps) },
		func(s *RankStats, v float64) { s.Steps = int(v) }},
	{"owned_atoms",
		func(s *RankStats) float64 { return float64(s.OwnedAtoms) },
		func(s *RankStats, v float64) { s.OwnedAtoms = int(v) }},
	{"search_candidates",
		func(s *RankStats) float64 { return float64(s.SearchCandidates) },
		func(s *RankStats, v float64) { s.SearchCandidates = int64(v) }},
	{"tuples_evaluated",
		func(s *RankStats) float64 { return float64(s.TuplesEvaluated) },
		func(s *RankStats, v float64) { s.TuplesEvaluated = int64(v) }},
	{"pair_list_entries",
		func(s *RankStats) float64 { return float64(s.PairListEntries) },
		func(s *RankStats, v float64) { s.PairListEntries = int64(v) }},
	{"list_entries",
		func(s *RankStats) float64 { return float64(s.ListEntries) },
		func(s *RankStats, v float64) { s.ListEntries = int64(v) }},
	{"list_rebuilds",
		func(s *RankStats) float64 { return float64(s.ListRebuilds) },
		func(s *RankStats, v float64) { s.ListRebuilds = int64(v) }},
	{"atoms_imported",
		func(s *RankStats) float64 { return float64(s.AtomsImported) },
		func(s *RankStats, v float64) { s.AtomsImported = int64(v) }},
	{"atoms_migrated",
		func(s *RankStats) float64 { return float64(s.AtomsMigrated) },
		func(s *RankStats, v float64) { s.AtomsMigrated = int64(v) }},
	{"halo_messages",
		func(s *RankStats) float64 { return float64(s.HaloMessages) },
		func(s *RankStats, v float64) { s.HaloMessages = int64(v) }},
	{"force_ns",
		func(s *RankStats) float64 { return float64(s.ForceNs) },
		func(s *RankStats, v float64) { s.ForceNs = int64(v) }},
	{"virial",
		func(s *RankStats) float64 { return s.Virial },
		func(s *RankStats, v float64) { s.Virial = v }},
}

// reduceRankStats folds all ranks' stats field by field through the
// shared obs.MaxMean reduction and assembles the requested component
// (pick receives each field's (max, mean) and chooses one).
func reduceRankStats(all []RankStats, pick func(max, mean float64) float64) RankStats {
	var out RankStats
	xs := make([]float64, len(all))
	for _, f := range rankStatFields {
		for i := range all {
			xs[i] = f.Get(&all[i])
		}
		mx, mean := obs.MaxMean(xs)
		f.Set(&out, pick(mx, mean))
	}
	return out
}

// MaxRank returns the component-wise maximum over RankStats — the
// critical-path load the performance model compares against.
func (r *Result) MaxRank() RankStats {
	if len(r.RankStats) == 0 {
		return RankStats{}
	}
	return reduceRankStats(r.RankStats, func(max, _ float64) float64 { return max })
}

// MeanRank returns the component-wise mean over RankStats; together
// with MaxRank it gives the per-counter load imbalance (max/mean).
func (r *Result) MeanRank() RankStats {
	if len(r.RankStats) == 0 {
		return RankStats{}
	}
	return reduceRankStats(r.RankStats, func(_, mean float64) float64 { return mean })
}

// rankStatDeltas fills counters with the per-field difference cur−prev
// under the table's names — one step's worth of counting for the
// per-step telemetry records.
func rankStatDeltas(cur, prev *RankStats, counters map[string]int64) {
	for _, f := range rankStatFields {
		counters[f.Name] = int64(f.Get(cur) - f.Get(prev))
	}
}

// liveMetrics is one rank's in-loop registry publisher: pre-resolved
// counter and gauge handles (resolved once at setup, so the steady
// state is a handful of atomic adds per step — no map lookups, no
// allocation) that keep the registry's cumulative counters current
// while the run is still stepping, so a live /metrics scrape sees
// real values instead of zeros. The live values are exact for
// monotone counters (they are the same deltas the step records
// carry) and approximate for the reduced gauges; publishMetrics
// overwrites everything with the exact end-of-run reduction via
// Counter.Store, so the final registry is identical whether or not a
// live publisher ran.
type liveMetrics struct {
	// counters is parallel to rankStatFields; nil entries are fields
	// that do not live-publish from this rank (virial everywhere —
	// it's a gauge of the summed final state — and steps and
	// list_rebuilds on every rank but 0, since the registry holds those
	// as run-global counts, not rank sums).
	counters []*obs.Counter
	imb      *obs.Gauge
	repart   *obs.Counter
	rec      *obs.Recorder

	classNames []string
	classBytes []*obs.Counter
	classMsgs  []*obs.Counter
	classWait  []*obs.Counter

	prev      RankStats
	prevClass []comm.Stats
	curClass  []comm.Stats
	rank0     bool
}

// newLiveMetrics resolves this rank's registry handles. The previous
// cumulative state starts at zero, so the first publish folds in the
// whole pre-loop setup (initial force evaluation, adoption) and the
// live counters track true cumulative totals from step 0 on.
func newLiveMetrics(reg *obs.Registry, p *comm.Proc, rec *obs.Recorder) *liveMetrics {
	lm := &liveMetrics{rec: rec, rank0: p.Rank() == 0}
	lm.counters = make([]*obs.Counter, len(rankStatFields))
	for i, f := range rankStatFields {
		switch f.Name {
		case "virial":
		case "steps", "list_rebuilds":
			if lm.rank0 {
				lm.counters[i] = reg.Counter("parmd." + f.Name)
			}
		default:
			lm.counters[i] = reg.Counter("parmd." + f.Name)
		}
	}
	if lm.rank0 {
		lm.imb = reg.Gauge("parmd.imbalance")
		lm.imb.Set(1) // present from step 0; refined below and at run end
		lm.repart = reg.Counter("parmd.repartitions")
		reg.Gauge("parmd.ranks").Set(float64(p.Size()))
	}
	lm.classNames = p.ClassNames()
	lm.classBytes = make([]*obs.Counter, len(lm.classNames))
	lm.classMsgs = make([]*obs.Counter, len(lm.classNames))
	lm.classWait = make([]*obs.Counter, len(lm.classNames))
	for i, name := range lm.classNames {
		lm.classBytes[i] = reg.Counter(obs.CommClassMetric(name, "bytes"))
		lm.classMsgs[i] = reg.Counter(obs.CommClassMetric(name, "messages"))
		lm.classWait[i] = reg.Counter(obs.CommClassMetric(name, "wait_ns"))
	}
	lm.prevClass = make([]comm.Stats, p.ClassCount())
	lm.curClass = make([]comm.Stats, p.ClassCount())
	return lm
}

// publish adds this rank's step deltas into the registry and, on rank
// 0, refreshes the live force-imbalance gauge (from the balancer's
// last collective check when one runs, else from the recorder's
// atomic per-rank force-phase clocks). Allocation-free.
func (lm *liveMetrics) publish(r *rankState, p *comm.Proc) {
	for i, f := range rankStatFields {
		c := lm.counters[i]
		if c == nil {
			continue
		}
		if d := int64(f.Get(&r.stats) - f.Get(&lm.prev)); d != 0 {
			c.Add(d)
		}
	}
	lm.prev = r.stats
	p.ClassStatsInto(lm.curClass)
	for i := range lm.classNames {
		cur, prev := lm.curClass[i], lm.prevClass[i]
		if d := cur.Bytes - prev.Bytes; d != 0 {
			lm.classBytes[i].Add(d)
		}
		if d := cur.Messages - prev.Messages; d != 0 {
			lm.classMsgs[i].Add(d)
		}
		if d := (cur.Wait - prev.Wait).Nanoseconds(); d != 0 {
			lm.classWait[i].Add(d)
		}
		lm.prevClass[i] = cur
	}
	if !lm.rank0 {
		return
	}
	if r.bal != nil {
		lm.repart.Store(int64(r.bal.repartitions))
		if r.bal.lastImb > 0 {
			lm.imb.Set(r.bal.lastImb)
		}
		return
	}
	if lm.rec != nil {
		n := lm.rec.Ranks()
		var max, sum float64
		for i := 0; i < n; i++ {
			rr := lm.rec.Rank(i)
			ns := float64(rr.PhaseNs(phaseForceInterior) + rr.PhaseNs(phaseForceBoundary))
			sum += ns
			if ns > max {
				max = ns
			}
		}
		if sum > 0 {
			lm.imb.Set(max / (sum / float64(n)))
		}
	}
}

// stepEmitter builds and writes one rank's per-step telemetry record:
// the wall time, a monotonic timestamp against the run's shared epoch,
// phase-time deltas (when a recorder runs), and counter deltas against
// the previous step's cumulative state. All scratch is persistent —
// the record's maps are cleared and refilled with the same keys each
// step (Go retains map buckets across clear, so the steady state
// allocates nothing even when a sink like the flight recorder consumes
// every step), and the comm_<class>_bytes keys and phase names are
// interned once at setup.
type stepEmitter struct {
	w     *obs.StepWriter
	r     *rankState
	p     *comm.Proc
	epoch time.Time

	rec        obs.StepRecord
	prevPhase  [obs.MaxPhases]int64
	phaseNames [obs.MaxPhases]string
	prevStats  RankStats
	prevWait   time.Duration
	classNames []string
	classKeys  []string // pre-built obs.CommClassKey(name, "bytes")
	prevClass  []comm.Stats
	curClass   []comm.Stats
}

// newStepEmitter builds the emitter and seeds the delta scratch from
// the current cumulative state, so the first step's record carries
// that step's own share rather than the setup's (initial force
// evaluation, adoption).
func newStepEmitter(w *obs.StepWriter, r *rankState, p *comm.Proc, epoch time.Time) *stepEmitter {
	e := &stepEmitter{w: w, r: r, p: p, epoch: epoch}
	e.rec.Rank = p.Rank()
	e.classNames = p.ClassNames()
	e.classKeys = make([]string, len(e.classNames))
	for i, name := range e.classNames {
		e.classKeys[i] = obs.CommClassKey(name, "bytes")
	}
	e.rec.Counters = make(map[string]int64, len(rankStatFields)+2+len(e.classNames))
	if r.rec != nil {
		e.rec.PhaseNs = make(map[string]int64, obs.MaxPhases)
	}
	e.prevClass = make([]comm.Stats, p.ClassCount())
	e.curClass = make([]comm.Stats, p.ClassCount())
	e.advance()
	return e
}

// advance rolls the per-step delta scratch forward without building a
// record — the inactive-writer path (no sink, no file, no live
// subscriber), so a subscriber that joins mid-run gets true per-step
// deltas from its first full step instead of a cumulative catch-up
// line. Allocation-free.
func (e *stepEmitter) advance() {
	e.prevStats = e.r.stats
	e.prevWait = e.p.Stats().Wait
	e.p.ClassStatsInto(e.prevClass)
	if e.r.rec != nil {
		e.r.rec.CopyPhaseNs(&e.prevPhase)
	}
}

// emit writes this rank's telemetry record for one step and advances
// the scratch. owned_atoms is reported as the current absolute value,
// the runtime's receive-wait delta rides along as comm_wait_ns, and
// each tag class's sent-byte delta as comm_<class>_bytes — so a step
// log can attribute a traffic spike to halo vs migrate vs write-back
// directly. Allocation-free in the steady state when no encoding
// consumer (file sink or tee subscriber) is attached.
func (e *stepEmitter) emit(step int, wall time.Duration) {
	e.rec.Step = step
	e.rec.WallNs = wall.Nanoseconds()
	e.rec.TNs = time.Since(e.epoch).Nanoseconds()
	clear(e.rec.Counters)
	rankStatDeltas(&e.r.stats, &e.prevStats, e.rec.Counters)
	e.rec.Counters["owned_atoms"] = int64(e.r.stats.OwnedAtoms)
	e.prevStats = e.r.stats
	wait := e.p.Stats().Wait
	e.rec.Counters["comm_wait_ns"] = (wait - e.prevWait).Nanoseconds()
	e.prevWait = wait
	e.p.ClassStatsInto(e.curClass)
	for i := range e.classNames {
		if d := e.curClass[i].Bytes - e.prevClass[i].Bytes; d != 0 {
			e.rec.Counters[e.classKeys[i]] = d
		}
		e.prevClass[i] = e.curClass[i]
	}
	if e.r.rec != nil {
		var cur [obs.MaxPhases]int64
		e.r.rec.CopyPhaseNs(&cur)
		clear(e.rec.PhaseNs)
		for i := range cur {
			if d := cur[i] - e.prevPhase[i]; d != 0 {
				name := e.phaseNames[i]
				if name == "" {
					name = obs.PhaseID(i).Name()
					e.phaseNames[i] = name
				}
				e.rec.PhaseNs[name] = d
			}
		}
		e.prevPhase = cur
	}
	e.w.WriteStep(e.rec)
}

// OverlapFraction returns the measured overlap efficiency of the
// split-phase halo exchange: the fraction of the exchange-completion
// window covered by interior force computation,
//
//	interior / (interior + wait)
//
// over the mean per-rank force:interior and halo:wait phase times. 1.0
// means every receive had already landed when the interior stage
// finished (the import latency was fully hidden); values near 0 mean
// the rank mostly sat blocked in halo:wait — no interior cells, or
// communication far slower than compute. Zero when no recorder ran or
// no exchange happened.
func (r *Result) OverlapFraction() float64 {
	var interior, wait float64
	for _, ps := range r.Phases {
		switch ps.Phase {
		case "force:interior":
			interior = ps.MeanNs
		case "halo:wait":
			wait = ps.MeanNs
		}
	}
	if interior+wait <= 0 {
		return 0
	}
	return interior / (interior + wait)
}

// OwnedImbalance returns the max over mean of the per-rank owned atom
// counts at the end of the run (RankStats.OwnedAtoms): 1 when every
// rank owns the same number of atoms.
func (r *Result) OwnedImbalance() float64 {
	maxN, sum := 0, 0
	for i := range r.RankStats {
		n := r.RankStats[i].OwnedAtoms
		sum += n
		maxN = max(maxN, n)
	}
	if sum == 0 {
		return 1
	}
	return float64(maxN) / (float64(sum) / float64(len(r.RankStats)))
}

// ForceImbalance returns the whole-run force-phase load imbalance: the
// max over mean of the per-rank cumulative force-work time
// (RankStats.ForceNs). 1 means perfectly balanced; it is the quantity
// the adaptive balancer drives down (Result.Imbalance is the same
// measure over the last balance-check interval only).
func (r *Result) ForceImbalance() float64 {
	if len(r.RankStats) == 0 {
		return 1
	}
	var maxNs, sumNs int64
	for i := range r.RankStats {
		ns := r.RankStats[i].ForceNs
		sumNs += ns
		if ns > maxNs {
			maxNs = ns
		}
	}
	if sumNs <= 0 {
		return 1
	}
	return float64(maxNs) / (float64(sumNs) / float64(len(r.RankStats)))
}

// publishMetrics exports the run's accumulated counters into the
// registry: summed RankStats under parmd.*, per-class communication
// volume and receive-wait time under comm.<class>.*, and — when a span
// recorder ran — per-phase max-rank milliseconds and imbalance gauges
// under phase.*. Counters are Stored, not Added: a live publisher may
// have been feeding per-step approximations into the same registry
// all run, and the end-of-run reconciliation overwrites them with the
// exact totals — the final registry is identical either way.
func publishMetrics(reg *obs.Registry, res *Result) {
	if reg == nil {
		return
	}
	var sum RankStats
	for _, s := range res.RankStats {
		sum.Add(s)
	}
	sum.Steps, sum.ListRebuilds = 0, 0
	for _, s := range res.RankStats {
		sum.Steps = max(sum.Steps, s.Steps)
		sum.ListRebuilds = max(sum.ListRebuilds, s.ListRebuilds)
	}
	sum.OwnedAtoms = 0
	for _, s := range res.RankStats {
		sum.OwnedAtoms += s.OwnedAtoms
	}
	for _, f := range rankStatFields {
		if f.Name == "virial" {
			reg.Gauge("parmd.virial").Set(sum.Virial)
			continue
		}
		reg.Counter("parmd." + f.Name).Store(int64(f.Get(&sum)))
	}
	reg.Gauge("parmd.ranks").Set(float64(len(res.RankStats)))
	reg.Counter("parmd.repartitions").Store(int64(res.Repartitions))
	// parmd.imbalance is always present: the balancer's last collective
	// measure when one ran, the whole-run force imbalance otherwise.
	if res.BalanceChecks > 0 {
		reg.Gauge("parmd.imbalance").Set(res.Imbalance)
	} else {
		reg.Gauge("parmd.imbalance").Set(res.ForceImbalance())
	}

	for class, s := range res.CommByClass {
		reg.Counter(obs.CommClassMetric(class, "messages")).Store(s.Messages)
		reg.Counter(obs.CommClassMetric(class, "bytes")).Store(s.Bytes)
		reg.Counter(obs.CommClassMetric(class, "wait_ns")).Store(s.Wait.Nanoseconds())
	}

	for _, ps := range res.Phases {
		reg.Gauge("phase." + ps.Phase + ".max_ms").Set(float64(ps.MaxNs) / 1e6)
		reg.Gauge("phase." + ps.Phase + ".imbalance").Set(ps.Imbalance())
	}
	if len(res.Phases) > 0 {
		reg.Gauge("parmd.overlap_fraction").Set(res.OverlapFraction())
	}
	if len(res.Phases) > 0 && res.Wall > 0 {
		frac := float64(obs.CriticalPathNs(res.Phases)) / float64(res.Wall.Nanoseconds())
		reg.Gauge("phase.critical_path_fraction").Set(math.Min(frac, 1))
	}
}
