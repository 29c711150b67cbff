package flight

import (
	"encoding/json"
	"math"

	"sctuple/internal/obs"
)

// DetectConfig tunes the online anomaly detectors. Zero fields take
// the defaults below; the defaults are deliberately conservative —
// a detector that cries wolf on ordinary jitter is worse than none.
type DetectConfig struct {
	// Warmup is the number of completed steps used to seed the
	// running statistics before any detector may fire (default 30).
	Warmup int
	// WallZWarn/WallZHard are the robust z-score thresholds of the
	// step-wall-time spike detector (defaults 8 and 16): the per-step
	// max-over-ranks wall time is scored against an EWMA mean and an
	// EWMA absolute deviation scaled by 1.4826 (the MAD-to-σ factor
	// for normal data), floored at 5% of the mean so an ultra-steady
	// run doesn't turn scheduler noise into anomalies.
	WallZWarn float64
	WallZHard float64
	// ImbalanceWarn fires the imbalance-drift detector when the EWMA
	// of per-step max/mean wall time stays at or above it for
	// ImbalanceSteps consecutive completed steps (defaults 1.6, 25).
	ImbalanceWarn  float64
	ImbalanceSteps int
	// CommWaitRatio fires the comm-wait growth detector when a fast
	// EWMA of the run's comm-wait fraction (comm_wait_ns summed over
	// ranks / wall summed over ranks) exceeds CommWaitRatio times its
	// slow EWMA while above CommWaitFloor (defaults 2.5, 0.15) — the
	// signature of communication degrading mid-run rather than being
	// constitutionally slow.
	CommWaitRatio float64
	CommWaitFloor float64
	// WarnStreak fires the health detector after this many
	// consecutive sampled health observations that produced new warn
	// results (default 5). New fail results fire a hard anomaly
	// immediately.
	WarnStreak int
	// ModelBand/ModelSteps tune the measured-vs-perfmodel residual
	// detector: once a prediction is set, the EWMA of the measured
	// max-over-ranks compute (and, separately, comm) phase time is
	// compared against the model's expectation, and a ratio outside
	// [1/ModelBand, ModelBand] for ModelSteps consecutive steps fires
	// (defaults 3.0, 50).
	ModelBand  float64
	ModelSteps int
	// Cooldown is the minimum number of steps between two anomalies
	// of the same kind (default 50), bounding the event rate of a
	// persistently sick run. Only an earlier hard anomaly holds back a
	// hard one, so a warning cannot swallow the escalation after it.
	Cooldown int
	// LogSize bounds the retained anomaly ring (default 256).
	LogSize int
}

func (c DetectConfig) withDefaults() DetectConfig {
	if c.Warmup <= 0 {
		c.Warmup = 30
	}
	if c.WallZWarn <= 0 {
		c.WallZWarn = 8
	}
	if c.WallZHard <= 0 {
		c.WallZHard = 16
	}
	if c.ImbalanceWarn <= 0 {
		c.ImbalanceWarn = 1.6
	}
	if c.ImbalanceSteps <= 0 {
		c.ImbalanceSteps = 25
	}
	if c.CommWaitRatio <= 0 {
		c.CommWaitRatio = 2.5
	}
	if c.CommWaitFloor <= 0 {
		c.CommWaitFloor = 0.15
	}
	if c.WarnStreak <= 0 {
		c.WarnStreak = 5
	}
	if c.ModelBand <= 0 {
		c.ModelBand = 3
	}
	if c.ModelSteps <= 0 {
		c.ModelSteps = 50
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 50
	}
	if c.LogSize <= 0 {
		c.LogSize = 256
	}
	return c
}

// Anomaly kinds. AnomalyKinds lists them for consumers that
// pre-resolve per-kind state (registry counters, dashboards).
const (
	KindWall      = "wall"
	KindImbalance = "imbalance"
	KindCommWait  = "comm_wait"
	KindHealth    = "health"
	KindModel     = "model"
	KindAbort     = "abort"
)

// AnomalyKinds enumerates every kind the detectors emit.
var AnomalyKinds = []string{KindWall, KindImbalance, KindCommWait, KindHealth, KindModel, KindAbort}

// Anomaly is one detector event. Hard anomalies are the ones worth
// failing a CI job over (an extreme spike, a health fail, an abort);
// the rest are warnings. Score is the severity ranking key: how many
// thresholds-worth the observation was (z-score for wall, ratio for
// the drift detectors), so reports can rank mixed kinds.
type Anomaly struct {
	Kind string `json:"kind"`
	// Phase distinguishes sub-signals of one kind (the model detector
	// emits "compute" and "comm" residuals).
	Phase string `json:"phase,omitempty"`
	Step  int    `json:"step"`
	TNs   int64  `json:"t_ns,omitempty"`
	// Value is the measured quantity, Threshold what it was judged
	// against (both in the detector's native unit).
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold,omitempty"`
	Score     float64 `json:"score"`
	Hard      bool    `json:"hard,omitempty"`
	Msg       string  `json:"msg,omitempty"`
}

// anomalyLog is the bounded anomaly ring plus per-kind accounting.
type anomalyLog struct {
	buf      []Anomaly
	n        int64
	byKind   map[string]int64
	counters map[string]*obs.Counter
}

func (l *anomalyLog) init(reg *obs.Registry, size int) {
	l.buf = make([]Anomaly, size)
	l.byKind = make(map[string]int64, len(AnomalyKinds))
	for _, k := range AnomalyKinds {
		l.byKind[k] = 0
	}
	if reg != nil {
		l.counters = make(map[string]*obs.Counter, len(AnomalyKinds))
		for _, k := range AnomalyKinds {
			l.counters[k] = reg.Counter("anomaly." + k + ".total")
		}
	}
}

// detectors holds all online detector state: a fixed set of scalars,
// so running them per completed step costs no allocation.
type detectors struct {
	cfg       DetectConfig
	completed int64

	wallMean float64
	wallDev  float64

	imbEwma   float64
	imbStreak int

	cwFast   float64
	cwSlow   float64
	cwSeeded bool

	hOK, hWarn, hFail int64
	hStreak           int

	compEwma, commEwma     float64
	modSeeded              bool
	compStreak, commStreak int

	lastFire map[string]int // any anomaly, per kind
	lastHard map[string]int // hard anomalies, per kind
}

func (d *detectors) init(cfg DetectConfig) {
	d.cfg = cfg
	d.lastFire = make(map[string]int, len(AnomalyKinds))
	d.lastHard = make(map[string]int, len(AnomalyKinds))
	for _, k := range AnomalyKinds {
		d.lastFire[k] = -1 << 30
		d.lastHard[k] = -1 << 30
	}
}

// cooled reports (and records) whether an anomaly of a kind may fire
// at step — at most one per kind per Cooldown window, except that a
// hard anomaly is held back only by an earlier hard one.
func (d *detectors) cooled(kind string, step int, hard bool) bool {
	last := d.lastFire
	if hard {
		last = d.lastHard
	}
	if step-last[kind] < d.cfg.Cooldown {
		return false
	}
	d.lastFire[kind] = step
	if hard {
		d.lastHard[kind] = step
	}
	return true
}

// step runs every detector over one completed step. Caller holds
// r.mu.
func (d *detectors) step(r *Recorder, acc *stepAcc) {
	d.completed++
	warm := d.completed > int64(d.cfg.Warmup)
	x := acc.wallMax

	// Wall-time spike: robust z-score against EWMA mean / EWMA
	// absolute deviation. Score first, then let the sample update the
	// running statistics — a single spike must not drag the baseline
	// up before it is judged.
	if !warm {
		n := float64(d.completed)
		d.wallMean += (x - d.wallMean) / n
		d.wallDev += (math.Abs(x-d.wallMean) - d.wallDev) / n
	} else {
		sigma := 1.4826 * d.wallDev
		if floor := 0.05 * d.wallMean; sigma < floor {
			sigma = floor
		}
		if sigma > 0 {
			z := (x - d.wallMean) / sigma
			hard := z >= d.cfg.WallZHard
			if z >= d.cfg.WallZWarn && d.cooled(KindWall, acc.step, hard) {
				r.emit(Anomaly{
					Kind: KindWall, Step: acc.step, TNs: acc.tNs,
					Value: x, Threshold: d.wallMean + d.cfg.WallZWarn*sigma,
					Score: z, Hard: hard,
				})
			}
		}
		const a = 0.05
		d.wallMean += a * (x - d.wallMean)
		d.wallDev += a * (math.Abs(x-d.wallMean) - d.wallDev)
	}

	// Imbalance drift: EWMA of per-step max/mean wall over ranks.
	if acc.n > 1 {
		imb := acc.wallMax / (acc.wallSum / float64(acc.n))
		if d.imbEwma == 0 {
			d.imbEwma = imb
		}
		const a = 0.1
		d.imbEwma += a * (imb - d.imbEwma)
		if warm && d.imbEwma >= d.cfg.ImbalanceWarn {
			d.imbStreak++
		} else {
			d.imbStreak = 0
		}
		if d.imbStreak >= d.cfg.ImbalanceSteps {
			d.imbStreak = 0
			if d.cooled(KindImbalance, acc.step, false) {
				r.emit(Anomaly{
					Kind: KindImbalance, Step: acc.step, TNs: acc.tNs,
					Value: d.imbEwma, Threshold: d.cfg.ImbalanceWarn,
					Score: d.imbEwma / d.cfg.ImbalanceWarn,
				})
			}
		}
	}

	// Comm-wait growth: fast vs slow EWMA of the receive-wait
	// fraction.
	if acc.wallSum > 0 {
		frac := acc.commWaitNs / acc.wallSum
		if !d.cwSeeded {
			d.cwFast, d.cwSlow, d.cwSeeded = frac, frac, true
		}
		d.cwFast += 0.1 * (frac - d.cwFast)
		d.cwSlow += 0.01 * (frac - d.cwSlow)
		if warm && d.cwFast >= d.cfg.CommWaitFloor && d.cwSlow > 0 &&
			d.cwFast >= d.cfg.CommWaitRatio*d.cwSlow && d.cooled(KindCommWait, acc.step, false) {
			r.emit(Anomaly{
				Kind: KindCommWait, Step: acc.step, TNs: acc.tNs,
				Value: d.cwFast, Threshold: d.cfg.CommWaitRatio * d.cwSlow,
				Score: d.cwFast / (d.cfg.CommWaitRatio * d.cwSlow),
			})
		}
	}

	// Health: new fail observations are hard anomalies immediately; a
	// streak of sampled observations producing new warns is a soft
	// one. Steps without new observations (the monitor samples every
	// Nth step) leave the streak untouched.
	if r.cfg.Health != nil {
		ok, warnC, fail := r.cfg.Health.Totals()
		if fail > d.hFail && d.cooled(KindHealth, acc.step, true) {
			r.emit(Anomaly{
				Kind: KindHealth, Step: acc.step, TNs: acc.tNs,
				Value: float64(fail), Score: 100, Hard: true,
			})
		}
		if warnC > d.hWarn {
			d.hStreak++
		} else if ok+warnC+fail > d.hOK+d.hWarn+d.hFail {
			d.hStreak = 0
		}
		if d.hStreak >= d.cfg.WarnStreak {
			d.hStreak = 0
			if d.cooled(KindHealth, acc.step, false) {
				r.emit(Anomaly{
					Kind: KindHealth, Step: acc.step, TNs: acc.tNs,
					Value: float64(warnC), Threshold: float64(d.cfg.WarnStreak),
					Score: float64(d.cfg.WarnStreak),
				})
			}
		}
		d.hOK, d.hWarn, d.hFail = ok, warnC, fail
	}

	// Model residual: measured max-over-ranks compute/comm EWMAs vs
	// the armed prediction, fired only after the band has been
	// violated for ModelSteps consecutive steps.
	if r.hasPred {
		if !d.modSeeded {
			d.compEwma, d.commEwma, d.modSeeded = acc.computeMax, acc.commMax, true
		}
		const a = 0.1
		d.compEwma += a * (acc.computeMax - d.compEwma)
		d.commEwma += a * (acc.commMax - d.commEwma)
		if warm {
			d.compStreak = d.residual(r, acc, "compute", d.compEwma, r.pred.ComputeNs, d.compStreak)
			d.commStreak = d.residual(r, acc, "comm", d.commEwma, r.pred.CommNs, d.commStreak)
		}
	}
}

// residual advances one model-residual streak and fires when it
// crosses the configured persistence, returning the updated streak.
func (d *detectors) residual(r *Recorder, acc *stepAcc, phase string, measured, predicted float64, streak int) int {
	if predicted <= 0 || measured <= 0 {
		return 0
	}
	ratio := measured / predicted
	score := ratio
	if score < 1 {
		score = 1 / score
	}
	if score < d.cfg.ModelBand {
		return 0
	}
	streak++
	if streak < d.cfg.ModelSteps {
		return streak
	}
	if d.cooled(KindModel, acc.step, false) {
		r.emit(Anomaly{
			Kind: KindModel, Phase: phase, Step: acc.step, TNs: acc.tNs,
			Value: ratio, Threshold: d.cfg.ModelBand, Score: score / d.cfg.ModelBand,
		})
	}
	return 0
}

// emit appends an anomaly to the bounded log, bumps its registry
// counter, and publishes it as an "anomaly" event on the tee. Caller
// holds r.mu. The JSON encoding only happens when a live subscriber
// is attached — the fire itself is allocation-free otherwise.
func (r *Recorder) emit(a Anomaly) {
	r.log.buf[r.log.n%int64(len(r.log.buf))] = a
	r.log.n++
	r.log.byKind[a.Kind]++
	if c := r.log.counters[a.Kind]; c != nil {
		c.Add(1)
	}
	if r.cfg.Tee.Active() {
		if line, err := json.Marshal(struct {
			Anomaly Anomaly `json:"anomaly"`
		}{a}); err == nil {
			r.cfg.Tee.PublishEvent("anomaly", append(line, '\n'))
		}
	}
}

// RecordAbort logs the run's terminal failure as a hard "abort"
// anomaly — called by the postmortem path before the bundle is
// written, so offline analysis of a crashed run always has at least
// the crash itself, even when no detector fired beforehand. A step of
// -1 means the failing step is unknown (e.g. a signal).
func (r *Recorder) RecordAbort(step int, msg string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.emit(Anomaly{Kind: KindAbort, Step: step, Value: 1, Score: 1000, Hard: true, Msg: msg})
}

// AnomalySnapshot is the /anomalies body.
type AnomalySnapshot struct {
	Total  int64            `json:"total"`
	ByKind map[string]int64 `json:"by_kind,omitempty"`
	Last   *Anomaly         `json:"last,omitempty"`
	// Anomalies is the retained ring, oldest first (the ring is
	// bounded, so a long-sick run keeps the newest).
	Anomalies []Anomaly `json:"anomalies,omitempty"`
}

// Anomalies snapshots the anomaly log.
func (r *Recorder) Anomalies() AnomalySnapshot {
	if r == nil {
		return AnomalySnapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := AnomalySnapshot{Total: r.log.n}
	for k, n := range r.log.byKind {
		if n > 0 {
			if snap.ByKind == nil {
				snap.ByKind = make(map[string]int64)
			}
			snap.ByKind[k] = n
		}
	}
	if r.log.n > 0 {
		n := int64(len(r.log.buf))
		start := int64(0)
		if r.log.n > n {
			start = r.log.n - n
		}
		for i := start; i < r.log.n; i++ {
			snap.Anomalies = append(snap.Anomalies, r.log.buf[i%n])
		}
		last := snap.Anomalies[len(snap.Anomalies)-1]
		snap.Last = &last
	}
	return snap
}
