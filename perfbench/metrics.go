package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), NaN for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// method the benchmark's acceptance spread is defined with. Fewer than
// two values give that value (or NaN) for both.
func quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s)
	q := func(i int) float64 {
		// Python clamps j to 1..m-1 before taking delta, so small
		// samples extrapolate from the end pair exactly as it does.
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// usPerAtomStep is the end-to-end unit (Beazley & Lomdahl's µs per
// particle per step): the wall time of an n-step call net of the
// set-up the same call performs, which a 0-step call measures, spread
// over atoms × steps.
func usPerAtomStep(runWall, setupWall time.Duration, atoms, steps int) (float64, error) {
	if atoms <= 0 || steps <= 0 {
		return 0, fmt.Errorf("normalization needs atoms and steps > 0 (have %d, %d)", atoms, steps)
	}
	net := runWall - setupWall
	if net <= 0 {
		return 0, fmt.Errorf("step loop time %v is not positive (run %v, set-up %v)", net, runWall, setupWall)
	}
	return float64(net.Nanoseconds()) / 1e3 / float64(atoms) / float64(steps), nil
}

// stepMs converts µs/atom/step back to the wall milliseconds of one
// whole step of the world.
func stepMs(usPerAtomStep float64, atoms int) float64 {
	return usPerAtomStep * float64(atoms) / 1e3
}

// closureTerm is one layer's share of a step in the closure check: its
// cost per operation (from the layer's own timing) times the number of
// those operations the measured run performed per step.
type closureTerm struct {
	name       string
	nsPerOp    float64
	opsPerStep float64
}

// ns returns the term's predicted nanoseconds per step.
func (t closureTerm) ns() float64 { return t.nsPerOp * t.opsPerStep }

// closureResidual is ROADMAP 1(a)'s closure check: 1 − Σ(layer cost ×
// operation count) / measured step. Zero means the layers account for
// the step exactly; positive means unexplained time (waiting,
// scheduling, layers not modelled); negative means the layers
// over-predict.
func closureResidual(terms []closureTerm, measuredStepNs float64) float64 {
	if !(measuredStepNs > 0) {
		return math.NaN()
	}
	sum := 0.0
	for _, t := range terms {
		sum += t.ns()
	}
	return 1 - sum/measuredStepNs
}

// relDiff returns a/b − 1, the relative overhead of a over b.
func relDiff(a, b float64) float64 {
	if !(b > 0) {
		return math.NaN()
	}
	return a/b - 1
}
