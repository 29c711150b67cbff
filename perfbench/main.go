// Command perfbench is the repository benchmark: closed-loop batch MD
// runs of the Vashishta SiO₂ model on two ranks, timed around the
// public parmd entry points, with an untimed correctness gate on every
// call. With -trace 0 it reports the end-to-end metrics; with -trace 1
// it reports the per-layer metrics, timing each layer through its own
// API on the workload's configuration. See README.md.
//
// Run from the repository root (perfbench/run.py builds and runs it):
//
//	python3 perfbench/run.py --workload sc-fine --seed 1 --seconds 10 --trace 0
//	python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"sctuple/internal/potential"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed (drives thermalization)")
	seconds := fs.Float64("seconds", 10, "measurement time of the run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	list := fs.Bool("list", false, "print the workload names, one a line, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, s := range specs {
			fmt.Println(s.name)
		}
		return 0
	}
	s, err := findSpec(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err, "(want one of", workloadNames()+")")
		return 2
	}
	if *trace != 0 && *trace != 1 || !(*seconds > 0) {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1 and -seconds positive")
		return 2
	}
	runtime.GOMAXPROCS(min(ranks, runtime.NumCPU()))

	b := &bench{s: s, model: potential.NewSilicaModel(), seed: *seed,
		budget: time.Duration(*seconds * float64(time.Second))}
	var metrics map[string]metric
	if *trace == 1 {
		b.tr = newTracer()
		metrics, err = b.traced()
		if err == nil {
			path := fmt.Sprintf(".bench_build/perfbench/trace-%s-%d.json", s.name, *seed)
			if werr := b.tr.write(path); werr != nil {
				b.note("span file not written: %v", werr)
			} else {
				b.note("%d spans written to %s", len(b.tr.spans), path)
			}
		}
	} else {
		metrics, err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for name, m := range metrics {
		// JSON has no NaN or infinity; such a value means an input of
		// the metric was never measured, and the gate has failed.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			delete(metrics, name)
			b.fail("%s could not be computed (%v)", name, m.Value)
		}
	}

	info := map[string]any{
		"workload":    s.name,
		"seed":        *seed,
		"trace":       *trace,
		"atoms":       s.atoms(),
		"scheme":      s.scheme.String(),
		"transport":   s.transportName(),
		"instruments": s.observed,
		"fingerprint": fingerprint(),
		"samples":     b.samples,
		"checks":      b.checks,
		"details":     b.details,
		"failures":    b.failures,
		"notes":       b.notes,
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"perfbench": info}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return strings.Join(names, ", ")
}
