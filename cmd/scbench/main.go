// Command scbench regenerates every table and figure of the paper's
// analysis and evaluation sections (see DESIGN.md for the experiment
// index and EXPERIMENTS.md for paper-vs-measured results):
//
//	scbench patterns          pattern-cardinality analysis (Eq. 25-29, Fig. 5/6)
//	scbench imports           import-volume analysis (Eq. 33)
//	scbench fig7              triplet-count measurement (Figure 7)
//	scbench fig8 -machine m   runtime vs granularity (Figure 8a/8b)
//	scbench fig9 -machine m   strong scaling (Figure 9a/9b; -extreme for §5.3)
//	scbench midpoint          §6 cell-refinement trade-off (midpoint generalization)
//	scbench ablate            measured ablations of each design choice
//	scbench validate          real parallel runs vs performance model
//	                          (import atoms, search cost, and wire bytes
//	                          from the comm runtime's per-tag counters)
//	scbench workers           intra-node worker sweep of the force kernel (§6)
//	scbench transport         chan vs socket fabric on one workload, with a
//	                          forces bit-identity check
//	scbench watch addr        poll a live scmd -serve run and render a terminal dashboard
//	scbench analyze path      replay anomaly detectors over a postmortem bundle
//	                          (scmd -postmortem) or step log; non-zero exit on
//	                          hard anomalies
//	scbench all               everything above (except transport/watch/analyze)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"sctuple/internal/bench"
	"sctuple/internal/obs/serve"
	"sctuple/internal/perfmodel"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	args := os.Args[2:]
	var err error
	switch cmd {
	case "patterns":
		err = runPatterns(args)
	case "imports":
		err = runImports(args)
	case "midpoint":
		err = runMidpoint(args)
	case "fig7":
		err = runFig7(args)
	case "fig8":
		err = runFig8(args)
	case "fig9":
		err = runFig9(args)
	case "ablate":
		err = runAblate(args)
	case "validate":
		err = runValidate(args)
	case "workers":
		err = runWorkers(args)
	case "transport":
		err = runTransport(args)
	case "watch":
		err = runWatch(args)
	case "analyze":
		err = runAnalyze(args)
	case "all":
		err = runAll()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "scbench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: scbench {patterns|imports|midpoint|fig7|fig8|fig9|ablate|validate|workers|transport|watch|analyze|all} [flags]")
	fmt.Fprintln(os.Stderr, "  transport: chan vs socket fabric on one workload, with a forces bit-identity check")
	fmt.Fprintln(os.Stderr, "  fig8/fig9 flags: -machine {xeon|bgq}; fig9 also -extreme")
	fmt.Fprintln(os.Stderr, "  watch:   scbench watch host:port [-every dur] [-n polls] [-plain]  (pairs with scmd -serve)")
	fmt.Fprintln(os.Stderr, "  analyze: scbench analyze {bundle-dir|steps.jsonl}  (pairs with scmd -postmortem)")
	fmt.Fprintln(os.Stderr, "  all:     every paper table and figure (everything except transport/watch/analyze)")
}

func machineFlag(fs *flag.FlagSet) *string {
	return fs.String("machine", "xeon", "machine profile: xeon or bgq")
}

func pickMachine(name string) (perfmodel.Machine, error) {
	switch name {
	case "xeon":
		return perfmodel.IntelXeon(), nil
	case "bgq":
		return perfmodel.BlueGeneQ(), nil
	}
	return perfmodel.Machine{}, fmt.Errorf("unknown machine %q (want xeon or bgq)", name)
}

func runPatterns(args []string) error {
	fs := flag.NewFlagSet("patterns", flag.ExitOnError)
	maxN := fs.Int("maxn", 5, "largest tuple length to analyze")
	fs.Parse(args)
	bench.PatternsReport(os.Stdout, *maxN)
	return nil
}

func runImports(args []string) error {
	fs := flag.NewFlagSet("imports", flag.ExitOnError)
	fs.Parse(args)
	bench.ImportsReport(os.Stdout, []int{2, 3, 4}, []int{2, 4, 8, 16})
	return nil
}

func runMidpoint(args []string) error {
	fs := flag.NewFlagSet("midpoint", flag.ExitOnError)
	n := fs.Int("n", 2, "tuple length")
	maxK := fs.Int("maxk", 4, "finest cell radius (cells of r_cut/k)")
	fs.Parse(args)
	bench.MidpointReport(os.Stdout, *n, *maxK, 11.0)
	return nil
}

func runFig7(args []string) error {
	fs := flag.NewFlagSet("fig7", flag.ExitOnError)
	samples := fs.Int("samples", 3, "configurations averaged per point")
	seed := fs.Int64("seed", 1, "workload seed")
	fs.Parse(args)
	return bench.Fig7Report(os.Stdout, []int{5, 6, 8, 10, 12, 14, 16}, *samples, *seed)
}

func runFig8(args []string) error {
	fs := flag.NewFlagSet("fig8", flag.ExitOnError)
	mName := machineFlag(fs)
	fs.Parse(args)
	m, err := pickMachine(*mName)
	if err != nil {
		return err
	}
	return bench.Fig8Report(os.Stdout, m, bench.DefaultFig8Grains())
}

func runFig9(args []string) error {
	fs := flag.NewFlagSet("fig9", flag.ExitOnError)
	mName := machineFlag(fs)
	extreme := fs.Bool("extreme", false, "run the 50.3M-atom extreme-scale benchmark (§5.3)")
	fs.Parse(args)
	m, err := pickMachine(*mName)
	if err != nil {
		return err
	}
	if *extreme {
		if *mName != "bgq" {
			return fmt.Errorf("the extreme-scale benchmark ran on BlueGene/Q; use -machine bgq")
		}
		return bench.Fig9Report(os.Stdout, m, 50.3e6,
			[]int{128, 1024, 8192, 65536, 262144, 524288}, 128, 4)
	}
	switch *mName {
	case "xeon":
		return bench.Fig9Report(os.Stdout, m, 0.88e6,
			[]int{12, 24, 48, 96, 192, 384, 768}, 12, 1)
	default:
		return bench.Fig9Report(os.Stdout, m, 0.79e6,
			[]int{16, 64, 256, 1024, 4096, 8192}, 16, 4)
	}
}

func runAblate(args []string) error {
	fs := flag.NewFlagSet("ablate", flag.ExitOnError)
	atoms := fs.Int("atoms", 2000, "atom count of the ablation system")
	steps := fs.Int("steps", 20, "trajectory steps for the skin ablation")
	seed := fs.Int64("seed", 1, "workload seed")
	fs.Parse(args)
	return bench.AblateReport(os.Stdout, *atoms, *steps, *seed)
}

func runValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	atoms := fs.Int("atoms", 3000, "approximate atom count of the validation system")
	steps := fs.Int("steps", 3, "MD steps per run")
	seed := fs.Int64("seed", 1, "workload seed")
	trace := fs.String("trace", "", "write the runs' span timelines to this Chrome trace-event file")
	fs.Parse(args)
	return bench.ValidateReportTrace(os.Stdout, *atoms, []int{1, 8}, *steps, *seed, *trace)
}

func runWorkers(args []string) error {
	fs := flag.NewFlagSet("workers", flag.ExitOnError)
	atoms := fs.Int("atoms", 3000, "atom count of the sweep system")
	ranks := fs.Int("ranks", 8, "ranks of the rank-parallel sweep")
	seed := fs.Int64("seed", 1, "workload seed")
	trace := fs.String("trace", "", "write the rank-parallel runs' span timelines to this Chrome trace-event file")
	fs.Parse(args)
	return bench.WorkersReportTrace(os.Stdout, *atoms, *ranks, []int{1, 2, 4, runtime.GOMAXPROCS(0)}, *seed, *trace)
}

func runTransport(args []string) error {
	fs := flag.NewFlagSet("transport", flag.ExitOnError)
	atoms := fs.Int("atoms", 3000, "atom count of the comparison system")
	ranks := fs.Int("ranks", 4, "ranks (goroutines on chan, socket endpoints on socket)")
	steps := fs.Int("steps", 10, "MD steps per run")
	seed := fs.Int64("seed", 1, "workload seed")
	network := fs.String("net", "unix", "socket network: unix or tcp (loopback)")
	fs.Parse(args)
	return bench.TransportReport(os.Stdout, *atoms, *ranks, *steps, *seed, *network)
}

// runWatch accepts the address before or after the flags, so
// `scbench watch :9190 -every 2s` works even though package flag stops
// at the first non-flag argument.
func runWatch(args []string) error {
	var pos, flags []string
	for i := 0; i < len(args); i++ {
		if strings.HasPrefix(args[i], "-") {
			flags = append(flags, args[i])
			if !strings.Contains(args[i], "=") && i+1 < len(args) && args[i] != "-plain" {
				i++
				flags = append(flags, args[i])
			}
			continue
		}
		pos = append(pos, args[i])
	}
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	every := fs.Duration("every", time.Second, "poll interval")
	polls := fs.Int("n", 0, "stop after this many polls (0 = until the run completes)")
	plain := fs.Bool("plain", false, "append frames instead of redrawing (for logs / non-TTY output)")
	fs.Parse(flags)
	if len(pos) != 1 {
		return fmt.Errorf("watch needs one address: scbench watch host:port [-every dur] [-n polls] [-plain]")
	}
	return serve.Watch(os.Stdout, pos[0], serve.WatchOptions{
		Every: *every, Iterations: *polls, Plain: *plain,
	})
}

func runAnalyze(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("analyze needs one path: scbench analyze {bundle-dir|steps.jsonl}")
	}
	return bench.AnalyzeReport(os.Stdout, args[0])
}

func runAll() error {
	bench.PatternsReport(os.Stdout, 5)
	fmt.Println()
	bench.ImportsReport(os.Stdout, []int{2, 3, 4}, []int{2, 4, 8, 16})
	fmt.Println()
	bench.MidpointReport(os.Stdout, 2, 4, 11.0)
	fmt.Println()
	if err := bench.Fig7Report(os.Stdout, []int{5, 6, 8, 10, 12, 14, 16}, 3, 1); err != nil {
		return err
	}
	for _, name := range []string{"xeon", "bgq"} {
		m, _ := pickMachine(name)
		fmt.Println()
		if err := bench.Fig8Report(os.Stdout, m, bench.DefaultFig8Grains()); err != nil {
			return err
		}
	}
	fmt.Println()
	mx, _ := pickMachine("xeon")
	if err := bench.Fig9Report(os.Stdout, mx, 0.88e6, []int{12, 24, 48, 96, 192, 384, 768}, 12, 1); err != nil {
		return err
	}
	fmt.Println()
	mb, _ := pickMachine("bgq")
	if err := bench.Fig9Report(os.Stdout, mb, 0.79e6, []int{16, 64, 256, 1024, 4096, 8192}, 16, 4); err != nil {
		return err
	}
	fmt.Println()
	if err := bench.Fig9Report(os.Stdout, mb, 50.3e6, []int{128, 1024, 8192, 65536, 262144, 524288}, 128, 4); err != nil {
		return err
	}
	fmt.Println()
	if err := bench.AblateReport(os.Stdout, 2000, 20, 1); err != nil {
		return err
	}
	fmt.Println()
	if err := bench.ValidateReport(os.Stdout, 3000, []int{1, 8}, 3, 1); err != nil {
		return err
	}
	fmt.Println()
	return bench.WorkersReport(os.Stdout, 3000, 8, []int{1, 2, 4, runtime.GOMAXPROCS(0)}, 1)
}
