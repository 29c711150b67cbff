package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"sctuple/internal/comm"
	"sctuple/internal/parmd"
	"sctuple/internal/potential"
	"sctuple/internal/workload"
)

// socketOpts carries the -transport socket configuration: the
// user-facing mode flags plus the internal worker flags the launcher
// passes to the rank processes it spawns.
type socketOpts struct {
	transport string // "chan" or "socket"
	network   string // "unix" or "tcp"
	dump      string // -dump-forces path
	killRank  int    // -kill-rank fault drill (-1 = off)
	killStep  int    // -kill-step

	workerRank int    // internal: ≥ 0 means this process IS rank workerRank
	rendezvous string // internal: launcher's rendezvous address
	token      string // internal: session token (decimal uint64)
}

// socketDialTimeout bounds rendezvous registration and the peer-mesh
// handshakes. Generous: a cold fleet start pays process spawn plus Go
// runtime init per worker.
const socketDialTimeout = 60 * time.Second

// runSocketMode dispatches -transport socket: worker processes (the
// launcher re-execs this binary with -worker-rank) run one rank each
// over the wire fabric; the parent process becomes the launcher.
func runSocketMode(cfg *workload.Config, model *potential.Model, engineName string, steps int, dt float64, ranks, every, workers int, tel telemetryOpts, sock socketOpts) error {
	if sock.network != "unix" && sock.network != "tcp" {
		return fmt.Errorf("-socket-net %q: want unix or tcp", sock.network)
	}
	// These instruments assume every rank lives in this process
	// (shared recorders, one registry, one flight ring); wiring them
	// across processes is future work, so reject rather than silently
	// record one rank's view.
	if tel.serve != "" || tel.postmortem != "" || tel.trace != "" || tel.metrics != "" || tel.modelCheck {
		return fmt.Errorf("-serve, -postmortem, -trace, -metrics, and -model-check require -transport chan (single-process observability)")
	}
	if sock.workerRank >= 0 {
		return runSocketWorker(cfg, model, engineName, steps, dt, ranks, every, workers, tel, sock)
	}
	return runSocketLauncher(ranks, sock)
}

// runSocketLauncher spawns one worker process per rank (re-execing
// this binary with the internal worker flags appended, so every worker
// reconstructs the identical workload from the identical flags) and
// brokers their rendezvous. Rank 0's stdout is the run's stdout; every
// worker's stderr is inherited so failures surface.
func runSocketLauncher(ranks int, sock socketOpts) error {
	dir, err := os.MkdirTemp("", "scmd-socket")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var ln net.Listener
	if sock.network == "unix" {
		ln, err = net.Listen("unix", filepath.Join(dir, "rdv.sock"))
	} else {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		return err
	}
	token := comm.NewSessionToken()
	rdvErr := make(chan error, 1)
	go func() { rdvErr <- comm.ServeRendezvous(ln, ranks, token, socketDialTimeout) }()
	fmt.Printf("socket fleet: %d worker processes over %s (rendezvous %s)\n",
		ranks, sock.network, ln.Addr())

	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	cmds := make([]*exec.Cmd, ranks)
	for rank := 0; rank < ranks; rank++ {
		// Later flags win in the flag package, so appending the worker
		// flags to the original argv reproduces this run's full
		// configuration in the child with only the worker identity
		// changed.
		args := append(append([]string(nil), os.Args[1:]...),
			"-worker-rank", strconv.Itoa(rank),
			"-rendezvous", ln.Addr().String(),
			"-socket-token", strconv.FormatUint(token, 10),
		)
		cmd := exec.Command(exe, args...)
		if rank == 0 {
			cmd.Stdout = os.Stdout
		} else {
			cmd.Stdout = io.Discard
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			for _, c := range cmds[:rank] {
				c.Process.Kill()
			}
			return fmt.Errorf("spawning worker rank %d: %w", rank, err)
		}
		cmds[rank] = cmd
	}

	// Forward termination to the fleet: a launcher killed by ^C must
	// not leave orphan workers spinning in the exchange protocol.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	done := make(chan struct{})
	go func() {
		select {
		case s := <-sigCh:
			fmt.Fprintf(os.Stderr, "scmd: %v, stopping %d workers\n", s, ranks)
			for _, c := range cmds {
				c.Process.Signal(syscall.SIGTERM)
			}
		case <-done:
		}
	}()

	var mu sync.Mutex
	var failures []string
	var wg sync.WaitGroup
	for rank, cmd := range cmds {
		wg.Add(1)
		go func(rank int, cmd *exec.Cmd) {
			defer wg.Done()
			if err := cmd.Wait(); err != nil {
				mu.Lock()
				failures = append(failures, fmt.Sprintf("rank %d: %v", rank, err))
				mu.Unlock()
			}
		}(rank, cmd)
	}
	wg.Wait()
	close(done)
	ln.Close()
	if len(failures) > 0 {
		return fmt.Errorf("%d of %d workers failed: %v", len(failures), ranks, failures)
	}
	return nil
}

// runSocketWorker runs one rank of the fleet: dial the fabric, run the
// simulation with a Worker-mode parmd, and (on rank 0) report the
// gathered result.
func runSocketWorker(cfg *workload.Config, model *potential.Model, engineName string, steps int, dt float64, ranks, every, workers int, tel telemetryOpts, sock socketOpts) error {
	rank := sock.workerRank
	if rank >= ranks {
		return fmt.Errorf("-worker-rank %d outside -ranks %d", rank, ranks)
	}
	token, err := strconv.ParseUint(sock.token, 10, 64)
	if err != nil {
		return fmt.Errorf("-socket-token: %w", err)
	}
	tr, err := comm.DialSocket(comm.SocketConfig{
		Network:    sock.network,
		Rendezvous: sock.rendezvous,
		Rank:       rank,
		Size:       ranks,
		Token:      token,
		Timeout:    socketDialTimeout,
		Log:        tel.log,
	})
	if err != nil {
		return fmt.Errorf("rank %d: dial fabric: %w", rank, err)
	}
	defer tr.Close()
	popt, err := parallelOptions(engineName, ranks, steps, dt, workers, tel, tr)
	if err != nil {
		return err
	}
	popt.Worker = &parmd.WorkerRank{Rank: rank}
	if sock.killRank == rank {
		// The -kill-rank fault drill: the worker dies with a hard exit
		// (no close, no flush — exactly what a crashed or OOM-killed
		// process looks like to its peers) when the step loop reaches
		// killStep.
		popt.Transport = &comm.Tap{Transport: popt.Transport, OnStep: func(step int) {
			if step >= sock.killStep {
				fmt.Fprintf(os.Stderr, "scmd: kill drill: rank %d exiting hard at step %d\n", rank, step)
				os.Exit(3)
			}
		}}
	}

	start := time.Now()
	res, err := parmd.Run(cfg, model, popt)
	if err != nil {
		return fmt.Errorf("rank %d: %w", rank, err)
	}
	if rank != 0 {
		return nil
	}
	printRun(res, time.Since(start), steps, every, " (gathered over the wire)")
	if popt.Health != nil {
		if res.Health.Healthy() {
			fmt.Println("health probes: all ok")
		} else {
			fmt.Println("health probes: failures recorded")
		}
	}
	return dumpForcesFile(sock.dump, res)
}

// dumpForcesFile writes the final per-atom forces as hex float64 bits,
// one atom per line — the exact-bits artifact CI diffs between the
// channel and socket transports.
func dumpForcesFile(path string, res *parmd.Result) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, v := range res.Forces {
		fmt.Fprintf(f, "%016x %016x %016x\n",
			math.Float64bits(v.X), math.Float64bits(v.Y), math.Float64bits(v.Z))
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("forces written to %s (%d atoms, hex float64 bits)\n", path, len(res.Forces))
	return nil
}

// schemeFor maps the -engine flag to a parallel scheme.
func schemeFor(engineName string) (parmd.Scheme, error) {
	switch engineName {
	case "sc":
		return parmd.SchemeSC, nil
	case "fs":
		return parmd.SchemeFS, nil
	case "hybrid":
		return parmd.SchemeHybrid, nil
	default:
		return 0, fmt.Errorf("unknown engine %q", engineName)
	}
}
