package perfmodel

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"sctuple/internal/comm"
	"sctuple/internal/md"
	"sctuple/internal/parmd"
	"sctuple/internal/potential"
	"sctuple/internal/workload"
)

// LocalMachine returns a Machine profile calibrated to the current
// host, so the analytic model can be compared against real in-process
// runs (bench.Validate) in absolute milliseconds rather than only in
// operation counts.
//
// Calibration (once per process, cached):
//
//   - Compute: the serial SC engine evaluates forces on the reference
//     silica system; the four Xeon compute constants are scaled by the
//     ratio of the measured evaluation time to the time the Xeon
//     profile predicts for the same operation counts. The relative
//     weights between candidate filtering, path application, and
//     pair/triplet evaluation are kept from the Xeon fit — only the
//     overall throughput is refitted.
//
//   - Communication: λ and β are measured by ping-pong over the same
//     in-process channel transport the parallel engines run on — an
//     empty-payload round trip for the per-message latency and a 1 MiB
//     payload for the effective bandwidth. On shared memory both are
//     far better than any cluster interconnect, which is exactly the
//     point: the profile describes the machine the measured runs
//     actually used.
func LocalMachine() (Machine, error) {
	localOnce.Do(func() {
		localMachine, localErr = calibrateLocal()
	})
	return localMachine, localErr
}

var (
	localOnce    sync.Once
	localMachine Machine
	localErr     error
)

func calibrateLocal() (Machine, error) {
	m := IntelXeon()
	m.Name = "local"
	m.TasksPerNode = runtime.NumCPU()

	scale, err := measureComputeScale(m)
	if err != nil {
		return Machine{}, err
	}
	m.CandidateTime *= scale
	m.PathTime *= scale
	m.PairEvalTime *= scale
	m.TripletEvalTime *= scale

	lat, bw, err := measurePingPong()
	if err != nil {
		return Machine{}, err
	}
	m.Latency = lat
	m.Bandwidth = bw
	return m, nil
}

// measureComputeScale times serial SC force evaluations on the
// reference system and returns measured / Xeon-modeled time. The
// minimum over a few repetitions rejects scheduling noise.
func measureComputeScale(xeon Machine) (float64, error) {
	model := potential.WithoutLinks(potential.NewSilicaModel()) // the searches MeasureRates counts
	cfg := workload.UniformSilica(rand.New(rand.NewSource(1)), referenceN)
	sys, err := md.NewSystem(cfg, model)
	if err != nil {
		return 0, err
	}
	engine, err := md.NewCellEngine(model, sys.Box, md.FamilySC)
	if err != nil {
		return 0, err
	}
	// Warm-up evaluation; also the source of the operation counts.
	if _, err := engine.Compute(sys); err != nil {
		return 0, err
	}
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := engine.Compute(sys); err != nil {
			return 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}

	r, err := MeasureRates(parmd.SchemeSC)
	if err != nil {
		return 0, err
	}
	n := float64(cfg.N())
	modeled := n * (r.SearchPerAtom*xeon.CandidateTime + r.PathsPerAtom*xeon.PathTime +
		r.PairsPerAtom*xeon.PairEvalTime + r.TripletsPerAtom*xeon.TripletEvalTime)
	if modeled <= 0 {
		return 0, fmt.Errorf("perfmodel: degenerate modeled reference time")
	}
	return best.Seconds() / modeled, nil
}

// pingPongIters and pingPongBytes size the latency and bandwidth
// probes: enough round trips to average channel-scheduling jitter,
// and a payload large enough that copy time dominates hand-off time.
const (
	pingPongIters = 200
	pingPongBytes = 1 << 20
)

// measurePingPong runs a 2-rank ping-pong over the in-process channel
// transport and returns the effective one-way latency (s) and
// bandwidth (B/s).
func measurePingPong() (lat, bw float64, err error) {
	world := comm.NewWorld(2)
	err = world.Run(func(p *comm.Proc) error {
		peer := 1 - p.Rank()
		small := make([]byte, 8)
		big := make([]byte, pingPongBytes)

		// Warm up both directions (and the transport's buffers).
		for i := 0; i < 4; i++ {
			if p.Rank() == 0 {
				p.Send(peer, 1, small)
				p.Recv(peer, 1)
			} else {
				p.Recv(peer, 1)
				p.Send(peer, 1, small)
			}
		}
		p.Barrier()

		start := time.Now()
		for i := 0; i < pingPongIters; i++ {
			if p.Rank() == 0 {
				p.Send(peer, 1, small)
				p.Recv(peer, 1)
			} else {
				p.Recv(peer, 1)
				p.Send(peer, 1, small)
			}
		}
		if p.Rank() == 0 {
			// One round trip = two one-way messages.
			lat = time.Since(start).Seconds() / float64(2*pingPongIters)
		}
		p.Barrier()

		start = time.Now()
		for i := 0; i < 8; i++ {
			if p.Rank() == 0 {
				p.Send(peer, 1, big)
				p.Recv(peer, 1)
			} else {
				p.Recv(peer, 1)
				p.Send(peer, 1, big)
			}
		}
		if p.Rank() == 0 {
			oneWay := time.Since(start).Seconds() / 16
			bw = pingPongBytes / oneWay
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	if lat <= 0 || bw <= 0 {
		return 0, 0, fmt.Errorf("perfmodel: ping-pong produced non-positive constants")
	}
	return lat, bw, nil
}
