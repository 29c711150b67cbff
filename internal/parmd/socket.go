package parmd

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sctuple/internal/comm"
	"sctuple/internal/potential"
	"sctuple/internal/workload"
)

// socketDialTimeout bounds rendezvous registration, the peer mesh
// dial/accept, and the handshakes of an in-process socket world.
const socketDialTimeout = 30 * time.Second

// RunSocket executes the same run as Run, but over a real socket
// fabric: one goroutine per rank, each with its own SocketTransport,
// World, and wire connections — the full frame protocol, rendezvous,
// and failure paths of separate worker processes, minus fork/exec.
// network is "unix" or "tcp" (loopback). The returned Result is rank
// 0's (the only one with the gathered global state). Forces are
// bit-identical to Run: the wire codec round-trips float64 bits
// exactly and the reduction order is topology-, not transport-, fixed.
//
// This is the harness benchmarks and tests use; scmd's launcher runs
// the same protocol with ranks as genuine OS processes.
func RunSocket(cfg *workload.Config, model *potential.Model, opt Options, network string) (*Result, error) {
	return runSocketWorlds(cfg, model, opt, network, nil)
}

// runSocketWorlds is RunSocket plus a transport hook: wrap, when
// non-nil, may interpose on each rank's transport (fault injection,
// mid-run kills). Every rank's error is joined into the returned one.
func runSocketWorlds(cfg *workload.Config, model *potential.Model, opt Options, network string, wrap func(rank int, tr *comm.SocketTransport) comm.Transport) (*Result, error) {
	size := opt.Cart.Size()
	if size == 0 {
		return nil, fmt.Errorf("parmd: empty process topology")
	}
	dir, err := os.MkdirTemp("", "scsock")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var ln net.Listener
	switch network {
	case "unix":
		ln, err = net.Listen("unix", filepath.Join(dir, "rdv.sock"))
	case "tcp":
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	default:
		return nil, fmt.Errorf("parmd: unknown socket network %q (want unix or tcp)", network)
	}
	if err != nil {
		return nil, err
	}
	token := comm.NewSessionToken()
	go comm.ServeRendezvous(ln, size, token, socketDialTimeout)

	results := make([]*Result, size)
	errs := make([]error, size)
	transports := make([]*comm.SocketTransport, size)
	var wg sync.WaitGroup
	for rank := 0; rank < size; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, err := comm.DialSocket(comm.SocketConfig{
				Network:    network,
				Rendezvous: ln.Addr().String(),
				Rank:       rank,
				Size:       size,
				Token:      token,
				Timeout:    socketDialTimeout,
				Log:        opt.Log,
			})
			if err != nil {
				errs[rank] = fmt.Errorf("rank %d: dial fabric: %w", rank, err)
				return
			}
			transports[rank] = tr
			o := opt
			o.Worker = &WorkerRank{Rank: rank}
			o.Transport = tr
			if wrap != nil {
				o.Transport = wrap(rank, tr)
			}
			results[rank], errs[rank] = Run(cfg, model, o)
		}(rank)
	}
	wg.Wait()
	for _, tr := range transports {
		if tr != nil {
			tr.Close()
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return results[0], nil
}
