package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sctuple/internal/comm"
)

const pingTag = 7

// pingPong bounces one size-byte comm.Buffer between two ranks through
// Proc.SendBuffer/RecvBuffer until budget is spent (and at least
// minRounds times), over the in-process channel transport or a unix
// socket fabric, and returns every round trip.
func pingPong(socket bool, size int, budget time.Duration) ([]time.Duration, error) {
	const minRounds = 50
	var rtts []time.Duration
	body := func(p *comm.Proc) error {
		if p.Rank() == 1 {
			for {
				in := p.RecvBuffer(0, pingTag)
				more := in.Bytes()[0] != 0
				p.SendBuffer(0, pingTag, in) // echo the payload back
				if !more {
					return nil
				}
			}
		}
		deadline := time.Now().Add(budget)
		for round := 0; ; round++ {
			more := round < minRounds || time.Now().Before(deadline)
			out := p.AcquireBuffer()
			payload := out.Grow(size)
			payload[0] = 0
			if more {
				payload[0] = 1
			}
			start := time.Now()
			p.SendBuffer(1, pingTag, out)
			in := p.RecvBuffer(1, pingTag)
			rtts = append(rtts, time.Since(start))
			if in.Len() != size {
				return fmt.Errorf("ping-pong echoed %d bytes, sent %d", in.Len(), size)
			}
			p.ReleaseBuffer(in)
			if !more {
				return nil
			}
		}
	}
	if size < 1 {
		size = 1
	}
	if !socket {
		return rtts, comm.NewWorld(2).Run(body)
	}
	return rtts, runSocketPair(body)
}

// runSocketPair runs fn on a two-rank unix-socket world, one goroutine
// per rank with its own SocketTransport, and tears the fabric down.
func runSocketPair(fn func(p *comm.Proc) error) error {
	const size = 2
	dir, err := os.MkdirTemp("", "pbsock")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ln, err := net.Listen("unix", filepath.Join(dir, "rdv.sock"))
	if err != nil {
		return err
	}
	defer ln.Close()
	token := comm.NewSessionToken()
	rdv := make(chan error, 1)
	go func() { rdv <- comm.ServeRendezvous(ln, size, token, 30*time.Second) }()

	errs := make([]error, size)
	transports := make([]*comm.SocketTransport, size)
	var wg sync.WaitGroup
	for rank := 0; rank < size; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, err := comm.DialSocket(comm.SocketConfig{
				Network: "unix", Rendezvous: ln.Addr().String(),
				Rank: rank, Size: size, Token: token, Timeout: 30 * time.Second,
			})
			if err != nil {
				errs[rank] = fmt.Errorf("rank %d: dial fabric: %w", rank, err)
				return
			}
			transports[rank] = tr
			errs[rank] = comm.NewWorldRank(size, rank, tr).Run(fn)
		}(rank)
	}
	wg.Wait()
	// Close only once both ranks are done, so neither sees its peer's
	// link drop while a last echo is still in flight.
	for _, tr := range transports {
		if tr != nil {
			tr.Close()
		}
	}
	ln.Close()
	return errors.Join(append(errs, <-rdv)...)
}
