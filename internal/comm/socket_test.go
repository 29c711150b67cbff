package comm

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// runSocketWorld brings up a size-rank socket fabric in-process (one
// goroutine per rank, each with its own World and SocketTransport —
// the same topology as real worker processes, minus fork/exec) and
// runs fn as the SPMD body. Returns the per-rank errors.
func runSocketWorld(t *testing.T, network string, size int, timeout time.Duration, fn func(p *Proc) error) []error {
	t.Helper()
	var ln net.Listener
	var err error
	if network == "unix" {
		ln, err = net.Listen("unix", filepath.Join(t.TempDir(), "rdv.sock"))
	} else {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		t.Fatal(err)
	}
	token := NewSessionToken()
	go ServeRendezvous(ln, size, token, timeout)

	errs := make([]error, size)
	transports := make([]*SocketTransport, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, err := DialSocket(SocketConfig{
				Network: network, Rendezvous: ln.Addr().String(),
				Rank: rank, Size: size, Token: token, Timeout: timeout,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			transports[rank] = tr
			errs[rank] = NewWorldRank(size, rank, tr).Run(fn)
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("socket world deadlocked")
	}
	for _, tr := range transports {
		if tr != nil {
			tr.Close()
		}
	}
	return errs
}

// TestSocketWorldExchange: point-to-point sends (including to self),
// collectives, and pooled buffers all behave over a 4-rank Unix-socket
// mesh exactly as over channels.
func TestSocketWorldExchange(t *testing.T) {
	const p = 4
	errs := runSocketWorld(t, "unix", p, 30*time.Second, func(pr *Proc) error {
		next, prev := (pr.Rank()+1)%p, (pr.Rank()+p-1)%p
		b := pr.AcquireBuffer()
		b.Int64(int64(pr.Rank() * 11))
		got := pr.SendRecvBuffer(next, 5, b, prev, 5)
		var rd Reader
		rd.Reset(got.Bytes())
		if v := rd.Int64(); v != int64(prev*11) {
			return fmt.Errorf("rank %d: ring got %d, want %d", pr.Rank(), v, prev*11)
		}
		pr.ReleaseBuffer(got)

		// Self-send through the local inbox.
		self := pr.AcquireBuffer()
		self.Int32(-7)
		echo := pr.SendRecvBuffer(pr.Rank(), 6, self, pr.Rank(), 6)
		rd.Reset(echo.Bytes())
		if v := rd.Int32(); v != -7 {
			return fmt.Errorf("rank %d: self send got %d", pr.Rank(), v)
		}
		pr.ReleaseBuffer(echo)

		if sum := pr.AllReduceSum(float64(pr.Rank())); sum != float64(p*(p-1)/2) {
			return fmt.Errorf("rank %d: allreduce sum %g", pr.Rank(), sum)
		}
		if n := pr.AllReduceSumInt64(1); n != p {
			return fmt.Errorf("rank %d: allreduce count %d", pr.Rank(), n)
		}
		pr.Barrier()
		return nil
	})
	for rank, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
	}
}

// TestSocketLargePayload: a payload far beyond the bufio window must
// cross intact (exercises the ReadFull path and Buffer.Grow).
func TestSocketLargePayload(t *testing.T) {
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	errs := runSocketWorld(t, "unix", 2, 30*time.Second, func(pr *Proc) error {
		if pr.Rank() == 0 {
			pr.Send(1, 9, append([]byte(nil), payload...))
			pr.Barrier()
			return nil
		}
		got := pr.Recv(0, 9)
		if !bytes.Equal(got, payload) {
			return fmt.Errorf("payload corrupted: %d bytes, want %d", len(got), len(payload))
		}
		pr.Barrier()
		return nil
	})
	for rank, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
	}
}

// TestSocketTCP: the same mesh over TCP loopback.
func TestSocketTCP(t *testing.T) {
	errs := runSocketWorld(t, "tcp", 2, 30*time.Second, func(pr *Proc) error {
		v := pr.AllReduceMax(float64(pr.Rank() + 1))
		if v != 2 {
			return fmt.Errorf("rank %d: max %g", pr.Rank(), v)
		}
		return nil
	})
	for rank, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
	}
}

// TestSocketPeerDeathAborts: when one rank fails, its world closes the
// fabric; the surviving process — blocked in a receive that will never
// complete — must unwind with ErrAborted instead of deadlocking. This
// is the cross-process abort chain (EOF → link poison → typed error)
// that a killed worker rides.
func TestSocketPeerDeathAborts(t *testing.T) {
	errs := runSocketWorld(t, "unix", 2, 30*time.Second, func(pr *Proc) error {
		if pr.Rank() == 1 {
			return fmt.Errorf("simulated crash")
		}
		pr.Recv(1, 9) // never sent: must unwind, not deadlock
		return fmt.Errorf("receive from dead peer returned")
	})
	if errs[1] == nil || errs[1].Error() != "simulated crash" {
		t.Errorf("rank 1 err = %v", errs[1])
	}
	if !errors.Is(errs[0], ErrAborted) {
		t.Errorf("rank 0 err = %v, want ErrAborted", errs[0])
	}
}

// TestSocketTagMismatchAborts: a desynced stream (wrong tag at the
// head of a link) aborts the receiving world with *ProtocolError.
func TestSocketTagMismatchAborts(t *testing.T) {
	errs := runSocketWorld(t, "unix", 2, 30*time.Second, func(pr *Proc) error {
		if pr.Rank() == 0 {
			pr.Send(1, 5, nil)
			pr.Recv(1, 5) // blocks until rank 1's abort tears the link down
			return nil
		}
		pr.Recv(0, 6)
		return fmt.Errorf("tag mismatch not caught")
	})
	var pe *ProtocolError
	if !errors.As(errs[1], &pe) {
		t.Errorf("rank 1 err = %v, want *ProtocolError", errs[1])
	}
	if errs[0] == nil {
		t.Error("rank 0 survived a dead world")
	}
}

// TestSocketTokenMismatch: a worker with the wrong session token must
// be rejected at registration — cross-launch connects cannot mix two
// fleets — and the deadline must fail the rest of the fleet rather
// than hang it.
func TestSocketTokenMismatch(t *testing.T) {
	ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "rdv.sock"))
	if err != nil {
		t.Fatal(err)
	}
	token := NewSessionToken()
	const timeout = 2 * time.Second
	go ServeRendezvous(ln, 2, token, timeout)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tok := token
			if rank == 1 {
				tok = token + 1
			}
			_, errs[rank] = DialSocket(SocketConfig{
				Network: "unix", Rendezvous: ln.Addr().String(),
				Rank: rank, Size: 2, Token: tok, Timeout: timeout,
			})
		}(r)
	}
	wg.Wait()
	if errs[1] == nil {
		t.Error("wrong-token worker connected")
	}
	if errs[0] == nil {
		t.Error("fleet came up despite a rejected worker")
	}
}

// TestServeConnBadFrame: garbage on an established link (bad magic)
// fails the fabric with a typed *FrameError through the fail callback
// from Attach — the one the World turns into a clean abort.
func TestServeConnBadFrame(t *testing.T) {
	local, remote := net.Pipe()
	defer remote.Close()
	tr := &SocketTransport{
		rank: 0, size: 2,
		links:   make([]*socketLink, 2),
		inbox:   []chan Message{make(chan Message, 1), make(chan Message, 1)},
		closeCh: make(chan struct{}),
	}
	failed := make(chan error, 1)
	tr.Attach(nil, func(err error) { failed <- err })
	go tr.serveConn(1, local)
	garbage := make([]byte, frameHeaderBytes)
	copy(garbage, "not a frame, definitely")
	if _, err := remote.Write(garbage); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-failed:
		var fe *FrameError
		if !errors.As(err, &fe) {
			t.Errorf("err = %v, want *FrameError", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("bad frame did not fail the fabric")
	}
	tr.Close()
}
