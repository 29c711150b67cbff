package comm

import (
	"fmt"
	"net"
	"time"
)

// The rendezvous protocol bootstraps the mesh: the launcher serves a
// well-known address; each worker listens on its own socket first,
// then registers (rank, listen address) with the launcher; once all
// ranks have registered, the launcher broadcasts the full address map
// and the workers dial each other directly. One round trip per worker,
// all frames in the same format as the data plane.

// ServeRendezvous accepts registrations on ln until every one of size
// ranks has reported its listen address, then sends each worker the
// full address map and returns. Registrations with a bad token, an
// out-of-range or duplicate rank, or a malformed frame are rejected by
// closing the connection (the worker sees EOF and fails its setup);
// the server keeps accepting until the full fleet arrives or the
// timeout expires. Intended to run on the launcher, concurrently with
// worker spawning.
func ServeRendezvous(ln net.Listener, size int, token uint64, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 15 * time.Second
	}
	deadline := time.Now().Add(timeout)
	if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		d.SetDeadline(deadline)
	}
	conns := make([]net.Conn, size)
	addrs := make([]string, size)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	for got := 0; got < size; {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("comm: rendezvous: %d of %d workers registered: %w", got, size, err)
		}
		conn.SetDeadline(deadline)
		rank, addr, err := readRegistration(conn, size, token)
		if err != nil || conns[rank] != nil {
			conn.Close()
			continue
		}
		conns[rank], addrs[rank] = conn, addr
		got++
	}
	var payload Buffer
	payload.Int32(int32(size))
	for _, a := range addrs {
		payload.Int32(int32(len(a)))
		payload.b = append(payload.b, a...)
	}
	var fw frameWriter
	for rank, conn := range conns {
		h := frameHeader{kind: framePeers, src: -1, dst: int32(rank)}
		if err := fw.write(conn, h, payload.Bytes()); err != nil {
			return fmt.Errorf("comm: rendezvous: sending peer map to rank %d: %w", rank, err)
		}
	}
	return nil
}

// readRegistration reads and validates one worker's register frame.
func readRegistration(conn net.Conn, size int, token uint64) (rank int, addr string, err error) {
	h, body, err := readControlFrame(conn, -1)
	if err != nil {
		return 0, "", err
	}
	rank = int(h.src)
	if h.kind != frameRegister || rank < 0 || rank >= size {
		return 0, "", &FrameError{Peer: rank, Reason: "invalid registration frame"}
	}
	var rd Reader
	rd.Reset(body)
	tok := uint64(rd.Int64())
	wsize := int(rd.Int32())
	alen := int(rd.Int32())
	if rd.Err() != nil || tok != token || wsize != size || alen < 0 || alen > rd.Remaining() {
		return 0, "", &FrameError{Peer: rank, Reason: "malformed or cross-launch registration"}
	}
	return rank, string(rd.take(alen)), nil
}

// registerWorker is the worker side: dial the rendezvous server (with
// retry — the launcher may still be starting), register our listen
// address, and wait for the full peer address map.
func registerWorker(cfg SocketConfig, listenAddr string, deadline time.Time) ([]string, error) {
	conn, err := dialRetry(cfg.Network, cfg.Rendezvous, deadline)
	if err != nil {
		return nil, fmt.Errorf("comm: rank %d reaching rendezvous %s: %w", cfg.Rank, cfg.Rendezvous, err)
	}
	defer conn.Close()
	conn.SetDeadline(deadline)

	var payload Buffer
	payload.Int64(int64(cfg.Token))
	payload.Int32(int32(cfg.Size))
	payload.Int32(int32(len(listenAddr)))
	payload.b = append(payload.b, listenAddr...)
	var fw frameWriter
	h := frameHeader{kind: frameRegister, src: int32(cfg.Rank), dst: -1}
	if err := fw.write(conn, h, payload.Bytes()); err != nil {
		return nil, fmt.Errorf("comm: rank %d registering: %w", cfg.Rank, err)
	}

	ph, body, err := readControlFrame(conn, -1)
	if err != nil {
		if fe, ok := err.(*FrameError); ok && fe.Reason == "connection closed during handshake" {
			return nil, fmt.Errorf("comm: rank %d: rendezvous rejected registration (token or rank mismatch): %w", cfg.Rank, err)
		}
		return nil, fmt.Errorf("comm: rank %d awaiting peer map: %w", cfg.Rank, err)
	}
	if ph.kind != framePeers || int(ph.dst) != cfg.Rank {
		return nil, &FrameError{Peer: -1, Reason: "unexpected rendezvous reply"}
	}
	var rd Reader
	rd.Reset(body)
	n := int(rd.Int32())
	if rd.Err() != nil || n != cfg.Size {
		return nil, &FrameError{Peer: -1, Reason: fmt.Sprintf("peer map for %d ranks, want %d", n, cfg.Size)}
	}
	addrs := make([]string, n)
	for i := range addrs {
		alen := int(rd.Int32())
		if rd.Err() != nil || alen < 0 || alen > rd.Remaining() {
			return nil, &FrameError{Peer: -1, Reason: "malformed peer map"}
		}
		addrs[i] = string(rd.take(alen))
	}
	return addrs, nil
}
