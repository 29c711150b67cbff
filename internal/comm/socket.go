package comm

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sctuple/internal/obs"
)

// SocketTransport runs a world's ranks as separate OS processes (or
// goroutines in tests) connected by a full mesh of TCP or Unix-domain
// stream sockets — the step from simulated distributed memory to
// genuinely distributed execution. Each unordered rank pair shares one
// bidirectional connection carrying length-prefixed frames (see
// frame.go); a reader goroutine per connection decodes frames into
// per-source inbox channels, which is exactly the shape RecvChan and
// the world's abort machinery already select on. Payload bytes are the
// same Buffer wire format the in-process transport moves by pointer,
// so forces are bit-identical across transports by construction.
//
// Failure mapping: a malformed frame or I/O error fails the fabric
// (Attach's fail → World abort); a clean EOF poisons only that link, so ranks
// that still wait on the dead peer unwind with ErrAborted while peers
// that already finished can close their ends without killing the
// world mid-shutdown. Closing the fabric (which World.abort does)
// propagates the failure to remote processes as EOF on their links.
type SocketTransport struct {
	rank, size int
	links      []*socketLink  // links[peer]; nil for self
	inbox      []chan Message // inbox[src]; inbox[rank] is the self-link

	closeCh   chan struct{}
	closeOnce sync.Once
	closed    atomic.Bool

	// pool holds every idle buffer of the local rank: sent buffers land
	// here once the frame is written, the rank releases received ones
	// into it (World uses Pool), and reader goroutines draw from it, so
	// steady-state exchanges allocate nothing once warm.
	pool BufferPool

	failMu  sync.Mutex
	failErr error
	onFail  func(error) // from Attach, before any reader starts

	step atomic.Int32
	log  *obs.Logger
}

// socketLink is the sender half of one rank-pair connection. The mutex
// serializes writers (the rank goroutine and, rarely, collectives on
// helper paths), so frames never interleave; fw writes each frame's
// header and payload in one vectored write.
type socketLink struct {
	mu   sync.Mutex
	conn net.Conn
	fw   frameWriter
}

// SocketConfig configures one rank's side of a socket fabric.
type SocketConfig struct {
	// Network is "tcp" or "unix".
	Network string
	// Rendezvous is the address of the launcher's rendezvous server
	// (ServeRendezvous), where workers trade listen addresses.
	Rendezvous string
	// Listen optionally pins this rank's own listen address. Defaults
	// to 127.0.0.1:0 for tcp and a path derived from Rendezvous for
	// unix.
	Listen string
	// Rank and Size identify this worker within the world.
	Rank, Size int
	// Token is the launcher-generated shared secret validated at
	// registration and on every mesh handshake, so two concurrent
	// launches on one host cannot cross-connect.
	Token uint64
	// Timeout bounds the whole setup (register, dial with backoff,
	// handshakes). Zero means 15s.
	Timeout time.Duration
	// Log, when set, reports fabric failures.
	Log *obs.Logger
}

func (c *SocketConfig) timeout() time.Duration {
	if c.Timeout <= 0 {
		return 15 * time.Second
	}
	return c.Timeout
}

// NewSessionToken draws a random shared secret for one launch.
func NewSessionToken() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Crypto randomness is only isolation between concurrent
		// launches; degrade to a clock-derived token rather than fail.
		return uint64(time.Now().UnixNano())
	}
	return binary.LittleEndian.Uint64(b[:])
}

// DialSocket brings up one rank's side of the fabric: listen, register
// the listen address with the rendezvous server, receive the full
// address map, build the connection mesh (dialing every lower rank
// with retry/backoff, accepting every higher one, validating the
// handshake on each link). It returns only when every link is up, or
// with an error when any part of setup fails within the deadline. The
// per-connection readers start when a World attaches the transport.
func DialSocket(cfg SocketConfig) (*SocketTransport, error) {
	if cfg.Size < 1 || cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, fmt.Errorf("comm: socket rank %d outside world of size %d", cfg.Rank, cfg.Size)
	}
	switch cfg.Network {
	case "tcp", "unix":
	default:
		return nil, fmt.Errorf("comm: socket network %q (want tcp or unix)", cfg.Network)
	}
	deadline := time.Now().Add(cfg.timeout())

	ln, err := net.Listen(cfg.Network, cfg.listenAddr())
	if err != nil {
		return nil, fmt.Errorf("comm: rank %d listen: %w", cfg.Rank, err)
	}
	t := &SocketTransport{
		rank:    cfg.Rank,
		size:    cfg.Size,
		links:   make([]*socketLink, cfg.Size),
		inbox:   make([]chan Message, cfg.Size),
		closeCh: make(chan struct{}),
		log:     cfg.Log,
		// Room for the buffers a step keeps in flight, so the pool's
		// own slice does not grow while a run warms up.
		pool: BufferPool{free: make([]*Buffer, 0, 64)},
	}
	for i := range t.inbox {
		t.inbox[i] = make(chan Message, linkBuffer)
	}
	fail := func(err error) (*SocketTransport, error) {
		ln.Close()
		for _, l := range t.links {
			if l != nil {
				l.conn.Close()
			}
		}
		return nil, err
	}

	addrs, err := registerWorker(cfg, ln.Addr().String(), deadline)
	if err != nil {
		return fail(err)
	}

	// Dial every lower rank; the lower side accepts. Sequential is
	// fine: acceptance is driven by listeners' OS backlogs, so there
	// is no dial/accept ordering deadlock across ranks.
	for peer := 0; peer < cfg.Rank; peer++ {
		conn, err := dialRetry(cfg.Network, addrs[peer], deadline)
		if err != nil {
			return fail(fmt.Errorf("comm: rank %d dialing rank %d: %w", cfg.Rank, peer, err))
		}
		if err := handshakeDial(conn, cfg, peer, deadline); err != nil {
			conn.Close()
			return fail(fmt.Errorf("comm: rank %d handshake with rank %d: %w", cfg.Rank, peer, err))
		}
		t.links[peer] = &socketLink{conn: conn}
	}
	// Accept every higher rank, in whatever order they arrive.
	if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		d.SetDeadline(deadline)
	}
	for need := cfg.Size - 1 - cfg.Rank; need > 0; need-- {
		conn, err := ln.Accept()
		if err != nil {
			return fail(fmt.Errorf("comm: rank %d accepting mesh link: %w", cfg.Rank, err))
		}
		src, err := handshakeAccept(conn, cfg, deadline)
		if err != nil {
			conn.Close()
			return fail(fmt.Errorf("comm: rank %d accepting mesh link: %w", cfg.Rank, err))
		}
		if t.links[src] != nil {
			conn.Close()
			return fail(fmt.Errorf("comm: rank %d: duplicate mesh link from rank %d", cfg.Rank, src))
		}
		t.links[src] = &socketLink{conn: conn}
	}
	// The mesh is complete and fixed; no more connections can join.
	ln.Close()
	return t, nil
}

func (c *SocketConfig) listenAddr() string {
	if c.Listen != "" {
		return c.Listen
	}
	if c.Network == "unix" {
		return filepath.Join(filepath.Dir(c.Rendezvous), fmt.Sprintf("w%d.sock", c.Rank))
	}
	return "127.0.0.1:0"
}

// dialRetry dials with exponential backoff until the deadline — the
// peer may not be listening yet while the fleet starts up.
func dialRetry(network, addr string, deadline time.Time) (net.Conn, error) {
	backoff := 5 * time.Millisecond
	var lastErr error
	for {
		left := time.Until(deadline)
		if left <= 0 {
			return nil, fmt.Errorf("dial %s %s: deadline exceeded (last error: %v)", network, addr, lastErr)
		}
		conn, err := net.DialTimeout(network, addr, min(left, time.Second))
		if err == nil {
			return conn, nil
		}
		lastErr = err
		time.Sleep(min(backoff, left))
		if backoff < 250*time.Millisecond {
			backoff *= 2
		}
	}
}

// handshakeDial runs the dialer side of the link handshake: announce
// ourselves with a hello frame, wait for the peer's ack. Token and
// world size catch cross-launch and misconfigured connects before any
// data frame moves.
func handshakeDial(conn net.Conn, cfg SocketConfig, peer int, deadline time.Time) error {
	conn.SetDeadline(deadline)
	defer conn.SetDeadline(time.Time{})
	var payload Buffer
	payload.Int64(int64(cfg.Token))
	payload.Int32(int32(cfg.Size))
	var fw frameWriter
	h := frameHeader{kind: frameHello, src: int32(cfg.Rank), dst: int32(peer)}
	if err := fw.write(conn, h, payload.Bytes()); err != nil {
		return fmt.Errorf("sending hello: %w", err)
	}
	ack, body, err := readControlFrame(conn, peer)
	if err != nil {
		return err
	}
	if ack.kind != frameAck || int(ack.src) != peer || int(ack.dst) != cfg.Rank {
		return &FrameError{Peer: peer, Reason: fmt.Sprintf(
			"unexpected handshake reply kind=%d src=%d dst=%d", ack.kind, ack.src, ack.dst)}
	}
	var rd Reader
	rd.Reset(body)
	if tok := uint64(rd.Int64()); rd.Err() != nil || tok != cfg.Token {
		return &FrameError{Peer: peer, Reason: "handshake ack token mismatch"}
	}
	return nil
}

// handshakeAccept runs the listener side: read the dialer's hello,
// validate it, ack. Returns the dialer's rank.
func handshakeAccept(conn net.Conn, cfg SocketConfig, deadline time.Time) (int, error) {
	conn.SetDeadline(deadline)
	defer conn.SetDeadline(time.Time{})
	h, body, err := readControlFrame(conn, -1)
	if err != nil {
		return 0, err
	}
	src := int(h.src)
	if h.kind != frameHello || src <= cfg.Rank || src >= cfg.Size || int(h.dst) != cfg.Rank {
		return 0, &FrameError{Peer: src, Reason: fmt.Sprintf(
			"unexpected hello kind=%d src=%d dst=%d (rank %d of %d accepting)",
			h.kind, h.src, h.dst, cfg.Rank, cfg.Size)}
	}
	var rd Reader
	rd.Reset(body)
	tok := uint64(rd.Int64())
	size := int(rd.Int32())
	if rd.Err() != nil || tok != cfg.Token {
		return 0, &FrameError{Peer: src, Reason: "hello token mismatch (stray or cross-launch connect)"}
	}
	if size != cfg.Size {
		return 0, &FrameError{Peer: src, Reason: fmt.Sprintf(
			"world size mismatch: peer says %d, local %d", size, cfg.Size)}
	}
	var payload Buffer
	payload.Int64(int64(cfg.Token))
	var fw frameWriter
	ack := frameHeader{kind: frameAck, src: int32(cfg.Rank), dst: h.src}
	if err := fw.write(conn, ack, payload.Bytes()); err != nil {
		return 0, fmt.Errorf("sending ack to rank %d: %w", src, err)
	}
	return src, nil
}

// readControlFrame reads one complete small frame during handshakes
// (allocating is fine off the hot path).
func readControlFrame(r io.Reader, peer int) (frameHeader, []byte, error) {
	var hdr [frameHeaderBytes]byte
	h, err := readFrameHeader(r, &hdr, peer)
	if err != nil {
		if err == io.EOF {
			return frameHeader{}, nil, &FrameError{Peer: peer, Reason: "connection closed during handshake"}
		}
		return frameHeader{}, nil, err
	}
	body := make([]byte, h.payload)
	if err := readFramePayload(r, h, body, peer); err != nil {
		return frameHeader{}, nil, err
	}
	return h, body, nil
}

// serveConn is the reader goroutine of one link: frames in, messages
// into the per-source inbox. Clean EOF poisons the link (see
// tagLinkDown); anything else fails the fabric.
func (t *SocketTransport) serveConn(peer int, conn net.Conn) {
	br := bufio.NewReaderSize(conn, 1<<16)
	var hdr [frameHeaderBytes]byte
	for {
		h, err := readFrameHeader(br, &hdr, peer)
		if err == io.EOF {
			t.linkDown(peer, "peer closed the connection")
			return
		}
		if err != nil {
			t.fail(err)
			return
		}
		if h.kind != frameData {
			t.fail(&FrameError{Peer: peer, Reason: fmt.Sprintf(
				"control frame kind=%d on an established link", h.kind)})
			return
		}
		if int(h.src) != peer || int(h.dst) != t.rank {
			t.fail(&FrameError{Peer: peer, Reason: fmt.Sprintf(
				"misrouted frame src=%d dst=%d on link %d→%d", h.src, h.dst, peer, t.rank)})
			return
		}
		buf := t.pool.Get(int(h.payload))
		if err := readFramePayload(br, h, buf.Grow(int(h.payload)), peer); err != nil {
			t.pool.Put(buf)
			t.fail(err)
			return
		}
		select {
		case t.inbox[peer] <- Message{Tag: int(h.tag), Buf: buf}:
		case <-t.closeCh:
			t.pool.Put(buf)
			return
		}
	}
}

// linkDown delivers the poison message for a cleanly closed link.
func (t *SocketTransport) linkDown(peer int, reason string) {
	if t.closed.Load() {
		return
	}
	select {
	case t.inbox[peer] <- Message{Tag: tagLinkDown, Buf: &Buffer{b: []byte(reason)}}:
	case <-t.closeCh:
	}
}

// fail records the first fabric failure and notifies the attached
// callback (the World's abort). Failures after an explicit Close are
// expected teardown noise and are dropped.
func (t *SocketTransport) fail(err error) {
	if t.closed.Load() {
		return
	}
	t.failMu.Lock()
	first := t.failErr == nil
	if first {
		t.failErr = err
	}
	t.failMu.Unlock()
	if first {
		t.log.Error("socket fabric failure", "rank", t.rank, "err", err)
		t.onFail(err)
	}
}

// error returns what a blocked operation should unwind with: ErrAborted
// decorated with the recorded fabric failure, if any.
func (t *SocketTransport) error() error {
	t.failMu.Lock()
	defer t.failMu.Unlock()
	if t.failErr != nil {
		return fmt.Errorf("%w (fabric: %v)", ErrAborted, t.failErr)
	}
	return ErrAborted
}

// Attach implements Transport: it keeps the fail callback and starts
// the per-connection readers, so no fabric failure can precede it. The
// abort channel is not kept: the World closes the fabric when it
// aborts, which already unblocks every send.
func (t *SocketTransport) Attach(_ <-chan struct{}, fail func(error)) {
	t.onFail = fail
	for peer, l := range t.links {
		if l != nil {
			go t.serveConn(peer, l.conn)
		}
	}
}

// Close implements Transport: tear every connection down. Idempotent.
// Remote peers observe the close as EOF on their side of each link.
func (t *SocketTransport) Close() error {
	t.closeOnce.Do(func() {
		t.closed.Store(true)
		close(t.closeCh)
		for _, l := range t.links {
			if l != nil {
				l.conn.Close()
			}
		}
	})
	return nil
}

// MarkStep implements Transport: subsequent frames carry this step in
// their headers.
func (t *SocketTransport) MarkStep(step int) { t.step.Store(int32(step)) }

// Pool implements Transport: the readers fill incoming frames from the
// pool the local rank sends from and releases into.
func (t *SocketTransport) Pool() *BufferPool { return &t.pool }

// Send implements Transport: encode the message as one frame and write
// it on the peer link (self-sends short-circuit through the local
// inbox). The sent buffer is recycled into the receive pool, closing
// the buffer circulation loop the in-process transport gets by handing
// pointers across goroutines. A write failure fails the fabric and
// unwinds the calling rank with the abort sentinel.
func (t *SocketTransport) Send(src, dst int, m Message) {
	if dst == t.rank {
		select {
		case t.inbox[t.rank] <- m:
			return
		default:
		}
		select {
		case t.inbox[t.rank] <- m:
		case <-t.closeCh:
			panic(abortSignal{rank: src, err: t.error()})
		}
		return
	}
	l := t.links[dst]
	h := frameHeader{
		kind: frameData,
		src:  int32(src), dst: int32(dst),
		tag: int32(m.Tag), step: t.step.Load(),
	}
	l.mu.Lock()
	err := l.fw.write(l.conn, h, m.Buf.Bytes())
	l.mu.Unlock()
	if err != nil {
		t.fail(fmt.Errorf("comm: rank %d send to rank %d: %w", src, dst, err))
		panic(abortSignal{rank: src, err: t.error()})
	}
	t.pool.Put(m.Buf)
}

// RecvChan implements Transport: the inbox of one source rank.
func (t *SocketTransport) RecvChan(dst, src int) <-chan Message {
	return t.inbox[src]
}
