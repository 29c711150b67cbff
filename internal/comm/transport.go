package comm

import (
	"sync"
	"time"
)

// Message is one point-to-point transfer moving through a Transport.
// The payload travels as a *Buffer so pooled buffers can be handed off
// sender → transport → receiver and recycled without copying.
type Message struct {
	Tag int
	Buf *Buffer
}

// tagLinkDown marks a transport-synthesized message reporting that the
// peer on a link closed its connection (EOF). It is delivered in-band
// so a rank blocked waiting on that exact link unwinds with a typed
// error, while ranks that never needed the dead link keep running —
// EOF alone must not abort a world mid-shutdown, when peers that
// finished earlier close their ends while their last frames are still
// being drained. Never appears on the wire; far outside both user tags
// and the reserved collective range.
const tagLinkDown = -1 << 30

// Transport moves messages between ranks. It is the seam that lets the
// simulation stack swap the in-process channel runtime for a real
// network fabric (sockets, RDMA, MPI) without touching any caller: the
// World layers tag matching, per-class accounting, and buffer pooling
// on top, so a Transport only has to deliver messages per (src, dst)
// link in FIFO order.
//
// Send hands the message off; the sender must not touch m.Buf again
// until it comes back through a pool. A send that cannot complete
// once the world has aborted unwinds with the abort sentinel.
//
// RecvChan exposes the delivery channel of one (src → dst) link; the
// World selects on it together with its abort signal, so a blocked
// receive unwinds instead of deadlocking on a failed peer.
//
// Attach is called once, by the World at construction, with the
// world's abort channel and its failure callback: the transport
// selects on abort wherever a send can block, and reports an
// asynchronous fabric failure (peer disconnect, malformed frame, I/O
// error) through fail, which aborts every local rank.
//
// MarkStep receives the simulation step each local rank is entering
// (the socket transport stamps it into every frame header so captures
// of a broken stream carry the step they broke at).
//
// Close releases the transport's goroutines and connections. The World
// calls it when it aborts, so remote peers observe the failure as EOF
// and abort their own worlds in turn: that chain is how a killed
// worker unwinds all survivors. Close is idempotent and safe to call
// concurrently with operations, which then fail.
type Transport interface {
	Send(src, dst int, m Message)
	RecvChan(dst, src int) <-chan Message
	Attach(abort <-chan struct{}, fail func(error))
	MarkStep(step int)
	Close() error
}

var (
	_ Transport = (*chanTransport)(nil)
	_ Transport = (*SocketTransport)(nil)
	_ Transport = (*Tap)(nil)
)

// chanTransport is the in-process Transport: ranks are goroutines and
// every (src, dst) link is a buffered channel with strict FIFO
// ordering, the stand-in for MPI on the paper's clusters.
//
// With a positive wire delay, a message between two different ranks
// becomes receivable delay after it was sent, while the send itself
// returns at once — the sender is free to compute while the message is
// in flight, as on a network. A rank's messages to itself arrive
// immediately. It is the A/B rig for communication/computation
// overlap: in-process channels deliver in nanoseconds, so without a
// delay a receive's wait measures only how far the ranks drifted
// apart, which overlap cannot hide. One delivery goroutine per
// cross-rank link keeps every link FIFO; Close stops them once the
// world is done. At delay 0 no goroutine is started and Close is a
// no-op.
type chanTransport struct {
	links [][]chan Message // links[src][dst]: the receivable messages
	abort <-chan struct{}  // the world's, from Attach

	delay time.Duration
	// wire[src][dst] holds a cross-rank link's messages in flight (nil
	// channels at delay 0 and for src == dst).
	wire [][]chan timedMessage
	done chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// timedMessage is a message in flight with its arrival time.
type timedMessage struct {
	due time.Time
	m   Message
}

// linkBuffer is the per-(src,dst) channel capacity. Halo exchange,
// migration, and collectives post at most a handful of in-flight
// messages per link; the buffer only needs to decouple send/recv
// ordering within a step.
const linkBuffer = 128

// NewChanTransport builds the in-process channel transport for p ranks
// with the given wire delay between different ranks (0: deliver at
// once, the default of NewWorld).
func NewChanTransport(p int, delay time.Duration) Transport {
	t := &chanTransport{delay: delay, done: make(chan struct{})}
	t.links, t.wire = make([][]chan Message, p), make([][]chan timedMessage, p)
	for s := range t.links {
		t.links[s], t.wire[s] = make([]chan Message, p), make([]chan timedMessage, p)
		for d := range t.links[s] {
			t.links[s][d] = make(chan Message, linkBuffer)
			if delay > 0 && s != d {
				t.wire[s][d] = make(chan timedMessage, linkBuffer)
				t.wg.Add(1)
				go t.deliver(t.wire[s][d], t.links[s][d])
			}
		}
	}
	return t
}

// deliver moves one link's messages from the wire to the receiver as
// each one's latency elapses.
func (t *chanTransport) deliver(in <-chan timedMessage, out chan<- Message) {
	defer t.wg.Done()
	for {
		var tm timedMessage
		select {
		case tm = <-in:
		case <-t.done:
			return
		}
		if d := time.Until(tm.due); d > 0 {
			select {
			case <-time.After(d):
			case <-t.done:
				return
			}
		}
		select {
		case out <- tm.m:
		case <-t.done:
			return
		}
	}
}

// Attach implements Transport. An in-process transport never fails on
// its own, so fail is not kept.
func (t *chanTransport) Attach(abort <-chan struct{}, _ func(error)) { t.abort = abort }

func (t *chanTransport) Send(src, dst int, m Message) {
	if t.delay > 0 && src != dst {
		select {
		case t.wire[src][dst] <- timedMessage{due: time.Now().Add(t.delay), m: m}:
		case <-t.abort:
			panic(abortSignal{rank: src, src: dst})
		}
		return
	}
	// Fast path: the link buffer has room (the steady state — exchange
	// plans post a handful of messages per link per step).
	select {
	case t.links[src][dst] <- m:
		return
	default:
	}
	select {
	case t.links[src][dst] <- m:
	case <-t.abort:
		panic(abortSignal{rank: src, src: dst})
	}
}

// RecvChan implements Transport: the (src → dst) link channel.
func (t *chanTransport) RecvChan(dst, src int) <-chan Message {
	return t.links[src][dst]
}

// MarkStep implements Transport; in-process links carry no step.
func (t *chanTransport) MarkStep(int) {}

// Close stops the delivery goroutines and returns once they have
// exited; messages still in flight are dropped. Idempotent.
func (t *chanTransport) Close() error {
	t.once.Do(func() { close(t.done) })
	t.wg.Wait()
	return nil
}

// Tap wraps a Transport with two hooks — the one shim for fault
// injection, stalls, counters and kill drills over any transport.
// Every method not overridden here is the embedded transport's own.
// OnSend runs before each message is handed to the wrapped transport
// and may rewrite the payload through m.Buf; OnStep runs before each
// step marker is forwarded. Either may be nil. Both are called from
// rank goroutines, concurrently when a process hosts several ranks.
type Tap struct {
	Transport
	OnSend func(src, dst int, m Message)
	OnStep func(step int)
}

// Send implements Transport.
func (t *Tap) Send(src, dst int, m Message) {
	if t.OnSend != nil {
		t.OnSend(src, dst, m)
	}
	t.Transport.Send(src, dst, m)
}

// MarkStep implements Transport.
func (t *Tap) MarkStep(step int) {
	if t.OnStep != nil {
		t.OnStep(step)
	}
	t.Transport.MarkStep(step)
}
