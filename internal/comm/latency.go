package comm

import (
	"sync"
	"time"
)

// LatencyTransport is the in-process channel transport with a fixed
// wire latency: a message between two different ranks becomes
// receivable delay after it was sent, while the send itself returns at
// once — the sender is free to compute while the message is in flight,
// as on a network. A rank's messages to itself arrive immediately. It
// is the A/B rig for communication/computation overlap: in-process
// channels deliver in nanoseconds, so without it a receive's wait
// measures only how far the ranks drifted apart, which overlap cannot
// hide. One delivery goroutine per link keeps every link FIFO; Close
// stops them once the world is done.
type LatencyTransport struct {
	delay time.Duration
	// wire[src][dst] holds a link's messages in flight (nil when
	// src == dst), links[src][dst] the receivable ones; both are
	// buffered like the channel transport's links (linkBuffer).
	wire  [][]chan timedMessage
	links [][]chan Message
	abort <-chan struct{}
	done  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup
}

// timedMessage is a message in flight with its arrival time.
type timedMessage struct {
	due time.Time
	m   Message
}

// NewLatencyTransport builds a latency transport for p ranks.
func NewLatencyTransport(p int, delay time.Duration) *LatencyTransport {
	t := &LatencyTransport{
		delay: delay,
		wire:  make([][]chan timedMessage, p),
		links: make([][]chan Message, p),
		done:  make(chan struct{}),
	}
	for s := range t.links {
		t.wire[s] = make([]chan timedMessage, p)
		t.links[s] = make([]chan Message, p)
		for d := range t.links[s] {
			t.links[s][d] = make(chan Message, linkBuffer)
			if s != d {
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
func (t *LatencyTransport) deliver(in <-chan timedMessage, out chan<- Message) {
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

// SetAbort implements AbortAware: a send blocked on a full link
// unwinds once the world aborts.
func (t *LatencyTransport) SetAbort(ch <-chan struct{}) { t.abort = ch }

// Send implements Transport.
func (t *LatencyTransport) Send(src, dst int, m Message) {
	if src == dst {
		select {
		case t.links[src][dst] <- m:
		case <-t.abort:
			panic(abortSignal{rank: src, src: dst})
		}
		return
	}
	select {
	case t.wire[src][dst] <- timedMessage{due: time.Now().Add(t.delay), m: m}:
	case <-t.abort:
		panic(abortSignal{rank: src, src: dst})
	}
}

// Recv implements Transport.
func (t *LatencyTransport) Recv(dst, src int) Message {
	return <-t.links[src][dst]
}

// RecvChan implements AsyncTransport.
func (t *LatencyTransport) RecvChan(dst, src int) <-chan Message {
	return t.links[src][dst]
}

// Close stops the delivery goroutines and returns once they have
// exited; messages still in flight are dropped. Call it after the
// world's Run has returned. Idempotent.
func (t *LatencyTransport) Close() {
	t.once.Do(func() { close(t.done) })
	t.wg.Wait()
}
