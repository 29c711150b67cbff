// Package comm implements the distributed-memory message-passing
// runtime the parallel MD codes run on — the stand-in for MPI on the
// paper's clusters. Ranks are goroutines; sends are byte messages over
// a pluggable Transport (the default moves them over per-link buffered
// channels) with strict (source, tag) ordering, so a mismatched
// receive is a protocol error caught immediately rather than a silent
// reorder.
//
// The runtime counts every message and byte per rank, broken down by
// registered tag class (halo, migration, force write-back, …), plus
// the time each rank spends blocked in receives. Those counters are
// the communication-cost inputs (Eq. 31) of the performance model in
// package perfmodel.
//
// Hot paths use pooled buffers: AcquireBuffer/SendBuffer on the
// sender, RecvBuffer/ReleaseBuffer on the receiver. Buffers circulate
// through per-rank freelists (over a byte-stream transport, through
// the transport's pool, Transport.Pool), so steady-state exchanges
// allocate nothing.
package comm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sctuple/internal/obs"
)

// Builtin tag-class slots. User classes registered with DefineTagClass
// follow after these.
const (
	classOther      = 0 // tags not matching any registered class
	classCollective = 1 // negative tags (reserved collective protocol)
	classBuiltin    = 2
)

// tagClassDef is one registered half-open tag range [lo, hi).
type tagClassDef struct {
	name   string
	lo, hi int
}

// World is a group of ranks that can communicate. Create one with
// NewWorld (in-process channel transport) or NewWorldTransport, and
// run an SPMD function on it with Run.
type World struct {
	size int
	tr   Transport
	// pool, when the transport has one (Transport.Pool), replaces the
	// ranks' own freelists.
	pool *BufferPool

	classes []tagClassDef // index = class slot (includes builtins)
	// counters[rank][class]: sends counted at the sender, receive wait
	// at the receiver.
	bytesSent [][]atomic.Int64
	msgsSent  [][]atomic.Int64
	waitNs    [][]atomic.Int64

	// abortCh is closed when any rank's SPMD function fails, so peers
	// blocked in receives unwind instead of deadlocking on messages
	// that will never come (see Run).
	abortCh   chan struct{}
	abortOnce sync.Once

	// fabricMu guards fabricErr, the first failure reported by the
	// underlying fabric (peer disconnect, malformed frame, …). It
	// decorates the ErrAborted the unblocked ranks come back with, so
	// "why did this world abort" survives into the error chain.
	fabricMu  sync.Mutex
	fabricErr error

	// local lists the ranks this process executes (nil = all of them).
	// A multi-process world (NewWorldRank) runs exactly one.
	local []int

	log *obs.Logger
}

// SetLogger attaches a structured logger to the world. Run reports
// per-rank failures through it; a nil logger (the default) disables
// that reporting.
func (w *World) SetLogger(l *obs.Logger) { w.log = l }

// NewWorld builds a world of p ranks over the in-process channel
// transport. It panics for p < 1 (worlds come from code, not input).
func NewWorld(p int) *World {
	return NewWorldTransport(p, NewChanTransport(p, 0))
}

// NewWorldTransport builds a world of p ranks over an explicit
// Transport — the seam for plugging a real network fabric under the
// unchanged simulation stack.
func NewWorldTransport(p int, tr Transport) *World {
	if p < 1 {
		panic(fmt.Sprintf("comm: world size %d < 1", p))
	}
	w := &World{
		size: p,
		tr:   tr,
		classes: []tagClassDef{
			{name: "other"},
			{name: "collective"},
		},
		abortCh: make(chan struct{}),
	}
	w.pool = tr.Pool()
	w.growCounters()
	tr.Attach(w.abortCh, w.recordFailure)
	return w
}

// NewWorldRank builds a world of p ranks of which this process runs
// exactly one — the multi-process form, where the transport is a real
// fabric (e.g. a SocketTransport) and each OS process hosts one rank.
// Run executes the SPMD function only for rank; the counter arrays
// still span the full world, but only the local slots are written.
func NewWorldRank(p, rank int, tr Transport) *World {
	if rank < 0 || rank >= p {
		panic(fmt.Sprintf("comm: local rank %d outside world of size %d", rank, p))
	}
	w := NewWorldTransport(p, tr)
	w.local = []int{rank}
	return w
}

// growCounters (re)allocates the per-rank per-class counter arrays.
// Only called at construction and from DefineTagClass, both before Run.
func (w *World) growCounters() {
	n := len(w.classes)
	w.bytesSent = make([][]atomic.Int64, w.size)
	w.msgsSent = make([][]atomic.Int64, w.size)
	w.waitNs = make([][]atomic.Int64, w.size)
	for r := 0; r < w.size; r++ {
		w.bytesSent[r] = make([]atomic.Int64, n)
		w.msgsSent[r] = make([]atomic.Int64, n)
		w.waitNs[r] = make([]atomic.Int64, n)
	}
}

// DefineTagClass registers the half-open tag range [lo, hi) under a
// name, so ClassStats can break communication volume down by traffic
// type (e.g. "halo", "migrate", "force"). Must be called before Run;
// ranges must not overlap previously registered ones. Negative tags
// are always accounted to the builtin "collective" class and
// unregistered non-negative tags to "other".
func (w *World) DefineTagClass(name string, lo, hi int) {
	if lo >= hi {
		panic(fmt.Sprintf("comm: tag class %q has empty range [%d, %d)", name, lo, hi))
	}
	for _, c := range w.classes[classBuiltin:] {
		if lo < c.hi && c.lo < hi {
			panic(fmt.Sprintf("comm: tag class %q [%d, %d) overlaps %q [%d, %d)",
				name, lo, hi, c.name, c.lo, c.hi))
		}
	}
	w.classes = append(w.classes, tagClassDef{name: name, lo: lo, hi: hi})
	w.growCounters()
}

// classOf maps a tag to its counter slot. The registered class list is
// short (a handful of traffic types), so a linear scan beats any map
// on the hot path — and allocates nothing.
func (w *World) classOf(tag int) int {
	if tag < 0 {
		return classCollective
	}
	for i := classBuiltin; i < len(w.classes); i++ {
		if c := w.classes[i]; tag >= c.lo && tag < c.hi {
			return i
		}
	}
	return classOther
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// ErrAborted is the error a rank comes back with when it was blocked
// in a receive (or a full-link send) while another rank failed: the
// world's abort signal unwound it instead of leaving it deadlocked on
// a message that will never arrive.
var ErrAborted = errors.New("comm: aborted while waiting for a peer (another rank failed)")

// ProtocolError is a violation of the messaging protocol detected at
// the comm layer: a receive whose tag does not match the next message
// on the link, or an operation naming a rank outside the world. Over
// the trusted in-process transport these are programming errors; over
// a real fabric a desynced peer can produce them at runtime, so they
// abort the world as typed errors flowing through the *RankError path
// instead of panicking the process.
type ProtocolError struct {
	Rank    int // rank that detected the violation
	Peer    int // peer involved, -1 when not applicable
	WantTag int // expected tag (tag mismatches only)
	GotTag  int // received tag (tag mismatches only)
	Reason  string
}

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("comm: protocol error at rank %d: %s", e.Rank, e.Reason)
}

// abortSignal is the sentinel panicked by an abort-unblocked receive
// or send, or by a rank failing with a typed comm error. It unwinds
// the rank's SPMD function up to the recover in Run (or an earlier
// recover installed by the caller — see IsAbort and AbortError).
type abortSignal struct {
	rank, src int
	err       error // typed cause; nil for plain peer-failure aborts
}

// IsAbort reports whether a recovered panic value is the world's abort
// sentinel. SPMD functions that install their own deferred recover
// (e.g. to attach rank context to the failure) must re-panic anything
// for which this returns false.
func IsAbort(v any) bool {
	_, ok := v.(abortSignal)
	return ok
}

// AbortError converts a recovered abort sentinel (IsAbort(v) == true)
// to its error: the typed cause when the unwind originated in a
// protocol, decode, or fabric failure, plain ErrAborted when the rank
// was simply unblocked after a peer failed. Callers with their own
// deferred recover use this instead of hard-coding ErrAborted so typed
// causes survive into their error chains.
func AbortError(v any) error {
	s, ok := v.(abortSignal)
	if !ok || s.err == nil {
		return ErrAborted
	}
	return s.err
}

// abort marks the world failed and unblocks every receive and send
// selecting on the abort channel. Idempotent. It also closes the
// transport, so over a fabric remote peers observe the failure (as EOF
// on their links) and abort in turn — without this, killing one worker
// process would leave every other process blocked forever.
func (w *World) abort() {
	w.abortOnce.Do(func() {
		close(w.abortCh)
		// Off the critical path: Close may be called from a fabric
		// reader goroutine via fail → recordFailure → abort, and must not
		// deadlock against the fabric's own locks.
		go w.tr.Close()
	})
}

// recordFailure records the first fabric failure and aborts the world.
// Handed to the transport as its fail callback at construction.
func (w *World) recordFailure(err error) {
	w.fabricMu.Lock()
	if w.fabricErr == nil {
		w.fabricErr = err
	}
	w.fabricMu.Unlock()
	w.abort()
}

// abortCause builds the error an abort-unblocked rank unwinds with:
// ErrAborted decorated with the recorded fabric failure when there is
// one (so "why did the world abort" survives into every rank's error),
// nil for plain peer-failure aborts (AbortError then yields the bare
// ErrAborted). Safe to call after abortCh is closed — the fabric error
// is written before the close.
func (w *World) abortCause() error {
	w.fabricMu.Lock()
	defer w.fabricMu.Unlock()
	if w.fabricErr != nil {
		return fmt.Errorf("%w (fabric: %v)", ErrAborted, w.fabricErr)
	}
	return nil
}

// Run executes fn once per rank, each on its own goroutine, and waits
// for all of them. When a rank's fn returns an error the world aborts:
// peers blocked in receives or full-link sends unwind with ErrAborted
// rather than deadlocking the whole world on a protocol that lost a
// participant.
// Run reports each failing rank through the world's logger and returns
// every rank's error joined (nil when all ranks succeeded).
func (w *World) Run(fn func(p *Proc) error) error {
	local := w.local
	if local == nil {
		local = make([]int, w.size)
		for r := range local {
			local[r] = r
		}
	}
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	wg.Add(len(local))
	for _, r := range local {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					if !IsAbort(rec) {
						panic(rec)
					}
					errs[rank] = fmt.Errorf("rank %d: %w", rank, AbortError(rec))
				}
				if errs[rank] != nil {
					w.abort()
				}
			}()
			errs[rank] = fn(&Proc{world: w, rank: rank})
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			w.log.Error("rank failed", "rank", rank, "err", err)
		}
	}
	return errors.Join(errs...)
}

// Stats summarizes communication volume. Messages and Bytes count
// sends; Wait is cumulative receiver-side blocking time.
type Stats struct {
	Messages int64
	Bytes    int64
	Wait     time.Duration
}

func (s *Stats) add(o Stats) {
	s.Messages += o.Messages
	s.Bytes += o.Bytes
	s.Wait += o.Wait
}

// ClassNames lists every tag class of the world, builtins first, in
// registration order.
func (w *World) ClassNames() []string {
	names := make([]string, len(w.classes))
	for i, c := range w.classes {
		names[i] = c.name
	}
	return names
}

// RankClassStats returns one rank's counters for one tag class.
// Unknown class names return zero Stats.
func (w *World) RankClassStats(rank int, name string) Stats {
	for i, c := range w.classes {
		if c.name == name {
			return Stats{
				Messages: w.msgsSent[rank][i].Load(),
				Bytes:    w.bytesSent[rank][i].Load(),
				Wait:     time.Duration(w.waitNs[rank][i].Load()),
			}
		}
	}
	return Stats{}
}

// ClassStats sums one tag class's counters over all ranks.
func (w *World) ClassStats(name string) Stats {
	var s Stats
	for r := 0; r < w.size; r++ {
		s.add(w.RankClassStats(r, name))
	}
	return s
}

// RankStats returns the cumulative counters of one rank, summed over
// all tag classes.
func (w *World) RankStats(rank int) Stats {
	var s Stats
	for i := range w.classes {
		s.add(Stats{
			Messages: w.msgsSent[rank][i].Load(),
			Bytes:    w.bytesSent[rank][i].Load(),
			Wait:     time.Duration(w.waitNs[rank][i].Load()),
		})
	}
	return s
}

// TotalStats sums the counters over all ranks and classes.
func (w *World) TotalStats() Stats {
	var s Stats
	for r := 0; r < w.size; r++ {
		s.add(w.RankStats(r))
	}
	return s
}

// Proc is the per-rank handle passed to the SPMD function.
type Proc struct {
	world *World
	rank  int
	// free is this rank's buffer freelist. Only the owning goroutine
	// touches it: a rank acquires send buffers from its own list and
	// releases the buffers it received into it, so pooled buffers
	// circulate between ranks without any locking.
	free []*Buffer
}

// Rank returns this process's rank in [0, Size).
func (p *Proc) Rank() int { return p.rank }

// Size returns the world size.
func (p *Proc) Size() int { return p.world.size }

// Stats returns this rank's own cumulative counters (all tag classes),
// including the receive-wait time the runtime accumulates — the
// per-rank view telemetry emitters read between steps.
func (p *Proc) Stats() Stats { return p.world.RankStats(p.rank) }

// MarkStep tells the world's transport the simulation step this rank
// is entering (see Transport.MarkStep).
func (p *Proc) MarkStep(step int) { p.world.tr.MarkStep(step) }

// ClassStats returns this rank's counters for one tag class.
func (p *Proc) ClassStats(name string) Stats {
	return p.world.RankClassStats(p.rank, name)
}

// ClassNames lists the world's tag classes, builtins first.
func (p *Proc) ClassNames() []string { return p.world.ClassNames() }

// ClassCount returns the number of tag classes (builtins included) —
// the length callers size ClassStatsInto destinations with.
func (w *World) ClassCount() int { return len(w.classes) }

// RankClassStatsInto copies one rank's counters for every tag class
// into dst, indexed by class slot (ClassNames order). It allocates
// nothing, so per-step emitters can snapshot class traffic each step
// without breaking the steady-state zero-allocation guarantee. dst
// must have length ClassCount.
func (w *World) RankClassStatsInto(rank int, dst []Stats) {
	if len(dst) != len(w.classes) {
		panic(fmt.Sprintf("comm: ClassStatsInto dst length %d != class count %d",
			len(dst), len(w.classes)))
	}
	for i := range w.classes {
		dst[i] = Stats{
			Messages: w.msgsSent[rank][i].Load(),
			Bytes:    w.bytesSent[rank][i].Load(),
			Wait:     time.Duration(w.waitNs[rank][i].Load()),
		}
	}
}

// ClassStatsInto copies this rank's per-class counters into dst
// (see World.RankClassStatsInto).
func (p *Proc) ClassStatsInto(dst []Stats) { p.world.RankClassStatsInto(p.rank, dst) }

// ClassCount returns the number of tag classes of this rank's world.
func (p *Proc) ClassCount() int { return p.world.ClassCount() }

// fail aborts the world with a typed error detected by this rank and
// unwinds the calling goroutine with the abort sentinel carrying it:
// Run's recover (or a caller's, via AbortError) converts the sentinel
// back to the typed error, so tag mismatches, truncated payloads, and
// invalid-rank operations flow through the same *RankError abort path
// as any other rank failure instead of panicking the process.
func (p *Proc) fail(err error) {
	p.world.recordFailure(err)
	panic(abortSignal{rank: p.rank, err: err})
}

// checkDecode aborts the world when a Reader hit a truncated payload —
// the guard collectives and protocol decoders run after reading
// untrusted bytes off a fabric.
func (p *Proc) checkDecode(rd *Reader, what string) {
	if err := rd.Err(); err != nil {
		p.fail(fmt.Errorf("comm: rank %d decoding %s: %w", p.rank, what, err))
	}
}

// AcquireBuffer returns an empty buffer from this rank's freelist
// (allocating only when the list is dry). Pass it to SendBuffer — the
// receiving rank returns it to circulation with ReleaseBuffer.
func (p *Proc) AcquireBuffer() *Buffer { return p.AcquireBufferSize(0) }

// AcquireBufferSize is AcquireBuffer for a payload of n bytes: it takes
// the pooled buffer that best fits n and reserves room for n, so a
// payload of known size is written without growing a buffer that was
// pooled after a smaller message while a larger one sat idle.
func (p *Proc) AcquireBufferSize(n int) *Buffer {
	if p.world.pool != nil {
		return p.world.pool.Get(n)
	}
	var b *Buffer
	p.free, b = takeFit(p.free, n)
	if b == nil {
		b = new(Buffer)
	}
	b.Reserve(n)
	return b
}

// ReleaseBuffer returns a buffer (typically one obtained from
// RecvBuffer) to this rank's freelist. The caller must not use it
// afterwards. nil is ignored.
func (p *Proc) ReleaseBuffer(b *Buffer) {
	switch {
	case b == nil:
	case p.world.pool != nil:
		p.world.pool.Put(b)
	default:
		p.free = append(p.free, b)
	}
}

// SendBuffer transfers a pooled buffer's payload to rank dst with the
// given tag. The buffer is handed off; the caller must not touch it
// afterwards (the receiver recycles it via ReleaseBuffer).
func (p *Proc) SendBuffer(dst, tag int, b *Buffer) {
	if dst < 0 || dst >= p.world.size {
		p.fail(&ProtocolError{Rank: p.rank, Peer: dst,
			Reason: fmt.Sprintf("send to invalid rank %d (world size %d)", dst, p.world.size)})
	}
	cls := p.world.classOf(tag)
	p.world.msgsSent[p.rank][cls].Add(1)
	p.world.bytesSent[p.rank][cls].Add(int64(b.Len()))
	p.world.tr.Send(p.rank, dst, Message{Tag: tag, Buf: b})
}

// recvMessage blocks until the next message on the (src → this rank)
// link arrives. It selects on the world's abort channel as well, so a
// rank stuck waiting on a failed peer unwinds (via the abort sentinel,
// converted to ErrAborted in Run) instead of deadlocking. The fast
// path — message already delivered — takes no blocking select and
// allocates nothing.
func (p *Proc) recvMessage(src int) Message {
	ch := p.world.tr.RecvChan(p.rank, src)
	select {
	case m := <-ch:
		return m
	default:
	}
	select {
	case m := <-ch:
		return m
	case <-p.world.abortCh:
		panic(abortSignal{rank: p.rank, src: src, err: p.world.abortCause()})
	}
}

// RecvBuffer blocks until the next message from src arrives and
// returns its buffer; release it with ReleaseBuffer once decoded. The
// message's tag must match; a mismatch means the SPMD protocol is out
// of step — a desynced peer on a real fabric — and aborts the world
// with a typed *ProtocolError.
func (p *Proc) RecvBuffer(src, tag int) *Buffer {
	if src < 0 || src >= p.world.size {
		p.fail(&ProtocolError{Rank: p.rank, Peer: src,
			Reason: fmt.Sprintf("receive from invalid rank %d (world size %d)", src, p.world.size)})
	}
	start := time.Now()
	m := p.recvMessage(src)
	p.world.waitNs[p.rank][p.world.classOf(tag)].Add(time.Since(start).Nanoseconds())
	if m.Tag == tagLinkDown {
		reason := "peer closed the connection"
		if m.Buf != nil && m.Buf.Len() > 0 {
			reason = string(m.Buf.Bytes())
		}
		p.fail(fmt.Errorf("%w (rank %d waiting on rank %d: %s)", ErrAborted, p.rank, src, reason))
	}
	if m.Tag != tag {
		p.fail(&ProtocolError{Rank: p.rank, Peer: src, WantTag: tag, GotTag: m.Tag,
			Reason: fmt.Sprintf("expected tag %d from rank %d, got %d", tag, src, m.Tag)})
	}
	return m.Buf
}

// SendRecvBuffer exchanges pooled buffers with two (possibly equal)
// partners: sends b to dst and receives from src, without deadlocking
// on cyclic exchange patterns (the transport's buffering decouples the
// two).
func (p *Proc) SendRecvBuffer(dst, sendTag int, b *Buffer, src, recvTag int) *Buffer {
	p.SendBuffer(dst, sendTag, b)
	return p.RecvBuffer(src, recvTag)
}

// SendHandle is the completion handle of a posted asynchronous send.
// The channel transport completes sends at post time (the link buffer
// absorbs them), so Wait returns immediately; the type exists so
// callers are already shaped for a fabric where sends complete later.
type SendHandle struct{}

// Wait blocks until the send has completed.
func (SendHandle) Wait() {}

// ISendBuffer posts an asynchronous send of a pooled buffer and
// returns its completion handle. Exactly like SendBuffer, the buffer
// is handed off at the call: the caller must not touch it afterwards.
// Messages and bytes are counted at post time under the tag's class.
func (p *Proc) ISendBuffer(dst, tag int, b *Buffer) SendHandle {
	p.SendBuffer(dst, tag, b)
	return SendHandle{}
}

// RecvHandle is a posted receive: a claim on the next message of the
// (src → this rank) link carrying the expected tag. Handles on one
// link complete in message order (the transport is FIFO per link, the
// non-overtaking rule), so posting order defines the matching. A
// handle is a plain value — posting allocates nothing — and must be
// completed exactly once with Wait.
type RecvHandle struct {
	p   *Proc
	src int
	tag int
}

// IRecvBuffer posts an asynchronous receive from src with the given
// tag and returns its completion handle.
func (p *Proc) IRecvBuffer(src, tag int) RecvHandle {
	if src < 0 || src >= p.world.size {
		p.fail(&ProtocolError{Rank: p.rank, Peer: src,
			Reason: fmt.Sprintf("posting receive from invalid rank %d (world size %d)", src, p.world.size)})
	}
	return RecvHandle{p: p, src: src, tag: tag}
}

// Wait blocks until the posted receive completes and returns its
// buffer (release it with ReleaseBuffer once decoded). The time spent
// blocked is accounted to the tag's class here, at the completion
// point — the definition that makes receive-wait measure exposed
// latency rather than posting overhead. A tag mismatch is a protocol
// slip and aborts the world, exactly like RecvBuffer.
func (h RecvHandle) Wait() *Buffer {
	if h.p == nil {
		panic("comm: Wait on an unposted RecvHandle")
	}
	return h.p.RecvBuffer(h.src, h.tag)
}

// Send transfers data to rank dst with the given tag. The data slice
// is handed off; the caller must not reuse it afterwards. Send blocks
// only if the transport's buffering is exhausted.
func (p *Proc) Send(dst, tag int, data []byte) {
	p.SendBuffer(dst, tag, &Buffer{b: data})
}

// Recv blocks until the next message from src arrives and returns its
// payload (which stays owned by the caller — unlike RecvBuffer, the
// backing buffer is not recycled). The message's tag must match; a
// mismatch panics with a diagnostic.
func (p *Proc) Recv(src, tag int) []byte {
	return p.RecvBuffer(src, tag).Bytes()
}

// SendRecv exchanges messages with two (possibly equal) partners:
// sends to dst and receives from src, without deadlocking on
// cyclic exchange patterns.
func (p *Proc) SendRecv(dst, sendTag int, data []byte, src, recvTag int) []byte {
	p.Send(dst, sendTag, data)
	return p.Recv(src, recvTag)
}

// Reserved collective tags, outside the range user phases should use.
const (
	tagBarrier = -1 - iota
	tagReduce
	tagBcast
	tagGather
)

// Barrier blocks until every rank has entered it. Implemented as a
// gather-to-0 plus broadcast over pooled buffers, so steady-state
// barriers allocate nothing.
func (p *Proc) Barrier() {
	if p.rank == 0 {
		for r := 1; r < p.world.size; r++ {
			p.ReleaseBuffer(p.RecvBuffer(r, tagBarrier))
		}
		for r := 1; r < p.world.size; r++ {
			p.SendBuffer(r, tagBarrier, p.AcquireBuffer())
		}
		return
	}
	p.SendBuffer(0, tagBarrier, p.AcquireBuffer())
	p.ReleaseBuffer(p.RecvBuffer(0, tagBarrier))
}

// AllReduceFloat64 combines one float64 per rank with op and returns
// the result on every rank.
func (p *Proc) AllReduceFloat64(x float64, op func(a, b float64) float64) float64 {
	if p.rank == 0 {
		acc := x
		for r := 1; r < p.world.size; r++ {
			b := p.RecvBuffer(r, tagReduce)
			var rd Reader
			rd.Reset(b.Bytes())
			acc = op(acc, rd.Float64())
			p.checkDecode(&rd, "reduce contribution")
			p.ReleaseBuffer(b)
		}
		for r := 1; r < p.world.size; r++ {
			b := p.AcquireBuffer()
			b.Float64(acc)
			p.SendBuffer(r, tagReduce, b)
		}
		return acc
	}
	b := p.AcquireBuffer()
	b.Float64(x)
	p.SendBuffer(0, tagReduce, b)
	rb := p.RecvBuffer(0, tagReduce)
	var rd Reader
	rd.Reset(rb.Bytes())
	v := rd.Float64()
	p.checkDecode(&rd, "reduce result")
	p.ReleaseBuffer(rb)
	return v
}

// AllReduceSum returns the sum of x over all ranks.
func (p *Proc) AllReduceSum(x float64) float64 {
	return p.AllReduceFloat64(x, func(a, b float64) float64 { return a + b })
}

// AllReduceMax returns the maximum of x over all ranks.
func (p *Proc) AllReduceMax(x float64) float64 {
	return p.AllReduceFloat64(x, func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	})
}

// AllReduceSumInt64 returns the sum of an int64 over all ranks.
func (p *Proc) AllReduceSumInt64(x int64) int64 {
	if p.rank == 0 {
		acc := x
		for r := 1; r < p.world.size; r++ {
			b := p.RecvBuffer(r, tagReduce)
			var rd Reader
			rd.Reset(b.Bytes())
			acc += rd.Int64()
			p.checkDecode(&rd, "reduce contribution")
			p.ReleaseBuffer(b)
		}
		for r := 1; r < p.world.size; r++ {
			b := p.AcquireBuffer()
			b.Int64(acc)
			p.SendBuffer(r, tagReduce, b)
		}
		return acc
	}
	b := p.AcquireBuffer()
	b.Int64(x)
	p.SendBuffer(0, tagReduce, b)
	rb := p.RecvBuffer(0, tagReduce)
	var rd Reader
	rd.Reset(rb.Bytes())
	v := rd.Int64()
	p.checkDecode(&rd, "reduce result")
	p.ReleaseBuffer(rb)
	return v
}

// Bcast distributes root's data to every rank and returns it.
func (p *Proc) Bcast(root int, data []byte) []byte {
	if p.rank == root {
		for r := 0; r < p.world.size; r++ {
			if r != root {
				p.Send(r, tagBcast, data)
			}
		}
		return data
	}
	return p.Recv(root, tagBcast)
}

// GatherTo0 collects each rank's payload on rank 0 (indexed by rank);
// other ranks receive nil.
func (p *Proc) GatherTo0(data []byte) [][]byte {
	if p.rank == 0 {
		out := make([][]byte, p.world.size)
		out[0] = data
		for r := 1; r < p.world.size; r++ {
			out[r] = p.Recv(r, tagGather)
		}
		return out
	}
	p.Send(0, tagGather, data)
	return nil
}
