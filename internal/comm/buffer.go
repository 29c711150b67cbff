package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"sctuple/internal/geom"
)

// Buffer serializes message payloads with a fixed little-endian wire
// format. The zero value is ready to use; methods append.
type Buffer struct {
	b []byte
}

// Bytes returns the accumulated payload. The buffer must not be
// written afterwards if the slice is handed to Send.
func (b *Buffer) Bytes() []byte { return b.b }

// Clone returns an independent copy of the payload.
func (b *Buffer) Clone() []byte { return append([]byte(nil), b.b...) }

// Len returns the current payload size.
func (b *Buffer) Len() int { return len(b.b) }

// Reset empties the buffer, retaining capacity — the grow-in-place
// reuse the pooled exchange path depends on: a recycled buffer reaches
// its steady-state capacity once and never allocates again.
func (b *Buffer) Reset() { b.b = b.b[:0] }

// Reserve makes room for n more bytes without changing the payload, so
// a payload of known size is written with at most one allocation
// instead of a chain of append growths. A quarter of headroom keeps
// payloads that fluctuate around n from reallocating again.
func (b *Buffer) Reserve(n int) {
	if cap(b.b)-len(b.b) < n {
		nb := make([]byte, len(b.b), len(b.b)+n+n/4)
		copy(nb, b.b)
		b.b = nb
	}
}

// takeFit removes from pool and returns the buffer that best fits an
// n-byte payload — the smallest that holds it, or the largest when none
// does — emptied; nil when the pool is empty. Fitting keeps each size
// class of message on buffers it already grew: a small collective does
// not take the grown buffer a halo frame then has to grow again.
func takeFit(pool []*Buffer, n int) ([]*Buffer, *Buffer) {
	best := -1
	for i, b := range pool {
		if best < 0 {
			best = i
			continue
		}
		c, bc := cap(b.b), cap(pool[best].b)
		if (c >= n && (bc < n || c < bc)) || (bc < n && c > bc) {
			best = i
		}
	}
	if best < 0 {
		return pool, nil
	}
	b := pool[best]
	last := len(pool) - 1
	pool[best] = pool[last]
	pool[last] = nil
	b.Reset()
	return pool[:last], b
}

// BufferPool is a freelist of message buffers shared between
// goroutines: a byte-stream transport's readers fill incoming messages
// from it, and the local rank's sends and releases feed it, so every
// buffer of the rank is available to whichever side needs one.
type BufferPool struct {
	mu   sync.Mutex
	free []*Buffer
}

// Get returns an empty buffer with room for n bytes: the pooled buffer
// that best fits, or a new one when the pool is dry.
func (bp *BufferPool) Get(n int) *Buffer {
	bp.mu.Lock()
	var b *Buffer
	bp.free, b = takeFit(bp.free, n)
	bp.mu.Unlock()
	if b == nil {
		b = new(Buffer)
	}
	b.Reserve(n)
	return b
}

// Put returns a buffer to the pool. nil is ignored.
func (bp *BufferPool) Put(b *Buffer) {
	if b == nil {
		return
	}
	bp.mu.Lock()
	bp.free = append(bp.free, b)
	bp.mu.Unlock()
}

// Grow extends the buffer by n uninitialized bytes and returns the
// extension for the caller to fill — the receive path of a byte-stream
// transport reads a frame payload straight into a pooled buffer with
// io.ReadFull(conn, buf.Grow(n)) and hands the buffer to the world
// without copying.
func (b *Buffer) Grow(n int) []byte {
	old := len(b.b)
	if cap(b.b) < old+n {
		nb := make([]byte, old+n, old+n+(old+n)/4)
		copy(nb, b.b)
		b.b = nb
	} else {
		b.b = b.b[:old+n]
	}
	return b.b[old:]
}

// Int64 appends a 64-bit integer.
func (b *Buffer) Int64(v int64) {
	b.b = binary.LittleEndian.AppendUint64(b.b, uint64(v))
}

// Int32 appends a 32-bit integer.
func (b *Buffer) Int32(v int32) {
	b.b = binary.LittleEndian.AppendUint32(b.b, uint32(v))
}

// Float64 appends a float64.
func (b *Buffer) Float64(v float64) {
	b.b = binary.LittleEndian.AppendUint64(b.b, math.Float64bits(v))
}

// Vec3 appends a geometry vector.
func (b *Buffer) Vec3(v geom.Vec3) {
	b.Float64(v.X)
	b.Float64(v.Y)
	b.Float64(v.Z)
}

// DecodeError reports a decoder reading past the end of a payload — a
// truncated or otherwise malformed message. Over the in-process
// channel transport this would be a programming error, but a socket
// peer can legitimately deliver garbage, so decoding must degrade into
// a typed error that flows through the *RankError abort path instead
// of a panic that kills the process.
type DecodeError struct {
	Off  int // byte offset the failed read started at
	Need int // bytes the read wanted
	Len  int // total payload length
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("comm: truncated payload: reading %d bytes at offset %d of %d-byte message",
		e.Need, e.Off, e.Len)
}

// Reader decodes payloads produced by Buffer, in the same order. A
// read past the end of the payload does not panic: it returns zero,
// records a sticky *DecodeError (see Err), and pins the offset to the
// end so `for rd.Remaining() > 0` decode loops terminate. Callers on
// untrusted input check Err after decoding.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps a payload.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Reset re-points the reader at a new payload, rewinding the offset
// and clearing any sticky decode error. Hot paths keep a Reader value
// on the stack and Reset it per message instead of calling NewReader.
func (r *Reader) Reset(b []byte) { r.b, r.off, r.err = b, 0, nil }

// Remaining returns the number of unread bytes (zero once a decode
// error has been recorded).
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Err returns the first decode failure, or nil while every read so far
// stayed in bounds. Once set it stays set until Reset.
func (r *Reader) Err() error { return r.err }

// zeroWord backs the reads issued after a decode failure: take returns
// a view of it so Int64/Float64/Vec3 decode to zero without branching
// at every call site. Read-only by construction (decoders only read
// the slices take returns).
var zeroWord [8]byte

func (r *Reader) take(n int) []byte {
	if r.off+n > len(r.b) {
		if r.err == nil {
			r.err = &DecodeError{Off: r.off, Need: n, Len: len(r.b)}
		}
		r.off = len(r.b)
		if n <= len(zeroWord) {
			return zeroWord[:n]
		}
		return make([]byte, n) // cold path: only after a decode error
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

// Int64 reads a 64-bit integer.
func (r *Reader) Int64() int64 {
	return int64(binary.LittleEndian.Uint64(r.take(8)))
}

// Int32 reads a 32-bit integer.
func (r *Reader) Int32() int32 {
	return int32(binary.LittleEndian.Uint32(r.take(4)))
}

// Float64 reads a float64.
func (r *Reader) Float64() float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(r.take(8)))
}

// Vec3 reads a geometry vector.
func (r *Reader) Vec3() geom.Vec3 {
	return geom.V(r.Float64(), r.Float64(), r.Float64())
}
