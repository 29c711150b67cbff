package comm

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
)

// The socket fabric moves messages as length-prefixed frames. Every
// frame starts with a fixed 28-byte little-endian header:
//
//	offset  size  field
//	     0     4  magic   — frameMagic, stream-desync tripwire
//	     4     2  version — frameVersion, incompatible peers refuse
//	     6     2  kind    — data / handshake discriminator
//	     8     4  src     — sending rank (int32)
//	    12     4  dst     — receiving rank (int32)
//	    16     4  tag     — message tag (int32; collectives negative)
//	    20     4  step    — sender's simulation step when stamped
//	    24     4  payload — payload byte count, then that many bytes
//
// The payload bytes are the Buffer wire format already used by the
// in-process transport (internal/parmd/wire.go layers its records on
// it), so the socket fabric changes the envelope, not the codec — the
// property that keeps forces bit-identical across transports.
const (
	frameMagic   = 0x53435457 // "SCTW" big-endianly read: sctuple wire
	frameVersion = 1

	frameHeaderBytes = 28

	// MaxFramePayload caps a single frame. Real exchanges are a few
	// MB at most; anything larger is a corrupt or hostile length field
	// and is refused before any allocation happens.
	MaxFramePayload = 1 << 28
)

// Frame kinds. Data frames carry Transport messages; the rest are the
// rendezvous/handshake control protocol.
const (
	frameData     = 0 // payload = message bytes, tag field meaningful
	frameHello    = 1 // mesh handshake: dialer announces itself
	frameAck      = 2 // mesh handshake: listener accepts the link
	frameRegister = 3 // rendezvous: worker registers (rank, listen addr)
	framePeers    = 4 // rendezvous: server broadcasts the address map
)

// frameHeader is the decoded fixed header of one frame.
type frameHeader struct {
	kind    uint16
	src     int32
	dst     int32
	tag     int32
	step    int32
	payload uint32
}

// FrameError is a malformed or incompatible socket frame: wrong magic
// (stream desync), wrong protocol version, an oversized length field,
// or a truncated stream. It flows through the fabric's failure
// callback into the world abort, so one bad peer aborts the run as a
// typed error instead of crashing or hanging the process.
type FrameError struct {
	Peer   int // peer rank the frame came from, -1 when unknown
	Reason string
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("comm: bad frame from peer %d: %s", e.Peer, e.Reason)
}

// appendFrameHeader appends the encoded header to b.
func appendFrameHeader(b []byte, h frameHeader) []byte {
	b = binary.LittleEndian.AppendUint32(b, frameMagic)
	b = binary.LittleEndian.AppendUint16(b, frameVersion)
	b = binary.LittleEndian.AppendUint16(b, h.kind)
	b = binary.LittleEndian.AppendUint32(b, uint32(h.src))
	b = binary.LittleEndian.AppendUint32(b, uint32(h.dst))
	b = binary.LittleEndian.AppendUint32(b, uint32(h.tag))
	b = binary.LittleEndian.AppendUint32(b, uint32(h.step))
	b = binary.LittleEndian.AppendUint32(b, h.payload)
	return b
}

// parseFrameHeader validates and decodes a header. peer only labels
// the error.
func parseFrameHeader(b []byte, peer int) (frameHeader, error) {
	if len(b) < frameHeaderBytes {
		return frameHeader{}, &FrameError{Peer: peer,
			Reason: fmt.Sprintf("truncated header: %d of %d bytes", len(b), frameHeaderBytes)}
	}
	if magic := binary.LittleEndian.Uint32(b[0:]); magic != frameMagic {
		return frameHeader{}, &FrameError{Peer: peer,
			Reason: fmt.Sprintf("bad magic %#08x (stream desynced?)", magic)}
	}
	if v := binary.LittleEndian.Uint16(b[4:]); v != frameVersion {
		return frameHeader{}, &FrameError{Peer: peer,
			Reason: fmt.Sprintf("protocol version %d, want %d", v, frameVersion)}
	}
	h := frameHeader{
		kind:    binary.LittleEndian.Uint16(b[6:]),
		src:     int32(binary.LittleEndian.Uint32(b[8:])),
		dst:     int32(binary.LittleEndian.Uint32(b[12:])),
		tag:     int32(binary.LittleEndian.Uint32(b[16:])),
		step:    int32(binary.LittleEndian.Uint32(b[20:])),
		payload: binary.LittleEndian.Uint32(b[24:]),
	}
	if h.payload > MaxFramePayload {
		return frameHeader{}, &FrameError{Peer: peer,
			Reason: fmt.Sprintf("oversized payload length %d (cap %d)", h.payload, MaxFramePayload)}
	}
	return h, nil
}

// frameWriter writes frames on one stream. Header and payload leave as
// one vectored write (writev on a socket, a single syscall), so the
// payload is never copied and no staging buffer grows with the largest
// frame. Writers that cannot take a vector get the two parts one after
// the other; a shared stream's caller serializes frames either way.
type frameWriter struct {
	hdr  [frameHeaderBytes]byte
	iov  [2][]byte
	bufs net.Buffers
}

// write writes one complete frame.
func (fw *frameWriter) write(w io.Writer, h frameHeader, payload []byte) error {
	h.payload = uint32(len(payload))
	fw.iov = [2][]byte{appendFrameHeader(fw.hdr[:0], h), payload}
	fw.bufs = fw.iov[:]
	_, err := fw.bufs.WriteTo(w)
	fw.iov[1] = nil // the payload goes back to its pool
	return err
}

// readFrameHeader reads and validates the fixed header. A cleanly
// closed stream (EOF before any header byte) returns io.EOF untouched
// so callers can tell peer shutdown from mid-frame truncation, which
// comes back as a *FrameError.
func readFrameHeader(r io.Reader, hdr *[frameHeaderBytes]byte, peer int) (frameHeader, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return frameHeader{}, io.EOF
		}
		return frameHeader{}, &FrameError{Peer: peer,
			Reason: fmt.Sprintf("truncated header: %v", err)}
	}
	return parseFrameHeader(hdr[:], peer)
}

// readFramePayload reads the payload announced by h into dst (len
// h.payload), mapping truncation to a typed *FrameError.
func readFramePayload(r io.Reader, h frameHeader, dst []byte, peer int) error {
	if _, err := io.ReadFull(r, dst); err != nil {
		return &FrameError{Peer: peer,
			Reason: fmt.Sprintf("truncated payload: got fewer than %d bytes: %v", h.payload, err)}
	}
	return nil
}
