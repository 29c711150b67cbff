package parmd

import (
	"fmt"

	"sctuple/internal/comm"
	"sctuple/internal/geom"
	"sctuple/internal/obs/health"
)

// The staged halo exchange over the compiled plan. Per axis there is
// one transfer for SC-MD (receive the upper-corner slab from the +axis
// neighbor — 7 effective source ranks reached in 3 communication steps
// via forwarded routing, §4.2) and two for FS-/Hybrid-MD (both
// directions — 26 effective sources in 6 transfers over 3 axes).
// Because each phase's slab selection includes halo atoms received on
// earlier axes, edge and corner data are forwarded automatically —
// which also means an axis's sends can only be posted once every
// earlier axis has been received. The two directions of one axis are
// independent (both slabs lie inside the owned range, their imports
// land in the margins), so they travel together.
//
// The exchange is therefore split into beginHalo (post every receive
// handle plus the first axis's sends) and finishHalo (complete the
// receives axis by axis, appending arrivals and posting the next
// axis's forwarded sends). The overlapped force path evaluates
// interior cells between the two; the synchronous importHalo runs them
// back to back.
//
// Every geometric decision — slab bounds, peers, tags, frame shifts —
// was compiled once into r.plan; the per-step loop only selects atoms,
// streams them through the shared wire codec into pooled buffers, and
// appends the arrivals. In steady state (capacities warmed up) the
// whole exchange allocates nothing.
//
// Only list rebuilds select and append: between rebuilds each phase
// resends the positions of the atoms it exported at the last rebuild
// (sendIdx), in the same order, and the receiver overwrites the local
// positions of the window it filled then — the same import set, with
// half the bytes (HaloPositionWireBytes).

// haloPhaseState is the per-step scratch of one compiled halo phase:
// which local atoms were exported (for the force write-back), where
// the received atoms landed, the posted receive handle, and the
// health probe's pack-time checksum. The slices are reused across
// steps.
type haloPhaseState struct {
	sendIdx   []int32 // local indices sent, reset each step
	recvStart int     // first local index received
	recvCount int
	recv      comm.RecvHandle // posted by beginHalo, completed by completeHaloAxis
	recvBuf   *comm.Buffer    // the arrival, held until its axis is complete
	sentSum   uint64          // checksum of the exported slab (health steps only)
}

// importHalo is the synchronous exchange: post and complete every
// phase with nothing in between. It shares all machinery with the
// overlapped path, so the two differ only in when the receives are
// completed — never in what is evaluated or in which order.
func (r *rankState) importHalo() error {
	if err := r.beginHalo(); err != nil {
		return err
	}
	return r.finishHalo()
}

// beginHalo posts the asynchronous side of the staged exchange: one
// receive handle per compiled phase, then the first axis's sends. The
// checksum the health mirror probe audits is taken at pack time —
// the handoff point — because the buffer belongs to the receiver the
// moment the send is posted.
//
// An axis the process grid leaves unsplit exchanges with this rank
// itself, and its messages are delivered by the time they are posted,
// so leading such axes are completed here. Otherwise the first
// cross-rank sends, forwarded behind them, would only be posted by
// finishHalo — after the interior stage they are meant to overlap.
func (r *rankState) beginHalo() error {
	sp := r.rec.StartSpan(phaseHalo)
	for pi := range r.plan.Halo {
		ph := &r.plan.Halo[pi]
		r.phaseState[pi].recv = r.p.IRecvBuffer(ph.RecvPeer, ph.Tag)
	}
	r.haloDone = 0
	r.postHaloAxis(0)
	sp.End()
	for r.haloDone < len(r.plan.Halo) && r.selfAxis(r.haloDone) {
		if err := r.completeHaloAxis(); err != nil {
			return err
		}
	}
	return nil
}

// finishHalo completes the axes beginHalo left outstanding, in phase
// order. Malformed messages come back as typed errors; the caller
// propagates them so the world aborts with rank/step/phase context
// instead of crashing.
func (r *rankState) finishHalo() error {
	for r.haloDone < len(r.plan.Halo) {
		if err := r.completeHaloAxis(); err != nil {
			return err
		}
	}
	return nil
}

// haloAxisEnd returns the end of the run of compiled phases that share
// phase pi's axis.
func (r *rankState) haloAxisEnd(pi int) int {
	end := pi
	for end < len(r.plan.Halo) && r.plan.Halo[end].Axis == r.plan.Halo[pi].Axis {
		end++
	}
	return end
}

// selfAxis reports whether every phase of the axis starting at phase
// pi both sends to and receives from this rank.
func (r *rankState) selfAxis(pi int) bool {
	self := r.p.Rank()
	for end := r.haloAxisEnd(pi); pi < end; pi++ {
		if ph := &r.plan.Halo[pi]; ph.SendPeer != self || ph.RecvPeer != self {
			return false
		}
	}
	return true
}

// postHaloAxis posts the sends of every phase on the axis starting at
// phase pi.
func (r *rankState) postHaloAxis(pi int) {
	for end := r.haloAxisEnd(pi); pi < end; pi++ {
		r.postHaloSend(pi)
	}
}

// postHaloSend packs phase pi's slab — owned atoms plus any halo atoms
// already appended by earlier axes (the forwarding) — and posts its
// send. The flow event is emitted at post time; its receive side pairs
// up at the peer's completion point.
func (r *rankState) postHaloSend(pi int) {
	ph := &r.plan.Halo[pi]
	st := &r.phaseState[pi]
	var buf *comm.Buffer
	if r.rebuild {
		buf = r.p.AcquireBufferSize(slabRoom(len(st.sendIdx)))
		st.sendIdx = st.sendIdx[:0]
		for i := range r.ecell {
			e := r.ecell[i].Comp(ph.Axis)
			if e < ph.SlabLo || e >= ph.SlabHi {
				continue
			}
			// Shift into the receiver's frame (compiled cell/position
			// adjustments, including the periodic image correction).
			ec := r.ecell[i]
			ec.SetComp(ph.Axis, e+ph.CellAdj)
			lp := r.lpos[i]
			lp.SetComp(ph.Axis, lp.Comp(ph.Axis)+ph.PosAdj)
			putHaloAtom(buf, r.ids[i], r.species[i], ec, lp)
			st.sendIdx = append(st.sendIdx, int32(i))
		}
	} else {
		buf = r.p.AcquireBufferSize(len(st.sendIdx) * HaloPositionWireBytes)
		for _, i := range st.sendIdx {
			lp := r.lpos[i]
			lp.SetComp(ph.Axis, lp.Comp(ph.Axis)+ph.PosAdj)
			putHaloPosition(buf, lp)
		}
	}
	st.sentSum = 0
	if r.healthStep {
		st.sentSum = health.Checksum64(buf.Bytes())
	}
	r.rec.FlowSend(ph.Tag)
	r.p.ISendBuffer(ph.SendPeer, ph.Tag, buf)
}

// completeHaloAxis completes the next outstanding axis: wait for each
// of its phases' margin fills (the halo:wait spans — with interior
// work overlapped, this is the latency the computation failed to
// hide), run the health mirror checks, append the arrivals in phase
// order, and post the next axis's forwarded sends. Every receive of
// the axis completes before any mirror check is sent: when one rank is
// the neighbor on both sides, both halo messages precede the checks
// on the link, which delivers in order.
func (r *rankState) completeHaloAxis() error {
	lo := r.haloDone
	hi := r.haloAxisEnd(lo)
	for pi := lo; pi < hi; pi++ {
		ph := &r.plan.Halo[pi]
		st := &r.phaseState[pi]
		wsp := r.rec.StartSpan(phaseHaloWait)
		st.recvBuf = st.recv.Wait()
		wsp.End()
		r.rec.FlowRecv(ph.Tag, ph.RecvPeer)
		r.stats.HaloMessages++
	}
	sp := r.rec.StartSpan(phaseHalo)
	defer sp.End()
	var err error
	for pi := lo; pi < hi; pi++ {
		st := &r.phaseState[pi]
		if err == nil && r.healthStep {
			if e := r.mirrorCheck(&r.plan.Halo[pi], st.sentSum, health.Checksum64(st.recvBuf.Bytes())); e != nil {
				err = r.rankErr("health", e)
			}
		}
	}
	for pi := lo; pi < hi; pi++ {
		st := &r.phaseState[pi]
		if err == nil {
			apply := r.appendHalo
			if !r.rebuild {
				apply = r.updateHalo
			}
			if e := apply(pi, st.recvBuf); e != nil {
				err = r.rankErr("halo", e)
			}
		} else {
			r.p.ReleaseBuffer(st.recvBuf)
		}
		st.recvBuf = nil
	}
	if err != nil {
		return err
	}
	r.haloDone = hi
	if hi < len(r.plan.Halo) {
		r.postHaloAxis(hi)
	}
	return nil
}

// appendHalo decodes one phase's margin fill and appends it to the
// atom arrays, recording where it landed for the force write-back.
// The buffer is validated before decoding: a payload that is not a
// whole number of wire records, or an atom landing outside the
// extended lattice, is a malformed message, not a panic.
func (r *rankState) appendHalo(pi int, recv *comm.Buffer) error {
	st := &r.phaseState[pi]
	if recv.Len()%HaloAtomWireBytes != 0 {
		err := fmt.Errorf("malformed halo message from rank %d: %d bytes is not a whole number of %d-byte atom records",
			r.plan.Halo[pi].RecvPeer, recv.Len(), HaloAtomWireBytes)
		r.p.ReleaseBuffer(recv)
		return err
	}
	st.recvStart = len(r.ids)
	st.recvCount = 0
	var rd comm.Reader
	rd.Reset(recv.Bytes())
	for rd.Remaining() > 0 {
		id, sp, ec, lp := getHaloAtom(&rd)
		if !ec.InBox(r.extLat.Dims) {
			err := fmt.Errorf("received halo atom %d from rank %d in cell %v outside extended lattice %v",
				id, r.plan.Halo[pi].RecvPeer, ec, r.extLat.Dims)
			r.p.ReleaseBuffer(recv)
			return err
		}
		r.ids = append(r.ids, id)
		r.species = append(r.species, sp)
		r.ecell = append(r.ecell, ec)
		r.lpos = append(r.lpos, lp)
		r.force = append(r.force, geom.Vec3{})
		st.recvCount++
	}
	err := rd.Err()
	r.p.ReleaseBuffer(recv)
	if err != nil {
		return fmt.Errorf("decoding halo message from rank %d: %w", r.plan.Halo[pi].RecvPeer, err)
	}
	r.stats.AtomsImported += int64(st.recvCount)
	return nil
}

// updateHalo decodes one phase's positions-only frame between rebuilds
// into the local positions of the window the phase filled at the last
// rebuild. A payload of any other size than one position per imported
// atom is a malformed message.
func (r *rankState) updateHalo(pi int, recv *comm.Buffer) error {
	st := &r.phaseState[pi]
	defer r.p.ReleaseBuffer(recv)
	if want := st.recvCount * HaloPositionWireBytes; recv.Len() != want {
		return fmt.Errorf("malformed halo message from rank %d: %d bytes, want %d positions of %d bytes",
			r.plan.Halo[pi].RecvPeer, recv.Len(), st.recvCount, HaloPositionWireBytes)
	}
	var rd comm.Reader
	rd.Reset(recv.Bytes())
	for k := st.recvStart; k < st.recvStart+st.recvCount; k++ {
		r.lpos[k] = getHaloPosition(&rd)
	}
	if err := rd.Err(); err != nil {
		return fmt.Errorf("decoding halo positions from rank %d: %w", r.plan.Halo[pi].RecvPeer, err)
	}
	r.stats.AtomsImported += int64(st.recvCount)
	return nil
}

// writeBackForces returns the forces accumulated on imported halo
// atoms to their senders, replaying the compiled phases in reverse
// order so forwarded contributions propagate back through the same
// routing. Before replaying it audits the exchange bookkeeping: the
// phases' [recvStart, recvStart+recvCount) windows must tile the halo
// range of the atom arrays exactly — a mis-offset window would read
// the wrong atoms' forces without any trailing-byte mismatch to catch
// it. The returned payload is also size-checked up front against the
// exported-atom count, which detects both truncation and mis-offsets,
// unlike the old trailing-bytes check.
func (r *rankState) writeBackForces() error {
	sp := r.rec.StartSpan(phaseWriteback)
	defer sp.End()
	next := r.nOwned
	for pi := range r.plan.Halo {
		st := &r.phaseState[pi]
		if st.recvStart != next {
			return r.rankErr("writeback", fmt.Errorf(
				"halo bookkeeping: phase %d imports start at index %d, expected %d", pi, st.recvStart, next))
		}
		next += st.recvCount
	}
	if next != len(r.ids) {
		return r.rankErr("writeback", fmt.Errorf(
			"halo bookkeeping: phases cover %d imported atoms, arrays hold %d", next-r.nOwned, len(r.ids)-r.nOwned))
	}
	for pi := len(r.plan.Halo) - 1; pi >= 0; pi-- {
		ph := &r.plan.Halo[pi]
		st := &r.phaseState[pi]
		buf := r.p.AcquireBufferSize(st.recvCount * ForceWireBytes)
		for k := 0; k < st.recvCount; k++ {
			putForce(buf, r.force[st.recvStart+k])
		}
		r.rec.FlowSend(ph.ForceTag)
		recv := r.p.SendRecvBuffer(ph.RecvPeer, ph.ForceTag, buf, ph.SendPeer, ph.ForceTag)
		r.rec.FlowRecv(ph.ForceTag, ph.SendPeer)
		r.stats.HaloMessages++
		if recv.Len() != len(st.sendIdx)*ForceWireBytes {
			err := fmt.Errorf("force write-back size mismatch from rank %d: %d bytes for %d exported atoms (want %d)",
				ph.SendPeer, recv.Len(), len(st.sendIdx), len(st.sendIdx)*ForceWireBytes)
			r.p.ReleaseBuffer(recv)
			return r.rankErr("writeback", err)
		}
		var rd comm.Reader
		rd.Reset(recv.Bytes())
		for _, idx := range st.sendIdx {
			r.force[idx] = r.force[idx].Add(getForce(&rd))
		}
		err := rd.Err()
		r.p.ReleaseBuffer(recv)
		if err != nil {
			return r.rankErr("writeback", fmt.Errorf("decoding force write-back from rank %d: %w", ph.SendPeer, err))
		}
	}
	return nil
}

// slabRoom is the buffer room of a whole-record halo frame for a slab
// that held n atoms at the last list build: a quarter of headroom, as
// Buffer.Reserve keeps, so atoms drifting into the slab do not grow
// the buffer mid-frame.
func slabRoom(n int) int {
	n *= HaloAtomWireBytes
	return n + n/4
}

// provisionBuffers leaves the rank's buffer pool holding, idle, a
// whole-record buffer for the send and the receive of every halo
// phase. The set-up evaluation alone leaves fewer: a step also
// migrates, votes and reduces, and a peer a phase ahead parks its
// frames in this rank's inbox, so without the reserve the pool would
// keep growing, one allocation at a time, well into the step loop.
// Buffers already pooled are reused; only the shortfall allocates.
func (r *rankState) provisionBuffers() {
	held := make([]*comm.Buffer, 0, 2*len(r.plan.Halo))
	for pi := range r.plan.Halo {
		st := &r.phaseState[pi]
		held = append(held, r.p.AcquireBufferSize(slabRoom(len(st.sendIdx))),
			r.p.AcquireBufferSize(slabRoom(st.recvCount)))
	}
	for _, b := range held {
		r.p.ReleaseBuffer(b)
	}
}
