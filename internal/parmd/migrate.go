package parmd

import (
	"fmt"

	"sctuple/internal/comm"
	"sctuple/internal/geom"
)

// migrate is the step's ownership update: it takes the collective
// list-rebuild vote (voteRebuild) and, on rebuild steps only, moves the
// atoms that drifted out of this rank's block to their new owners
// (migrateAtoms). Between rebuilds ownership, like the halo import set
// and the tuple lists, stays as the last rebuild left it.
func (r *rankState) migrate() error {
	sp := r.rec.StartSpan(phaseMigrate)
	defer sp.End()
	if err := r.voteRebuild(); err != nil {
		return r.rankErr("vote", err)
	}
	if !r.rebuild {
		return nil
	}
	return r.migrateAtoms()
}

// migrateAtoms moves atoms that drifted out of this rank's block to
// their new owners, with one staged exchange per axis (two directions
// each), following the compiled migration plan. An atom may hop at
// most one rank per axis per rebuild — guaranteed for any sane time
// step, since blocks are at least one cutoff wide and rebuilds come
// once atoms move half a skin — and diagonal moves complete over the
// successive axis phases. Positions travel in wrapped global
// coordinates through the shared wire codec; the receiving owner
// reassigns the global cell, so every downstream consumer sees
// owner-authoritative integer cells. When no atoms move, the exchange
// sends empty pooled buffers and allocates nothing.
func (r *rankState) migrateAtoms() error {
	for i := 0; i < r.nOwned; i++ {
		r.gpos[i] = r.dec.Lat.Box.Wrap(r.gpos[i])
		r.gcell[i] = r.dec.Lat.CellOf(r.gpos[i])
	}
	for axis := 0; axis < 3; axis++ {
		mp := &r.plan.Migrate[axis]
		if !mp.Active {
			continue
		}
		if err := r.migrateAxis(axis, mp); err != nil {
			return r.rankErr("migrate", err)
		}
	}
	r.stats.OwnedAtoms = r.nOwned
	return nil
}

// migrateAxis exchanges leavers with both axis neighbors of the
// compiled phase.
func (r *rankState) migrateAxis(axis int, mp *MigratePhase) error {
	out := [2]*comm.Buffer{r.p.AcquireBuffer(), r.p.AcquireBuffer()} // 0: toward -1, 1: toward +1
	before := r.nOwned
	keep := 0
	for i := 0; i < r.nOwned; i++ {
		target := r.dec.ownerIndex(axis, r.gcell[i].Comp(axis))
		d, err := hopDir(mp.BlockIdx, target, mp.Dim)
		if err != nil {
			if !r.hopClamp {
				r.p.ReleaseBuffer(out[0])
				r.p.ReleaseBuffer(out[1])
				return fmt.Errorf("axis %d atom %d: %w", axis, r.ids[i], err)
			}
			// Repartition handoff: an atom left several blocks from its
			// new owner walks over one hop per round.
			d = hopDirClamped(mp.BlockIdx, target, mp.Dim)
		}
		if d == 0 {
			r.copyAtom(keep, i)
			keep++
			continue
		}
		putMigrant(out[(d+1)/2], r.ids[i], r.species[i], r.gpos[i], r.vel[i])
	}
	r.truncateOwned(keep)

	for di := range out {
		recv := r.p.SendRecvBuffer(mp.SendPeer[di], mp.Tag[di], out[di], mp.RecvPeer[di], mp.Tag[di])
		if recv.Len()%MigrantWireBytes != 0 {
			err := fmt.Errorf("malformed migration message from rank %d: %d bytes is not a whole number of %d-byte records",
				mp.RecvPeer[di], recv.Len(), MigrantWireBytes)
			r.p.ReleaseBuffer(recv)
			return err
		}
		var rd comm.Reader
		rd.Reset(recv.Bytes())
		for rd.Remaining() > 0 {
			id, sp, g, v := getMigrant(&rd)
			gc := r.dec.Lat.CellOf(g)
			r.ids = append(r.ids, id)
			r.species = append(r.species, sp)
			r.gpos = append(r.gpos, g)
			r.gcell = append(r.gcell, gc)
			r.vel = append(r.vel, v)
			r.force = append(r.force, geom.Vec3{})
			r.nOwned++
			r.stats.AtomsMigrated++
		}
		err := rd.Err()
		r.p.ReleaseBuffer(recv)
		if err != nil {
			return fmt.Errorf("decoding migration message from rank %d: %w", mp.RecvPeer[di], err)
		}
	}
	// Any leaver or arrival changes the owned set, so the ID-order walk
	// of the Hybrid evaluation must be rebuilt (a canonical re-sort also
	// marks it, but an append that happens to keep cell order would not).
	if keep != before || r.nOwned != keep {
		r.idOrderStale = true
	}
	return nil
}

// hopDir returns the single-step direction (-1, 0, +1) from block
// index my toward block index target on a periodic axis of the given
// dimension. A move needing more than one hop — an atom crossing a
// whole block in one step — is reported as an error (it means the
// integration blew up, which should abort the run, not the process).
func hopDir(my, target, dim int) (int, error) {
	if my == target {
		return 0, nil
	}
	diff := target - my
	// Shortest periodic direction.
	if diff > dim/2 {
		diff -= dim
	} else if diff < -dim/2 {
		diff += dim
	}
	switch diff {
	case 1, -1:
		return diff, nil
	}
	// dim == 2 wraps +1 and -1 onto the same neighbor.
	if dim == 2 {
		return 1, nil
	}
	return 0, fmt.Errorf("atom moved %d blocks in one step (axis dim %d)", diff, dim)
}

// hopDirClamped is hopDir for moves hopDir rejects: the shortest
// periodic direction, clamped to one hop. Repeated migration rounds
// (repartition's slab handoff) then deliver a multi-block move one
// neighbor at a time; maxBoundaryShift bounds the rounds needed.
func hopDirClamped(my, target, dim int) int {
	d, err := hopDir(my, target, dim)
	if err == nil {
		return d
	}
	diff := target - my
	if diff > dim/2 {
		diff -= dim
	} else if diff < -dim/2 {
		diff += dim
	}
	if diff > 0 {
		return 1
	}
	return -1
}

// copyAtom moves atom src's owned fields to slot dst (dst ≤ src).
func (r *rankState) copyAtom(dst, src int) {
	if dst == src {
		return
	}
	r.ids[dst] = r.ids[src]
	r.species[dst] = r.species[src]
	r.gpos[dst] = r.gpos[src]
	r.gcell[dst] = r.gcell[src]
	r.vel[dst] = r.vel[src]
	r.force[dst] = r.force[src]
}

// truncateOwned shrinks the owned arrays to n atoms.
func (r *rankState) truncateOwned(n int) {
	r.ids = r.ids[:n]
	r.species = r.species[:n]
	r.gpos = r.gpos[:n]
	r.gcell = r.gcell[:n]
	r.vel = r.vel[:n]
	r.force = r.force[:n]
	r.nOwned = n
}
