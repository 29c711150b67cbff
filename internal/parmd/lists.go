package parmd

import (
	"fmt"
	"math"

	"sctuple/internal/comm"
	"sctuple/internal/geom"
	"sctuple/internal/tuple"
)

// Verlet-skin amortisation of the tuple search (DESIGN.md §5.21). A
// rebuild step searches every term at r_cut + skin and records the
// tuples it emits; the steps between evaluate those lists against the
// current positions with the exact cutoff. The skin comes from the
// lattice (Scheme.skin), and the lists stay complete while no atom has
// moved more than skin/2 since the build: a chain link that was at
// least r_cut + skin long then is still at least r_cut long now.

// pruneRow appends to short and disp the neighbours of center j that
// can close a nonzero triplet — within the pair cutoff this step, within
// the triplet cutoff, and on a link the triplet term's species table
// admits — with their displacements from j, counting one search
// candidate per row entry. The expressions are the unskinned row
// fill's, so the triplet stream is bit-identical to it.
func (r *rankState) pruneRow(j int32, short []int32, disp []geom.Vec3, st *tuple.Stats) ([]int32, []geom.Vec3) {
	rj := r.lpos[j]
	var admit []bool
	if r.tripLinks != nil {
		admit = r.tripLinks[r.species[j]]
	}
	for _, k := range r.hybEntries[r.hybLo[j]:r.hybHi[j]] {
		st.Candidates++
		d := r.lpos[k].Sub(rj)
		if n2 := d.Norm2(); n2 < r.pairCut2 && math.Sqrt(n2) < r.tripCut && (admit == nil || admit[r.species[k]]) {
			short = append(short, k)
			disp = append(disp, d)
		}
	}
	return short, disp
}

// hybridPrune prunes, in the interior stage, the rows of the owned
// atoms in the given interior cells for the triplet loop. Their rows
// hold owned atoms only, so the work needs no halo position and
// overlaps the exchange — between rebuilds it is all a Hybrid interior
// stage has to do, since the pair and triplet loops need complete rows.
func (r *rankState) hybridPrune(cells []geom.IVec3) {
	if cap(r.tripPre) < r.nOwned {
		// Headroom: the owned count fluctuates under migration.
		n := r.nOwned + r.nOwned/8
		r.tripPre, r.tripLo, r.tripHi = make([]bool, n), make([]int32, n), make([]int32, n)
	}
	r.tripPre, r.tripLo, r.tripHi = r.tripPre[:r.nOwned], r.tripLo[:r.nOwned], r.tripHi[:r.nOwned]
	clear(r.tripPre)
	r.tripJ, r.tripD = r.tripJ[:0], r.tripD[:0]
	if r.tripTerm == nil {
		return
	}
	st := &r.acc.Slot(0).Enum
	for _, q := range cells {
		aLo, aHi := r.bin.CellSpan(r.extLat.Linear(q))
		for i := aLo; i < aHi; i++ {
			r.tripLo[i] = int32(len(r.tripJ))
			r.tripJ, r.tripD = r.pruneRow(i, r.tripJ, r.tripD, st)
			r.tripHi[i] = int32(len(r.tripJ))
			r.tripPre[i] = true
		}
	}
}

// recordVisitor returns the rebuild-step visitor of one (term, slot):
// it appends the tuple to the slot's list of the current stage, then
// passes it to eval only if every link lies within the term's exact
// cutoff. The enumerator emits tuples in the order a search at the
// exact cutoff would, and this is that search's link test, so rebuild
// steps evaluate the unskinned tuple stream bit for bit.
func (r *rankState) recordVisitor(term, slot int, eval tuple.Visitor) tuple.Visitor {
	rc2 := r.cut2[term]
	return func(atoms []int32, pos []geom.Vec3) {
		l := &r.lists[term][r.curStage][slot]
		*l = append(*l, atoms...)
		for k := 1; k < len(pos); k++ {
			if pos[k].Sub(pos[k-1]).Norm2() >= rc2 {
				return
			}
		}
		eval(atoms, pos)
	}
}

// evalList evaluates one recorded list of n-tuples at the current
// local positions: a tuple reaches eval when every link passes
// recordVisitor's exact-cutoff test.
func evalList(list []int32, n int, rc2 float64, lpos []geom.Vec3, pos *[tuple.MaxN]geom.Vec3, eval tuple.Visitor) {
	for t := 0; t+n <= len(list); t += n {
		atoms := list[t : t+n]
		pos[0] = lpos[atoms[0]]
		k := 1
		for ; k < n; k++ {
			pos[k] = lpos[atoms[k]]
			if pos[k].Sub(pos[k-1]).Norm2() >= rc2 {
				break
			}
		}
		if k == n {
			eval(atoms, pos[:n])
		}
	}
}

// listEntries returns the number of recorded list entries an
// evaluation walks: tuples for SC/FS, row entries for Hybrid.
func (r *rankState) listEntries() int64 {
	if r.scheme == SchemeHybrid {
		return int64(len(r.hybEntries))
	}
	var total int64
	for ti, term := range r.model.Terms {
		var n int
		for st := range r.lists[ti] {
			for _, l := range r.lists[ti][st] {
				n += len(l)
			}
		}
		total += int64(n / term.N())
	}
	return total
}

// refreshOwned recomputes the owned atoms' local positions between
// rebuilds. Positions are re-wrapped only by migration, so an owned
// atom that crosses the periodic box keeps a continuous local
// position, as its list entries need.
func (r *rankState) refreshOwned() {
	for i := 0; i < r.nOwned; i++ {
		r.lpos[i] = r.localPos(r.gpos[i], 0, 0, 0)
	}
}

// markBuilt closes a rebuild: it records the owned positions the
// displacement vote measures against, gives an SC/FS list left with
// less than a sixteenth of headroom a quarter (list lengths fluctuate
// with thermal motion; the next rebuild then records in place), and
// clears the rebuild mark.
func (r *rankState) markBuilt() {
	for ti := range r.lists {
		for st := range r.lists[ti] {
			for s, l := range r.lists[ti][st] {
				if n := len(l); cap(l) < n+n/16 {
					r.lists[ti][st][s] = append(make([]int32, 0, n+n/4), l...)
				}
			}
		}
	}
	if cap(r.built) < r.nOwned {
		// Headroom: the owned count fluctuates under migration.
		r.built = make([]geom.Vec3, r.nOwned, r.nOwned+r.nOwned/8)
	}
	r.built = r.built[:r.nOwned]
	copy(r.built, r.gpos)
	r.rebuild = false
	r.stats.ListRebuilds++
}

// voteRebuild takes one step's collective rebuild vote: every rank
// sends the largest squared displacement of its owned atoms since the
// last rebuild to rank 0 (tagVote), which returns the maximum
// (tagVote + 1), and each rank marks a rebuild when it exceeds
// (skin/2)² — every rank compares the same reduced value, so all
// rebuild or none. The threshold sits a relative 1e-9 inside (skin/2)²,
// so rounding between the global frame measured here and the local
// frames the lists are evaluated in cannot matter. A rebuild already
// marked (new geometry) and the forceRebuild seam still take the vote,
// so every step moves the same vote traffic. A NaN displacement
// (a blown-up integration) votes for a rebuild, whose migration then
// reports the runaway atom.
func (r *rankState) voteRebuild() error {
	local := 0.0
	if !r.rebuild && len(r.built) == r.nOwned {
		for i := 0; i < r.nOwned; i++ {
			if d2 := r.gpos[i].Sub(r.built[i]).Norm2(); !(d2 <= local) {
				local = d2
			}
		}
	}
	p := r.p
	maxD2 := local
	if p.Rank() == 0 {
		for rank := 1; rank < p.Size(); rank++ {
			d2, err := recvVote(p, rank, tagVote)
			if err != nil {
				return err
			}
			if !(d2 <= maxD2) {
				maxD2 = d2
			}
		}
		for rank := 1; rank < p.Size(); rank++ {
			buf := p.AcquireBuffer()
			buf.Float64(maxD2)
			p.SendBuffer(rank, tagVote+1, buf)
		}
	} else {
		buf := p.AcquireBuffer()
		buf.Float64(local)
		p.SendBuffer(0, tagVote, buf)
		var err error
		if maxD2, err = recvVote(p, 0, tagVote+1); err != nil {
			return err
		}
	}
	half := 0.5 * r.skin
	if r.forceRebuild || !(maxD2 <= half*half*(1-1e-9)) {
		r.rebuild = true
	}
	return nil
}

// recvVote receives one 8-byte vote message, rejecting any other size
// as malformed.
func recvVote(p *comm.Proc, src, tag int) (float64, error) {
	buf := p.RecvBuffer(src, tag)
	defer p.ReleaseBuffer(buf)
	if buf.Len() != 8 {
		return 0, fmt.Errorf("malformed rebuild vote from rank %d: %d bytes, want 8", src, buf.Len())
	}
	var rd comm.Reader
	rd.Reset(buf.Bytes())
	return rd.Float64(), rd.Err()
}
