package parmd

// Telemetry-driven adaptive repartitioning. The static near-uniform
// decomposition (§3.1.3) leaves nonuniform workloads — voids, droplets,
// density gradients — bounded by the most-loaded rank. The balancer
// closes the telemetry→repartition loop: every Every steps the ranks
// gather their measured force-evaluation time on rank 0, which decides
// whether moving slab boundaries pays (Decomp.Rebalance with a
// min-gain hysteresis guard, after Meyer's repartition cost model) and
// broadcasts the verdict. A repartition recompiles each rank's
// exchange plan against the new boundaries and hands whole cell slabs
// to their new owners through the existing migration machinery, one
// hop per round. Because the per-rank storage is kept in canonical
// (cell, global-ID) order — a pure function of the physics state — a
// repartitioned world is bit-identical to a world freshly built on the
// new boundaries, which is what pins the forces across the move.

import (
	"fmt"

	"sctuple/internal/comm"
)

// Balancer configures telemetry-driven adaptive repartitioning of a
// parallel run. The zero value of each field selects its default.
type Balancer struct {
	// Every is the balance-check cadence in steps (default 20). Each
	// check is one collective exchange (per-rank force-work times to
	// rank 0, decision back); non-repartitioning checks allocate
	// nothing.
	Every int
	// Threshold is the force-phase imbalance — max over mean of the
	// per-rank force-evaluation time since the previous check — at
	// which a repartition is attempted (default 1.2).
	Threshold float64
	// MinGain is the hysteresis guard passed to Decomp.Rebalance: an
	// axis's boundaries move only when the predicted per-axis imbalance
	// improves by at least this much (default 0.02), so a uniform
	// workload's measurement noise never causes churn.
	MinGain float64
	// MaxShift caps how many cells one slab boundary may move per
	// repartition (default 2), bounding the migration rounds (and the
	// transient traffic) a single repartition triggers; convergence to
	// a distant optimum takes several checks instead.
	MaxShift int

	// countWork weighs each rank's load by the list entries it
	// evaluated since the previous check (RankStats.ListEntries, counted
	// on every step, reuse steps included) instead of its
	// force-evaluation wall time. The counts are a pure function of the
	// physics state, so every decision — and the whole repartition
	// sequence — is reproducible on a loaded machine, which is what
	// lets tests pin the balancer's convergence exactly; wall time also
	// sees the kernel and memory costs the counts miss.
	countWork bool
}

func (b *Balancer) every() int {
	if b.Every > 0 {
		return b.Every
	}
	return 20
}

func (b *Balancer) threshold() float64 {
	if b.Threshold > 0 {
		return b.Threshold
	}
	return 1.2
}

func (b *Balancer) minGain() float64 {
	if b.MinGain > 0 {
		return b.MinGain
	}
	return 0.02
}

func (b *Balancer) maxShift() int {
	if b.MaxShift > 0 {
		return b.MaxShift
	}
	return 2
}

// balanceState is one rank's preallocated balance-protocol scratch;
// rank 0 additionally carries the decision scratch. Everything is
// sized at setup so steady-state checks allocate nothing.
type balanceState struct {
	cfg *Balancer

	// prevLoad marks the cumulative load counter (force-work time, or
	// search candidates under countWork) at the last check; the
	// interval delta is what the decision weighs.
	prevLoad int64

	// newStarts receives the broadcast boundary decision on every rank.
	newStarts [3][]int

	// counts is the per-axis histogram of this rank's owned atoms over
	// its block's cell layers — the report that lets rank 0 see the
	// intra-block load gradient (sized to the full lattice so a
	// repartition's wider block never reallocates).
	counts [3][]int64

	// Rank 0 only: gathered per-rank interval times, the per-axis layer
	// weights derived from them, and the candidate-boundary scratch of
	// rebalanceInto.
	times   []int64
	weights [3][]float64
	cand    [3][]int

	checks       int
	repartitions int
	lastImb      float64 // rank 0: imbalance measured at the last check
}

// initBalance attaches a balancer to the rank, preallocating all
// protocol scratch.
func (r *rankState) initBalance(cfg *Balancer) {
	b := &balanceState{cfg: cfg}
	for axis := 0; axis < 3; axis++ {
		b.newStarts[axis] = make([]int, r.dec.Cart.Dims.Comp(axis)+1)
		b.counts[axis] = make([]int64, r.dec.Lat.Dims.Comp(axis))
	}
	if r.p.Rank() == 0 {
		b.times = make([]int64, r.p.Size())
		for axis := 0; axis < 3; axis++ {
			b.weights[axis] = make([]float64, r.dec.Lat.Dims.Comp(axis))
			b.cand[axis] = make([]int, r.dec.Cart.Dims.Comp(axis)+1)
		}
	}
	r.bal = b
}

// balanceCheck runs one collective balance decision and, when rank 0
// calls for it, the repartition. Every rank must enter it on the same
// step (the loop gates on the shared cadence). Returns whether a
// repartition ran.
func (r *rankState) balanceCheck() (bool, error) {
	b := r.bal
	b.checks++
	load := r.stats.ForceNs
	if b.cfg.countWork {
		load = r.stats.ListEntries
	}
	interval := load - b.prevLoad
	b.prevLoad = load

	repartition := false
	if r.p.Rank() == 0 {
		for axis := 0; axis < 3; axis++ {
			w := b.weights[axis]
			for i := range w {
				w[i] = 0
			}
		}
		b.times[0] = interval
		r.countLayers()
		r.addLayerWeights(0, interval, int64(r.nOwned), nil)
		for rank := 1; rank < r.p.Size(); rank++ {
			buf := r.p.RecvBuffer(rank, tagBalance)
			co := r.dec.Cart.Coord(rank)
			ext := r.dec.BlockHi(co).Sub(r.dec.BlockLo(co))
			want := 8 * (2 + ext.X + ext.Y + ext.Z)
			if buf.Len() != want {
				r.p.ReleaseBuffer(buf)
				return false, fmt.Errorf("malformed balance report from rank %d: %d bytes, want %d",
					rank, buf.Len(), want)
			}
			var rd comm.Reader
			rd.Reset(buf.Bytes())
			b.times[rank] = rd.Int64()
			nOwned := rd.Int64()
			r.addLayerWeights(rank, b.times[rank], nOwned, &rd)
			err := rd.Err()
			r.p.ReleaseBuffer(buf)
			if err != nil {
				return false, fmt.Errorf("decoding balance report from rank %d: %w", rank, err)
			}
		}
		repartition = r.decideBalance()
		for rank := 1; rank < r.p.Size(); rank++ {
			buf := r.p.AcquireBuffer()
			r.encodeDecision(buf, repartition)
			r.p.SendBuffer(rank, tagBalance+1, buf)
		}
		if repartition {
			for axis := 0; axis < 3; axis++ {
				copy(b.newStarts[axis], b.cand[axis])
			}
		}
	} else {
		r.countLayers()
		buf := r.p.AcquireBuffer()
		buf.Int64(interval)
		buf.Int64(int64(r.nOwned))
		for axis := 0; axis < 3; axis++ {
			ext := r.hi.Comp(axis) - r.lo.Comp(axis)
			for x := 0; x < ext; x++ {
				buf.Int64(b.counts[axis][x])
			}
		}
		r.p.SendBuffer(0, tagBalance, buf)
		rb := r.p.RecvBuffer(0, tagBalance+1)
		var err error
		repartition, err = r.decodeDecision(rb)
		r.p.ReleaseBuffer(rb)
		if err != nil {
			return false, err
		}
	}
	if !repartition {
		return false, nil
	}

	b.repartitions++
	newDec, err := NewDecompStarts(r.dec.Lat, r.dec.Cart, b.newStarts)
	if err != nil {
		return false, fmt.Errorf("balance decision: %w", err)
	}
	sp := r.rec.StartSpan(phaseRepartition)
	err = r.repartition(newDec)
	sp.End()
	if err != nil {
		return false, err
	}
	return true, nil
}

// countLayers fills b.counts with this rank's per-axis histogram of
// owned atoms over its block's global cell layers (index 0 = the
// block's first layer).
func (r *rankState) countLayers() {
	b := r.bal
	for axis := 0; axis < 3; axis++ {
		ext := r.hi.Comp(axis) - r.lo.Comp(axis)
		c := b.counts[axis][:ext]
		for i := range c {
			c[i] = 0
		}
	}
	for i := 0; i < r.nOwned; i++ {
		gc := r.gcell[i]
		b.counts[0][gc.X-r.lo.X]++
		b.counts[1][gc.Y-r.lo.Y]++
		b.counts[2][gc.Z-r.lo.Z]++
	}
}

// addLayerWeights projects one rank's measured interval time onto the
// per-axis layer weights, distributed over its block's cell layers in
// proportion to that rank's owned-atom histogram — the intra-block
// gradient that lets a boundary move even when every block is only a
// couple of cells wide. rd, when non-nil, supplies the remote rank's
// histogram off the wire (3 axes, block-extent entries each); nil
// reads rank 0's own b.counts. An empty rank spreads its (tiny) time
// uniformly. Layers covered by several ranks (the other axes' splits)
// accumulate every owner's share, the standard separable
// approximation.
func (r *rankState) addLayerWeights(rank int, t, nOwned int64, rd *comm.Reader) {
	b := r.bal
	d := r.dec
	co := d.Cart.Coord(rank)
	blo, bhi := d.BlockLo(co), d.BlockHi(co)
	for axis := 0; axis < 3; axis++ {
		lo, hi := blo.Comp(axis), bhi.Comp(axis)
		w := b.weights[axis]
		for x := lo; x < hi; x++ {
			var c int64
			if rd != nil {
				c = rd.Int64()
			} else {
				c = b.counts[axis][x-lo]
			}
			if nOwned > 0 {
				w[x] += float64(t) * float64(c) / float64(nOwned)
			} else {
				w[x] += float64(t) / float64(hi-lo)
			}
		}
	}
}

// decideBalance is rank 0's verdict on the gathered interval times:
// measure the imbalance, and past the threshold ask Decomp.Rebalance
// for a better boundary layout against the atom-weighted layer
// profile accumulated during the gather. The candidate boundaries land
// in b.cand; the return value says whether they differ from the
// current ones (the hysteresis guard inside rebalanceInto already
// rejected non-improvements).
func (r *rankState) decideBalance() bool {
	b := r.bal
	var maxT, sumT int64
	for _, t := range b.times {
		sumT += t
		if t > maxT {
			maxT = t
		}
	}
	if sumT <= 0 {
		b.lastImb = 1
		return false
	}
	mean := float64(sumT) / float64(len(b.times))
	b.lastImb = float64(maxT) / mean
	if b.lastImb < b.cfg.threshold() {
		return false
	}
	minWidth := max(r.mLo, r.mHi)
	return r.dec.rebalanceInto(b.weights, minWidth, b.cfg.maxShift(), b.cfg.minGain(), &b.cand)
}

// encodeDecision writes rank 0's verdict: a flag, then the new
// boundaries when repartitioning. The message length is fixed per
// topology, so the pooled buffer reaches steady capacity at the first
// repartitioning check.
func (r *rankState) encodeDecision(buf *comm.Buffer, repartition bool) {
	if !repartition {
		buf.Int64(0)
		return
	}
	buf.Int64(1)
	for axis := 0; axis < 3; axis++ {
		for _, s := range r.bal.cand[axis] {
			buf.Int64(int64(s))
		}
	}
}

// decodeDecision reads rank 0's verdict into b.newStarts.
func (r *rankState) decodeDecision(buf *comm.Buffer) (bool, error) {
	var rd comm.Reader
	rd.Reset(buf.Bytes())
	if rd.Remaining() < 8 {
		return false, fmt.Errorf("malformed balance decision: %d bytes", buf.Len())
	}
	if rd.Int64() == 0 {
		return false, nil
	}
	b := r.bal
	for axis := 0; axis < 3; axis++ {
		for i := range b.newStarts[axis] {
			if rd.Remaining() < 8 {
				return false, fmt.Errorf("truncated balance decision: %d bytes", buf.Len())
			}
			b.newStarts[axis][i] = int(rd.Int64())
		}
	}
	return true, nil
}

// repartition moves this rank onto a new decomposition of the same
// lattice and topology: rebuild every boundary-dependent piece of
// state (block geometry, extended lattice and binning, exchange plan,
// interior/boundary split, enumerators), then hand off atoms to their
// new owners by running the migration exchange for as many one-hop
// rounds as the largest boundary shift requires. All ranks must call
// it together with the same newDec. The next force evaluation
// re-canonicalizes storage into (cell, ID) order on the new extended
// lattice, so the rank state — and with it the forces, bit for bit —
// matches a world freshly constructed on newDec at the same physics
// state.
func (r *rankState) repartition(newDec *Decomp) error {
	rounds := maxBoundaryShift(r.dec, newDec)
	if rounds == 0 {
		return nil
	}
	if err := r.initGeometry(newDec); err != nil {
		return err
	}
	if err := r.buildEnumerators(); err != nil {
		return err
	}
	r.hopClamp = true
	defer func() { r.hopClamp = false }()
	for i := 0; i < rounds; i++ {
		sp := r.rec.StartSpan(phaseMigrate)
		err := r.migrateAtoms()
		sp.End()
		if err != nil {
			return err
		}
	}
	r.idOrderStale = true
	return nil
}
