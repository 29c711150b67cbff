package parmd

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"sctuple/internal/cell"
	"sctuple/internal/comm"
	"sctuple/internal/core"
	"sctuple/internal/geom"
	"sctuple/internal/kernel"
	"sctuple/internal/md"
	"sctuple/internal/obs"
	"sctuple/internal/obs/health"
	"sctuple/internal/potential"
	"sctuple/internal/tuple"
	"sctuple/internal/workload"
)

// computeShards is the fixed number of accumulation shards each rank's
// force evaluation is split into. The shard count — not the worker
// count — fixes both the work partition and the reduction order, so a
// rank's forces are bit-identical for every Options.Workers setting
// (and workers beyond computeShards would sit idle, so the worker
// count is capped here).
const computeShards = 16

// Message tags. Halo and force tags are offset per (axis, direction)
// so a protocol slip is caught by the tag check in comm.Recv.
// tagHealth carries the halo-mirror checksum exchange of the health
// probes, offset identically to the halo tag it audits.
// tagBalance carries the balance protocol: per-rank force-work times
// gathered to rank 0 (tagBalance) and the repartition decision
// broadcast back (tagBalance + 1). tagVote carries the list-rebuild
// vote the same way: each rank's maximum displacement since the last
// list build to rank 0 (tagVote), the reduced maximum back
// (tagVote + 1).
const (
	tagMigrate = 100
	tagHalo    = 200
	tagForce   = 300
	tagHealth  = 400
	tagBalance = 500
	tagVote    = 600
)

// RankStats accumulates one rank's per-run operation counts — the
// inputs of the performance model (package perfmodel).
type RankStats struct {
	Steps            int
	OwnedAtoms       int   // at end of run
	SearchCandidates int64 // Eq. 12 search cost, summed over list rebuilds (Hybrid: plus triplet pruning every step)
	TuplesEvaluated  int64
	PairListEntries  int64 // Hybrid only
	// ListEntries counts the recorded list entries every evaluation
	// walks — SC/FS tuples, Hybrid row entries — so, unlike the search
	// counters, it is a work measure of every step, reuse steps
	// included.
	ListEntries int64
	// ListRebuilds counts the evaluations that rebuilt the lists: the
	// initial one, each step whose displacement vote called for it, and
	// each step after a repartition. Equal on every rank.
	ListRebuilds  int64
	AtomsImported int64 // halo atoms received, summed over steps
	AtomsMigrated int64 // atoms received in migration
	HaloMessages  int64 // halo + write-back messages received
	// ForceNs is the cumulative wall time of this rank's force work
	// (interior + boundary evaluation stages, excluding halo waits) —
	// the per-rank load measure the adaptive balancer equalizes and
	// Result.ForceImbalance summarizes.
	ForceNs int64
	// Virial is this rank's share of W = Σ f·r (eV), summed over force
	// evaluations; summing it over ranks gives the global virial of
	// the serial engines' ComputeStats (per-tuple virials are
	// translation invariant, so the rank-local frames do not matter).
	Virial float64
}

// Add accumulates other into s.
func (s *RankStats) Add(o RankStats) {
	s.Steps += o.Steps
	s.SearchCandidates += o.SearchCandidates
	s.TuplesEvaluated += o.TuplesEvaluated
	s.PairListEntries += o.PairListEntries
	s.ListEntries += o.ListEntries
	s.ListRebuilds += o.ListRebuilds
	s.AtomsImported += o.AtomsImported
	s.AtomsMigrated += o.AtomsMigrated
	s.HaloMessages += o.HaloMessages
	s.ForceNs += o.ForceNs
	s.Virial += o.Virial
}

// rankState is the complete state of one rank of a parallel run.
type rankState struct {
	p      *comm.Proc
	dec    *Decomp
	scheme Scheme
	model  *potential.Model

	coord    geom.IVec3
	lo, hi   geom.IVec3 // owned global cell range [lo, hi)
	mLo, mHi int        // halo margins in cells (per scheme)
	base     geom.IVec3 // global cell coords of the extended-lattice origin
	extLat   cell.Lattice

	// Atom storage: owned atoms in [0, nOwned), halo copies after.
	nOwned  int
	ids     []int64
	gpos    []geom.Vec3  // wrapped global positions (owned atoms only are authoritative)
	gcell   []geom.IVec3 // owner-assigned global cells (owned atoms)
	ecell   []geom.IVec3 // extended-lattice cell of every atom (owned + halo)
	lpos    []geom.Vec3  // local-frame positions (contiguous across the seam)
	vel     []geom.Vec3
	force   []geom.Vec3
	species []int32
	lcell   []int32 // linear extended cells, parallel to ecell

	bin        *cell.Binning
	ownedCells []geom.IVec3 // extended-lattice coords of owned cells
	// interiorCells/boundaryCells partition ownedCells by the compiled
	// plan's interior bounds: interior cells anchor only tuples over
	// owned atoms, so the overlapped path evaluates them while halo
	// data is still in flight; boundary cells wait for the imports.
	// Both keep ownedCells' relative order, so the two-stage dispatch
	// chunks deterministically.
	interiorCells []geom.IVec3
	boundaryCells []geom.IVec3
	// termLat[t] is term t's search lattice (SC/FS only): the pair
	// lattice above for terms whose cutoff needs whole pair cells, or a
	// shared sub-cell lattice (fine[i]) for shorter-ranged terms.
	termLat []*searchLattice
	fine    []*searchLattice
	// overlap selects the split-phase exchange (the default): post the
	// halo sends/receives, evaluate interior cells, complete the
	// receives, evaluate boundary cells. False runs the synchronous
	// import with the identical two-stage dispatch, so forces are
	// bit-identical between the modes.
	overlap bool
	// Verlet-skin list reuse (DESIGN.md §5.21). skin is the scheme's
	// lattice-derived skin (Scheme.skin). rebuild marks the next force
	// evaluation as a list rebuild: migrate, re-sort, rebin, exchange
	// whole halo records, search at r_cut + skin and record the lists.
	// Every other evaluation keeps storage, import set and lists, and
	// exchanges positions only. built holds the owned positions of the
	// last rebuild, which the displacement vote measures against;
	// forceRebuild, a test seam, rebuilds on every step.
	skin         float64
	rebuild      bool
	forceRebuild bool
	built        []geom.Vec3

	// enums holds one enumerator set per worker goroutine (enumerators
	// are scratch and must not be shared between goroutines),
	// enums[w][term].
	enums [][]*tuple.Enumerator
	// links[term] is the term's species link table
	// (potential.SpeciesLinks; nil admits every pair). The SC/FS
	// enumerators and Hybrid's triplet pruning drop tuples with a link
	// it does not admit, whose contribution the term defines as zero.
	links [][][]bool

	// workers is the intra-rank force-evaluation parallelism (the
	// thread half of the paper's hybrid rank×thread execution); acc is
	// the sharded accumulator all force kernels write through.
	workers int
	acc     *kernel.Sharded

	// Canonical owned-storage sort state: the owned segment is kept in
	// (extended-lattice cell, global ID) order so the binning can use
	// contiguous storage spans. All scratch is reused; the common
	// solid-state step is an O(n) already-ordered check.
	sorter  cell.Sorter
	sortV3  []geom.Vec3
	sortIV  []geom.IVec3
	sortI64 []int64
	sortI32 []int32

	// Per-slot, per-term visitors and the hoisted shard closure of the
	// SC/FS cell dispatch — created once, so the step loop builds no
	// closures (cellVisitors[slot][term]).
	cellVisitors [][]tuple.Visitor
	cellFn       func(w, s int)
	curTerm      int
	curCells     []geom.IVec3

	// SC/FS tuple lists: lists[term][stage][shard] holds the tuples (n
	// local indices each) the last rebuild's search emitted at
	// r_cut + skin, in emission order; stage 0 is the interior, 1 the
	// boundary. recVisitors[slot][term] record each tuple on rebuild
	// steps and evaluate it only within the exact cutoff (cut2[term] is
	// r_cut²); listFn evaluates the lists on the steps between, with
	// listPos as its per-slot position scratch.
	lists       [][2][computeShards][]int32
	recVisitors [][]tuple.Visitor
	cut2        []float64
	curStage    int
	listFn      func(w, s int)
	listPos     [][tuple.MaxN]geom.Vec3

	// Hybrid scheme only: the model's pair/triplet terms plus the
	// hoisted directed-list and pruning scratch, reused across steps.
	// hybOff holds the last cells of the FS(2) paths in pattern order
	// (each path starts at its anchor); hybFilled counts the owned atoms
	// whose list rows the current rebuild has filled. A row holds the
	// neighbour indices j of atom i only: the evaluation loops compute
	// each displacement from the current positions, so rows serve every
	// step until the next rebuild.
	pairTerm   potential.Term
	tripTerm   potential.Term
	tripLinks  [][]bool // the triplet term's species link table
	pairCut2   float64  // the pair term's exact cutoff²
	hybOff     [27]geom.IVec3
	hybEntries []int32
	hybLo      []int32
	hybHi      []int32
	hybFilled  int
	tripCut    float64       // the triplet term's cutoff
	tripShort  [][]int32     // per-worker pruning scratch: neighbours kept
	tripDisp   [][]geom.Vec3 // and their displacements from the center
	// The interior stage prunes the rows of the atoms in interior cells
	// ahead of the halo (hybridPrune): atom i's kept neighbours and
	// displacements are tripJ/tripD[tripLo[i]:tripHi[i]] when tripPre[i].
	tripJ     []int32
	tripD     []geom.Vec3
	tripLo    []int32
	tripHi    []int32
	tripPre   []bool
	hybPairV  []func(i, j int32, disp geom.Vec3, dist float64) // per slot
	hybTripV  []func(atoms [3]int32, pos [3]geom.Vec3)         // per slot
	hybPairFn func(w, s int)
	hybTripFn func(w, s int)

	// idOrder lists the owned storage slots in ascending global-ID
	// order — the Hybrid evaluation walks it so the shard partition and
	// accumulation order stay bit-identical to ID-ordered storage. It
	// is rebuilt lazily after migration or a re-sort.
	idOrder      []int32
	idOrderStale bool
	idCmp        func(a, b int32) int // hoisted comparator: no closure alloc per rebuild

	// Tuple-parity probe state, rank 0 only, built lazily at the first
	// sampled step and reused for the rest of the run: the gathered
	// global configuration, its binning over the global lattice, and the
	// SC/FS enumerator pair per term. parityOff latches a constructor
	// failure (a lattice too small for the full-shell span) so the
	// configuration limit is logged once, not at every sample.
	parityPos   []geom.Vec3
	parityBin   *cell.Binning
	parityEnums [][2]*tuple.Enumerator
	parityOff   bool

	// plan is the compiled communication schedule (peers, tags, slab
	// bounds, frame shifts); phaseState is its per-step scratch, one
	// entry per halo phase, reused across steps; haloDone counts the
	// phases of the current exchange already received and appended.
	plan       *ExchangePlan
	phaseState []haloPhaseState
	haloDone   int

	// bal is the adaptive-repartitioning state (nil when no Balancer is
	// configured); hopClamp relaxes the one-hop migration invariant
	// during the multi-round slab handoff a repartition runs — a moved
	// boundary may strand an atom several blocks from its new owner, and
	// the clamped rounds walk it over one hop at a time.
	bal      *balanceState
	hopClamp bool
	// hops is migrateAxis's scratch: each owned atom's hop direction
	// (-1, 0, +1) on the axis being exchanged.
	hops []int8

	// rec records this rank's phase spans; nil (the default) keeps
	// every span site a single-branch no-op.
	rec *obs.RankRecorder

	// monitor receives this rank's invariant-probe observations (nil
	// disables them); healthStep marks the steps the halo-mirror probe
	// samples — the exchange path checks this one bool, so disabled
	// probing costs a single branch and the steady-state zero-allocation
	// guarantee of the exchange is untouched.
	monitor    *health.Monitor
	healthStep bool
	curStep    int

	// live, when non-nil, feeds this rank's per-step counter deltas
	// into the metrics registry as the run steps (see liveMetrics).
	live *liveMetrics

	stats RankStats
}

// newRankState builds the geometry, enumerators, and kernel
// accumulator of a rank. workers ≤ 1 evaluates forces serially;
// overlap selects the split-phase halo exchange.
func newRankState(p *comm.Proc, dec *Decomp, model *potential.Model, scheme Scheme, workers int, overlap bool) (*rankState, error) {
	r := &rankState{p: p, scheme: scheme, model: model, overlap: overlap, curStep: -1}
	if workers < 1 {
		workers = 1
	}
	r.workers = min(workers, computeShards)
	r.acc = kernel.NewSharded(computeShards)

	side := minSide(dec.Lat.Side)
	mLo, mHi, err := scheme.margins(model, side)
	if err != nil {
		return nil, err
	}
	r.mLo, r.mHi = mLo, mHi
	r.skin = scheme.skin(model, side)
	for _, term := range model.Terms {
		r.links = append(r.links, potential.SpeciesLinks(term))
		r.cut2 = append(r.cut2, term.Cutoff()*term.Cutoff())
	}
	if scheme == SchemeHybrid {
		// One raw (both orientations) full-shell pair search; pair and
		// triplet terms are both served from the resulting list.
		for ti, term := range model.Terms {
			switch term.N() {
			case 2:
				r.pairTerm, r.pairCut2 = term, r.cut2[ti]
			case 3:
				r.tripTerm, r.tripLinks, r.tripCut = term, r.links[ti], term.Cutoff()
			default:
				return nil, fmt.Errorf("parmd: Hybrid-MD cannot handle n=%d terms", term.N())
			}
		}
		if r.pairTerm == nil {
			return nil, fmt.Errorf("parmd: Hybrid-MD needs a pair term")
		}
	}
	if err := r.initGeometry(dec); err != nil {
		return nil, err
	}
	if err := r.buildEnumerators(); err != nil {
		return nil, err
	}

	switch scheme {
	case SchemeSC, SchemeFS:
		// Per-slot, per-term visitors plus the hoisted shard closures,
		// created here so the step loop allocates none. The visitors read
		// species (and the accumulator slot's force buffer) through
		// pointers, so they survive re-sorts and array growth; the search
		// closure reads the enumerator set through r.enums, so it
		// survives the enumerator rebuild a repartition triggers.
		r.lists = make([][2][computeShards][]int32, len(model.Terms))
		r.listPos = make([][tuple.MaxN]geom.Vec3, r.acc.Slots())
		for s := 0; s < r.acc.Slots(); s++ {
			slot := r.acc.Slot(s)
			var vs, rs []tuple.Visitor
			for ti, term := range model.Terms {
				k := kernel.TermKernel{Term: term, Species: &r.species}
				v := k.Visitor(slot)
				vs = append(vs, v)
				rs = append(rs, r.recordVisitor(ti, s, v))
			}
			r.cellVisitors = append(r.cellVisitors, vs)
			r.recVisitors = append(r.recVisitors, rs)
		}
		r.cellFn = func(w, s int) {
			list := &r.lists[r.curTerm][r.curStage][s]
			*list = (*list)[:0]
			cells := r.curCells
			lo, hi := kernel.Chunk(len(cells), r.acc.Slots(), s)
			if lo >= hi {
				return
			}
			en := r.enums[w][r.curTerm]
			en.SetKeys(r.ids)
			en.SetLinks(r.species, r.links[r.curTerm])
			slot := r.acc.Slot(s)
			en.VisitCellsInto(cells[lo:hi], r.lpos, r.recVisitors[s][r.curTerm], &slot.Enum)
		}
		r.listFn = func(w, s int) {
			ti := r.curTerm
			evalList(r.lists[ti][r.curStage][s], r.model.Terms[ti].N(), r.cut2[ti], r.lpos,
				&r.listPos[s], r.cellVisitors[s][ti])
		}
	case SchemeHybrid:
		r.tripShort = make([][]int32, r.workers)
		r.tripDisp = make([][]geom.Vec3, r.workers)
		for w := range r.tripShort {
			r.tripShort[w] = make([]int32, 0, 64)
			r.tripDisp[w] = make([]geom.Vec3, 0, 64)
		}
		for k, path := range core.FS(2).Paths() {
			r.hybOff[k] = path[1]
		}
		// Per-slot evaluation visitors and shard closures — the Hybrid
		// analogue of the SC/FS visitor cache.
		for s := 0; s < r.acc.Slots(); s++ {
			slot := r.acc.Slot(s)
			pairK := kernel.TermKernel{Term: r.pairTerm, Species: &r.species}
			r.hybPairV = append(r.hybPairV, pairK.PairVisitor(slot, &r.lpos))
			if r.tripTerm != nil {
				tripK := kernel.TermKernel{Term: r.tripTerm, Species: &r.species}
				r.hybTripV = append(r.hybTripV, tripK.TripletVisitor(slot))
			}
		}
		// Both evaluation loops walk owned atoms in global-ID order via
		// idOrder: the shard partition chunks ID ranks, and each shard
		// visits its atoms' list entries in ID-ascending order — exactly
		// the stream ID-ordered storage produced, so forces stay
		// bit-identical under the canonical cell sort. Displacements are
		// taken from the current positions with the expressions the
		// unskinned row fill used, and a row's skin entries — those
		// beyond the pair cutoff this step — are skipped by its test.
		r.hybPairFn = func(w, s int) {
			lo, hi := kernel.Chunk(r.nOwned, r.acc.Slots(), s)
			if lo >= hi {
				return
			}
			rows := r.hybEntries
			pv := r.hybPairV[s]
			for t := lo; t < hi; t++ {
				i := r.idOrder[t]
				idI, ri := r.ids[i], r.lpos[i]
				for _, j := range rows[r.hybLo[i]:r.hybHi[i]] {
					if idI >= r.ids[j] {
						continue
					}
					d := r.lpos[j].Sub(ri)
					if n2 := d.Norm2(); n2 < r.pairCut2 {
						pv(i, j, d, math.Sqrt(n2))
					}
				}
			}
		}
		r.hybTripFn = func(w, s int) {
			lo, hi := kernel.Chunk(r.nOwned, r.acc.Slots(), s)
			if lo >= hi {
				return
			}
			slot := r.acc.Slot(s)
			tv := r.hybTripV[s]
			short, disp := r.tripShort[w][:0], r.tripDisp[w][:0]
			for t := lo; t < hi; t++ {
				j := r.idOrder[t]
				var kept []int32
				var kd []geom.Vec3
				if r.tripPre[j] {
					kept, kd = r.tripJ[r.tripLo[j]:r.tripHi[j]], r.tripD[r.tripLo[j]:r.tripHi[j]]
				} else {
					short, disp = r.pruneRow(j, short[:0], disp[:0], &slot.Enum)
					kept, kd = short, disp
				}
				rj := r.lpos[j]
				for a := 0; a < len(kept); a++ {
					for b := a + 1; b < len(kept); b++ {
						slot.Enum.Candidates++
						tv([3]int32{kept[a], j, kept[b]}, [3]geom.Vec3{rj.Add(kd[a]), rj, rj.Add(kd[b])})
					}
				}
			}
			r.tripShort[w], r.tripDisp[w] = short, disp
		}
	}
	r.idOrderStale = true
	r.idCmp = func(a, b int32) int { return cmp.Compare(r.ids[a], r.ids[b]) }
	return r, nil
}

// initGeometry derives every decomposition-dependent piece of rank
// state from dec: the owned block, the extended lattice and binning,
// the compiled exchange plan with its per-phase scratch, and the
// interior/boundary cell split. It is called once at construction and
// again by repartition when the slab boundaries move — slices are
// reset, not reallocated, where capacities allow.
func (r *rankState) initGeometry(dec *Decomp) error {
	r.dec = dec
	r.rebuild = true // new geometry: storage, halo and lists are rebuilt
	r.coord = dec.Cart.Coord(r.p.Rank())
	r.lo = dec.BlockLo(r.coord)
	r.hi = dec.BlockHi(r.coord)
	mLo, mHi := r.mLo, r.mHi
	t := max(mLo, mHi)
	if dec.MinBlockDim() < t {
		return fmt.Errorf("parmd: block dimension %d below halo thickness %d; use fewer ranks",
			dec.MinBlockDim(), t)
	}
	r.base = r.lo.Sub(geom.IV(mLo, mLo, mLo))
	r.plan = compileExchangePlan(dec, r.p.Rank(), mLo, mHi)
	if len(r.phaseState) != len(r.plan.Halo) {
		r.phaseState = make([]haloPhaseState, len(r.plan.Halo))
	}
	ext := r.hi.Sub(r.lo).Add(geom.IV(mLo+mHi, mLo+mHi, mLo+mHi))
	extBox := geom.NewBox(
		float64(ext.X)*dec.Lat.Side.X,
		float64(ext.Y)*dec.Lat.Side.Y,
		float64(ext.Z)*dec.Lat.Side.Z,
	)
	var err error
	r.extLat, err = cell.NewLatticeDims(extBox, ext)
	if err != nil {
		return err
	}
	r.bin = cell.NewBinning(r.extLat, nil)

	r.ownedCells = r.ownedCells[:0]
	r.interiorCells = r.interiorCells[:0]
	r.boundaryCells = r.boundaryCells[:0]
	block := r.hi.Sub(r.lo)
	for x := 0; x < block.X; x++ {
		for y := 0; y < block.Y; y++ {
			for z := 0; z < block.Z; z++ {
				c := geom.IV(x+mLo, y+mLo, z+mLo)
				r.ownedCells = append(r.ownedCells, c)
				if c.X >= r.plan.InteriorLo.X && c.X < r.plan.InteriorHi.X &&
					c.Y >= r.plan.InteriorLo.Y && c.Y < r.plan.InteriorHi.Y &&
					c.Z >= r.plan.InteriorLo.Z && c.Z < r.plan.InteriorHi.Z {
					r.interiorCells = append(r.interiorCells, c)
				} else {
					r.boundaryCells = append(r.boundaryCells, c)
				}
			}
		}
	}
	if r.scheme == SchemeSC || r.scheme == SchemeFS {
		r.initSearchLattices(ext, extBox)
	}
	return nil
}

// searchLattice is one term's rank-local search lattice: the extended
// lattice with every pair cell split into k³ sub-cells of side ≥ the
// term's cutoff (§3.1.1 sizes each term's cells by its own cutoff).
// Sub-cells nest inside pair cells, so rank boundaries, halo margins
// and the exchange plan are those of the pair lattice, and an anchor's
// interior/boundary class is its parent pair cell's. k = 1 is the pair
// lattice itself with its storage-span binning; k > 1 bins CSR with
// global-ID-ordered cell lists, so enumeration order is a pure function
// of positions and IDs, as on the pair lattice.
type searchLattice struct {
	k        int
	lat      cell.Lattice
	bin      *cell.Binning
	cells    []int32      // k > 1: linear sub-cell of every atom, refreshed by rebin
	interior []geom.IVec3 // owned anchor cells whose parent pair cell is interior
	boundary []geom.IVec3
}

// subCells returns how many sub-cells per axis a term's search lattice
// splits each pair cell into: the most that keep the sub-cell side at
// or above the term's cutoff (silica: 1 for pairs, 2 for triplets).
func subCells(pairSide geom.Vec3, cutoff float64) int {
	return max(1, int(minSide(pairSide)/cutoff))
}

// initSearchLattices assigns every SC/FS term its search lattice over
// the extended lattice of dims ext and box extBox: the pair lattice,
// or one shared sub-cell lattice per distinct k with anchor lists in
// lattice order, split by the parent pair cell's interior bounds.
func (r *rankState) initSearchLattices(ext geom.IVec3, extBox geom.Box) {
	pair := &searchLattice{k: 1, lat: r.extLat, bin: r.bin, interior: r.interiorCells, boundary: r.boundaryCells}
	r.termLat = r.termLat[:0]
	r.fine = r.fine[:0]
	for _, term := range r.model.Terms {
		k := subCells(r.dec.Lat.Side, term.Cutoff())
		if k == 1 {
			r.termLat = append(r.termLat, pair)
			continue
		}
		var sl *searchLattice
		for _, f := range r.fine {
			if f.k == k {
				sl = f
			}
		}
		if sl == nil {
			sl = r.newFineLattice(k, ext, extBox)
			r.fine = append(r.fine, sl)
		}
		r.termLat = append(r.termLat, sl)
	}
}

// newFineLattice builds the k-fold sub-cell lattice of the extended
// lattice and its interior/boundary anchor lists.
func (r *rankState) newFineLattice(k int, ext geom.IVec3, extBox geom.Box) *searchLattice {
	lat, _ := cell.NewLatticeDims(extBox, ext.Scale(k)) // ext is ≥ 1 per axis
	sl := &searchLattice{k: k, lat: lat, bin: cell.NewBinning(lat, nil)}
	lo := geom.IV(r.mLo, r.mLo, r.mLo).Scale(k)
	hi := lo.Add(r.hi.Sub(r.lo).Scale(k))
	in, ih := r.plan.InteriorLo, r.plan.InteriorHi
	for x := lo.X; x < hi.X; x++ {
		for y := lo.Y; y < hi.Y; y++ {
			for z := lo.Z; z < hi.Z; z++ {
				c := geom.IV(x, y, z)
				if x/k >= in.X && x/k < ih.X && y/k >= in.Y && y/k < ih.Y && z/k >= in.Z && z/k < ih.Z {
					sl.interior = append(sl.interior, c)
				} else {
					sl.boundary = append(sl.boundary, c)
				}
			}
		}
	}
	return sl
}

// rebinFine refreshes a sub-cell lattice's keyed CSR binning. Each
// atom's sub-cell is taken from its local position relative to its own
// extended pair cell and clamped into [0, k), so it always nests in
// the integer pair cell every rank agrees on: ranks may disagree by an
// ulp about a halo atom's sub-cell, but never about its pair cell, and
// the pair cells alone decide which rank anchors a tuple (DESIGN.md
// §5.17).
func (r *rankState) rebinFine(sl *searchLattice) {
	n := len(r.ecell)
	if cap(sl.cells) < n {
		// Headroom: the halo count fluctuates with thermal motion.
		sl.cells = make([]int32, n+n/8)
	}
	sl.cells = sl.cells[:n]
	side := r.dec.Lat.Side
	k := sl.k
	fk := float64(k)
	for i, ec := range r.ecell {
		lp := r.lpos[i]
		f := geom.IV(
			ec.X*k+subIndex(lp.X-float64(ec.X)*side.X, fk/side.X, k),
			ec.Y*k+subIndex(lp.Y-float64(ec.Y)*side.Y, fk/side.Y, k),
			ec.Z*k+subIndex(lp.Z-float64(ec.Z)*side.Z, fk/side.Z, k),
		)
		sl.cells[i] = int32(sl.lat.Linear(f))
	}
	sl.bin.RebinCellsKeyed(sl.cells, r.ids)
}

// subIndex is the sub-cell index of an offset rel into its pair cell,
// clamped into [0, k) against rounding at the cell faces.
func subIndex(rel, perSide float64, k int) int {
	s := int(rel * perSide)
	if s >= k {
		return k - 1
	}
	if s < 0 {
		return 0
	}
	return s
}

// buildEnumerators (re)builds the per-worker SC/FS tuple enumerators,
// which bind the current search lattices and search at r_cut + skin.
// The evaluation closures read them through r.enums at call time, so a
// rebuild after repartition needs no closure work. Hybrid ranks fill
// their list rows directly and build none.
func (r *rankState) buildEnumerators() error {
	if r.scheme == SchemeHybrid {
		return nil
	}
	fam := md.FamilySC
	if r.scheme == SchemeFS {
		fam = md.FamilyFS
	}
	if r.enums == nil {
		r.enums = make([][]*tuple.Enumerator, r.workers)
	}
	for w := 0; w < r.workers; w++ {
		set := r.enums[w][:0]
		for ti, term := range r.model.Terms {
			sp, err := familyPattern(fam, term.N())
			if err != nil {
				return fmt.Errorf("parmd: %w", err)
			}
			en, err := tuple.NewBoundedEnumerator(r.termLat[ti].bin, sp.pat, term.Cutoff()+r.skin, sp.dedup)
			if err != nil {
				return fmt.Errorf("parmd: term n=%d: %w", term.N(), err)
			}
			set = append(set, en)
		}
		r.enums[w] = set
	}
	return nil
}

// searchPattern is one memoized SC/FS pattern with the reflection
// policy tuple.DedupAuto resolves it to.
type searchPattern struct {
	pat   *core.Pattern
	dedup tuple.Dedup
}

// searchPatterns memoizes familyPattern, keyed by [family, n].
var searchPatterns sync.Map

// familyPattern returns a family's n-body pattern and its reflection
// policy, generating each once per process: generating SC(3) and
// resolving its policy costs milliseconds, every rank of every run
// needs the same patterns, and enumerators only read them.
func familyPattern(fam md.Family, n int) (searchPattern, error) {
	key := [2]int{int(fam), n}
	if v, ok := searchPatterns.Load(key); ok {
		return v.(searchPattern), nil
	}
	pat, err := fam.Pattern(n)
	if err != nil {
		return searchPattern{}, err
	}
	sp := searchPattern{pat: pat, dedup: tuple.DedupCanonical}
	if pat.RedundancyCount() == 0 {
		sp.dedup = tuple.DedupPalindromic
	}
	v, _ := searchPatterns.LoadOrStore(key, sp)
	return v.(searchPattern), nil
}

func minSide(v geom.Vec3) float64 {
	m := v.X
	if v.Y < m {
		m = v.Y
	}
	if v.Z < m {
		m = v.Z
	}
	return m
}

// adopt takes ownership of the atoms of a global configuration that
// fall in this rank's block. IDs are the configuration indices.
func (r *rankState) adopt(cfg *workload.Config) {
	for i, g := range cfg.Pos {
		gc := r.dec.Lat.CellOf(g)
		if r.ownsCell(gc) {
			r.ids = append(r.ids, int64(i))
			r.gpos = append(r.gpos, g)
			r.gcell = append(r.gcell, gc)
			r.vel = append(r.vel, cfg.Vel[i])
			r.species = append(r.species, cfg.Species[i])
		}
	}
	r.nOwned = len(r.ids)
	r.force = make([]geom.Vec3, r.nOwned)
	r.hops = make([]int8, 0, r.nOwned+r.nOwned/4)
	r.stats.OwnedAtoms = r.nOwned
}

// ownsCell reports whether a global cell is in this rank's block.
func (r *rankState) ownsCell(gc geom.IVec3) bool {
	return gc.X >= r.lo.X && gc.X < r.hi.X &&
		gc.Y >= r.lo.Y && gc.Y < r.hi.Y &&
		gc.Z >= r.lo.Z && gc.Z < r.hi.Z
}

// dropHalo truncates the atom arrays back to owned atoms only.
func (r *rankState) dropHalo() {
	r.ids = r.ids[:r.nOwned]
	r.gpos = r.gpos[:r.nOwned]
	r.gcell = r.gcell[:r.nOwned]
	r.vel = r.vel[:r.nOwned]
	r.species = r.species[:r.nOwned]
	r.force = r.force[:r.nOwned]
	r.ecell = r.ecell[:0]
	r.lpos = r.lpos[:0]
}

// deriveOwned recomputes the extended-lattice cell and local position
// of every owned atom from its owner-assigned global cell. Exact
// integer arithmetic on cells keeps rank-local binning consistent with
// the global decomposition even for atoms exactly on cell boundaries.
func (r *rankState) deriveOwned() {
	r.ecell = r.ecell[:0]
	r.lpos = r.lpos[:0]
	for i := 0; i < r.nOwned; i++ {
		ec := r.gcell[i].Sub(r.base)
		r.ecell = append(r.ecell, ec)
		r.lpos = append(r.lpos, r.localPos(r.gpos[i], 0, 0, 0))
	}
}

// localPos maps a wrapped global position into this rank's local
// frame, with kx, ky, kz the per-axis periodic image shifts (in box
// lengths) needed for halo copies.
func (r *rankState) localPos(g geom.Vec3, kx, ky, kz int) geom.Vec3 {
	L := r.dec.Lat.Box.L
	s := r.dec.Lat.Side
	return geom.V(
		g.X+float64(kx)*L.X-float64(r.base.X)*s.X,
		g.Y+float64(ky)*L.Y-float64(r.base.Y)*s.Y,
		g.Z+float64(kz)*L.Z-float64(r.base.Z)*s.Z,
	)
}

// rebin refreshes the span binning from the current ecell assignment,
// then every sub-cell lattice's keyed CSR binning. The owned segment is
// in canonical (cell, ID) order and every halo phase appends whole
// per-cell runs, so the storage is cell-run contiguous — the layout
// RebinSpans requires (and verifies).
func (r *rankState) rebin() error {
	if cap(r.lcell) < len(r.ecell) {
		// Headroom: the halo count fluctuates with thermal motion; an
		// exact fit would reallocate at every new high-water mark.
		r.lcell = make([]int32, len(r.ecell)+len(r.ecell)/8)
	}
	r.lcell = r.lcell[:len(r.ecell)]
	for i, ec := range r.ecell {
		r.lcell[i] = int32(r.extLat.Linear(ec))
	}
	if err := r.bin.RebinSpans(r.lcell); err != nil {
		return err
	}
	for _, sl := range r.fine {
		r.rebinFine(sl)
	}
	return nil
}

// canonicalizeOwned re-sorts the owned segment into (extended-lattice
// cell, global ID) order — the canonical layout that makes per-cell
// storage contiguous. Already-ordered storage (every step a solid
// takes, except right after a migration) is detected in O(n) and left
// untouched; a real sort permutes all owned arrays through reused
// scratch, so steady-state steps allocate nothing either way.
func (r *rankState) canonicalizeOwned() {
	n := r.nOwned
	if cap(r.lcell) < n {
		r.lcell = make([]int32, n+n/8)
	}
	lc := r.lcell[:n]
	for i := 0; i < n; i++ {
		lc[i] = int32(r.extLat.Linear(r.ecell[i]))
	}
	if cell.Ordered(lc, r.ids[:n]) {
		return
	}
	perm := r.sorter.Plan(r.extLat.NumCells(), lc, r.ids[:n])
	permuteWith(&r.sortI64, r.ids, perm)
	permuteWith(&r.sortV3, r.gpos, perm)
	permuteWith(&r.sortIV, r.gcell, perm)
	permuteWith(&r.sortV3, r.vel, perm)
	permuteWith(&r.sortI32, r.species, perm)
	permuteWith(&r.sortV3, r.force, perm)
	permuteWith(&r.sortIV, r.ecell, perm)
	permuteWith(&r.sortV3, r.lpos, perm)
	r.idOrderStale = true
}

// permuteWith applies dst[k] = dst[perm[k]] over the first len(perm)
// elements, staging through the reusable scratch so the backing array
// (which visitors and captured slice headers may alias) stays put.
func permuteWith[T any](scratch *[]T, arr []T, perm []int32) {
	n := len(perm)
	if cap(*scratch) < n {
		// Headroom: n tracks the owned count, which fluctuates under
		// migration; an exact fit would reallocate at every new
		// high-water mark.
		*scratch = make([]T, n+n/8)
	}
	s := (*scratch)[:n]
	copy(s, arr[:n])
	cell.Permute(arr[:n], s, perm)
}

// ensureIDOrder rebuilds the owned-slot-by-ID-rank walk order if a
// migration or re-sort invalidated it. Hybrid evaluation is the only
// consumer; on steady-state steps this is two comparisons.
func (r *rankState) ensureIDOrder() {
	if !r.idOrderStale && len(r.idOrder) == r.nOwned {
		return
	}
	if cap(r.idOrder) < r.nOwned {
		r.idOrder = make([]int32, r.nOwned+r.nOwned/8)
	}
	r.idOrder = r.idOrder[:r.nOwned]
	for i := range r.idOrder {
		r.idOrder[i] = int32(i)
	}
	slices.SortFunc(r.idOrder, r.idCmp)
	r.idOrderStale = false
}
