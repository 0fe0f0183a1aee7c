package dist

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/kernel"
	"stencilsched/internal/scratch"
	"stencilsched/internal/variants"
)

// maxRetainedStateBytes is the largest rank arena statePool keeps for
// the next solve. A rank of the paper's small-box regime (four 16^3
// boxes at halo 4) reserves about 9 MiB, so the cap leaves room for
// ranks several times that size while a process that once ran a huge
// solve does not pin that solve's state until it exits.
const maxRetainedStateBytes = 64 << 20

// statePool lends every running rank one arena for its deep-halo FABs,
// accumulators and pack buffer. It is kept apart from scratch.Default,
// whose arenas hold a worker's temporaries of one box: a rank's
// reservation is one to two orders larger, and sharing the free list
// would inflate every executor arena it was handed to.
var statePool = scratch.NewCappedPool(maxRetainedStateBytes)

// StatePoolStats reports the rank runtime's state pool, for metrics.
func StatePoolStats() scratch.PoolStats { return statePool.Stats() }

// runner executes one rank's share of the level.
type runner struct {
	cfg  Config
	plan *Plan
	rank int
	rp   *RankPlan
	tr   Transport

	// By box index, nil for boxes of other ranks: the deep-ghosted
	// solution FABs, and the divergence accumulators, sized for
	// sub-step 0. Both live in the rank's arena.
	fabs []*fab.FAB
	accs []*fab.FAB

	// The fused update of the current sub-step, by position in
	// rp.Boxes: the region each box updates and how many of its pieces
	// are still to be swept. pieces names the boxes of the states
	// execPieces hands to the schedule.
	regs   []box.Box
	left   []atomic.Int32
	pieces []pieceRef
	states []variants.State
	doneFn variants.Epilogue

	pending    map[pendKey]Frame
	pendingCap int
	packBuf    []float64

	stats Stats
}

type pendKey struct {
	step   uint32
	motion uint32
}

// RunRank executes the whole solve for the transport's rank against an
// already-built plan. It performs one deep ghost exchange per superstep
// (send, local copies, receive — with the receive overlapped against
// interior compute), then HaloK explicit update sub-steps over shrinking
// regions. The rank's state comes from a pooled arena that the result
// holds until its Release. Any failure is returned as a *RankError; by
// the time RunRank returns, no goroutine it started is left running and
// a failed rank's arena is back in the pool.
func RunRank(ctx context.Context, cfg Config, plan *Plan, tr Transport) (*RankResult, error) {
	rank := tr.Rank()
	if rank < 0 || rank >= len(plan.Ranks) {
		return nil, fmt.Errorf("dist: rank %d outside plan of %d ranks", rank, len(plan.Ranks))
	}
	r := &runner{
		cfg:  cfg,
		plan: plan,
		rank: rank,
		rp:   &plan.Ranks[rank],
		tr:   tr,
	}
	r.pending = map[pendKey]Frame{}
	r.pendingCap = 2*len(r.rp.Recvs) + 16
	r.regs = make([]box.Box, len(r.rp.Boxes))
	r.left = make([]atomic.Int32, len(r.rp.Boxes))
	r.doneFn = r.pieceDone
	ar := r.reserve()

	super := 0
	for step0 := 0; step0 < cfg.Steps; step0 += plan.HaloK {
		k := plan.HaloK
		if rem := cfg.Steps - step0; rem < k {
			k = rem
		}
		err := ctx.Err()
		if err != nil {
			err = &RankError{Rank: rank, Peer: -1, Step: super, Op: "step", Err: err}
		} else {
			err = r.superstep(ctx, super, k)
		}
		if err != nil {
			// superstep joined its receiver: nothing writes to the
			// arena any more.
			statePool.Checkin(ar)
			return nil, err
		}
		r.stats.Supersteps++
		super++
	}

	res := &RankResult{Rank: rank, Boxes: r.rp.Boxes, Stats: r.stats, arena: ar}
	for _, bi := range r.rp.Boxes {
		res.Fabs = append(res.Fabs, r.fabs[bi])
	}
	return res, nil
}

// reserve carves the rank's state out of one statePool arena, in one
// reservation: each owned box's deep-halo FAB and accumulator, then the
// pack buffer, sized for the largest send. Arena storage is recycled,
// not zeroed, so it zeroes only what the run reads before writing: the
// valid region when cfg.Init is nil, and the ghost cells beyond a
// non-periodic boundary, which stay zero exactly as layout.LevelData
// leaves them. Every other ghost cell lies in a motion's region, filled
// by the exchange that opens each superstep, and every piece zeroes its
// region of the accumulator before sweeping into it.
func (r *runner) reserve() *scratch.Arena {
	l := r.plan.Layout
	r.fabs = make([]*fab.FAB, l.NumBoxes())
	r.accs = make([]*fab.FAB, l.NumBoxes())
	fabBox := func(bi int) box.Box { return l.Boxes[bi].Grow(r.plan.Depth) }
	accBox := func(bi int) box.Box {
		return r.clipNonPeriodic(l.Boxes[bi].Grow((r.plan.HaloK - 1) * kernel.NGhost))
	}
	total, pack := 0, 0
	for _, bi := range r.rp.Boxes {
		total += (fabBox(bi).NumPts() + accBox(bi).NumPts()) * kernel.NComp
	}
	for _, snd := range r.rp.Sends {
		pack = max(pack, snd.Region.NumPts()*kernel.NComp)
	}
	ar := statePool.Checkout()
	buf := ar.Floats(total + pack)
	take := func(b box.Box, f *fab.FAB) {
		n := b.NumPts() * kernel.NComp
		f.Adopt(buf[:n:n], b, kernel.NComp)
		buf = buf[n:]
	}
	hdrs := make([]fab.FAB, 2*len(r.rp.Boxes))
	for i, bi := range r.rp.Boxes {
		f, acc := &hdrs[2*i], &hdrs[2*i+1]
		take(fabBox(bi), f)
		take(accBox(bi), acc)
		if b := l.Boxes[bi]; r.cfg.Init != nil {
			f.FillRows(b, r.cfg.Init)
		} else {
			f.Zero(b)
		}
		r.zeroBeyondWalls(f)
		r.fabs[bi], r.accs[bi] = f, acc
	}
	r.packBuf = buf[:0:pack]
	return ar
}

// zeroBeyondWalls zeroes f's cells beyond the domain in non-periodic
// directions: no motion reaches them.
func (r *runner) zeroBeyondWalls(f *fab.FAB) {
	dom, fb := r.plan.Layout.Domain, f.Box()
	for d := 0; d < 3; d++ {
		if r.plan.Layout.Periodic[d] {
			continue
		}
		if fb.Lo[d] < dom.Lo[d] {
			lo := fb
			lo.Hi[d] = dom.Lo[d] - 1
			f.Zero(lo)
		}
		if fb.Hi[d] > dom.Hi[d] {
			hi := fb
			hi.Lo[d] = dom.Hi[d] + 1
			f.Zero(hi)
		}
	}
}

// clipNonPeriodic clamps r to the domain in non-periodic directions
// only: periodic directions compute in image coordinates (the image of
// a wrapped cell gets bit-identical updates to its domain counterpart),
// while beyond a physical boundary there is nothing to compute.
func (r *runner) clipNonPeriodic(b box.Box) box.Box {
	dom := r.plan.Layout.Domain
	for d := 0; d < 3; d++ {
		if r.plan.Layout.Periodic[d] {
			continue
		}
		if b.Lo[d] < dom.Lo[d] {
			b.Lo[d] = dom.Lo[d]
		}
		if b.Hi[d] > dom.Hi[d] {
			b.Hi[d] = dom.Hi[d]
		}
	}
	return b
}

// region returns the compute region of sub-step j (0-based) of a
// k-sub-step superstep for owned box b: the valid box grown by the halo
// budget left after the remaining sub-steps, domain-clipped only in
// non-periodic directions.
func (r *runner) region(b box.Box, j, k int) box.Box {
	return r.clipNonPeriodic(b.Grow((k - 1 - j) * kernel.NGhost))
}

func (r *runner) hook(super int, phase string) error {
	if r.cfg.Hook == nil {
		return nil
	}
	if err := r.cfg.Hook(r.rank, super, phase); err != nil {
		return &RankError{Rank: r.rank, Peer: -1, Step: super, Op: "hook(" + phase + ")", Err: err}
	}
	return nil
}

// superstep runs one exchange plus k update sub-steps.
func (r *runner) superstep(ctx context.Context, super, k int) error {
	if err := r.hook(super, "exchange"); err != nil {
		return err
	}
	if err := r.sendAll(ctx, super); err != nil {
		return err
	}
	for _, lc := range r.rp.Local {
		r.fabs[lc.DstBox].CopyFromShifted(r.fabs[lc.SrcBox], lc.Region, lc.Shift, 0, 0, kernel.NComp)
		r.stats.LocalCopies++
	}

	// Receive overlapped with interior compute: remote frames write only
	// ghost cells beyond a box's remote faces, and the interior — the
	// sub-step-0 region pulled one stencil radius inside the valid box on
	// those faces only — reads none of them, so the two touch disjoint
	// memory. The boundary shell, the slabs along the remote faces, waits
	// for the exchange to finish.
	recvStart := time.Now()
	recvDone := make(chan error, 1)
	go func() { recvDone <- r.recvAll(ctx, super) }()

	var interiors, shells []pieceRef
	for pos, bi := range r.rp.Boxes {
		b := r.plan.Layout.Boxes[bi]
		reg := r.region(b, 0, k)
		r.regs[pos] = reg
		interior := interiorOf(b, reg, r.plan.RemoteFaces[bi])
		if interior.IsEmpty() {
			shells = append(shells, pieceRef{pos, reg})
			continue
		}
		interiors = append(interiors, pieceRef{pos, interior})
		shells = append(shells, shellPieces(reg, interior, pos)...)
	}
	// A box's update waits for its last piece: until then its other
	// pieces still read the state around it. A box with no remote face
	// is all interior and updates before the exchange lands; no frame
	// writes into it.
	for _, pc := range interiors {
		r.left[pc.pos].Add(1)
	}
	for _, pc := range shells {
		r.left[pc.pos].Add(1)
	}

	computeStart := time.Now()
	ierr := r.hook(super, "substep")
	if ierr == nil {
		r.execPieces(interiors)
	}
	interiorDur := time.Since(computeStart)

	// Always join the receiver before touching the boundary (or
	// returning): no goroutine may outlive the superstep.
	waitStart := time.Now()
	rerr := <-recvDone
	waitDur := time.Since(waitStart)
	recvDur := time.Since(recvStart)
	r.stats.ExchangeSec += recvDur.Seconds()
	if hidden := recvDur - waitDur; hidden > 0 {
		r.stats.ExchangeHiddenSec += hidden.Seconds()
	}
	if ierr != nil {
		return ierr
	}
	if rerr != nil {
		return rerr
	}

	t0 := time.Now()
	r.execPieces(shells)
	r.countRecomputed()
	r.stats.ComputeSec += interiorDur.Seconds() + time.Since(t0).Seconds()

	// Remaining sub-steps run on halo data alone, each on a region one
	// stencil radius smaller — the recomputation that deep halos trade
	// for messages. Each box is one piece: zero, sweep and update back
	// to back.
	for j := 1; j < k; j++ {
		if err := r.hook(super, "substep"); err != nil {
			return err
		}
		t0 := time.Now()
		pieces := make([]pieceRef, len(r.rp.Boxes))
		for pos, bi := range r.rp.Boxes {
			r.regs[pos] = r.region(r.plan.Layout.Boxes[bi], j, k)
			r.left[pos].Store(1)
			pieces[pos] = pieceRef{pos, r.regs[pos]}
		}
		r.execPieces(pieces)
		r.countRecomputed()
		r.stats.ComputeSec += time.Since(t0).Seconds()
	}
	return nil
}

// countRecomputed adds the cells the current sub-step updated beyond
// the valid boxes.
func (r *runner) countRecomputed() {
	for pos, bi := range r.rp.Boxes {
		r.stats.RecomputedCells += int64(r.regs[pos].NumPts() - r.plan.Layout.Boxes[bi].NumPts())
	}
}

// interiorOf returns the part of region reg of valid box b that can be
// computed before the exchange lands: reg clamped to one stencil radius
// inside b on the remote faces, untouched on the others. Its stencil
// reach, interiorOf(...).Grow(kernel.NGhost), stays inside b across every
// remote face, and every remote region lies wholly beyond one of them.
// With all six faces remote this is b.Grow(-kernel.NGhost); with none, it
// is reg and the shell is empty.
func interiorOf(b, reg box.Box, remote FaceSet) box.Box {
	in := reg
	for d := 0; d < 3; d++ {
		if remote.Has(d, 0) {
			in.Lo[d] = max(in.Lo[d], b.Lo[d]+kernel.NGhost)
		}
		if remote.Has(d, 1) {
			in.Hi[d] = min(in.Hi[d], b.Hi[d]-kernel.NGhost)
		}
	}
	return in
}

// pieceRef names one compute region of one owned box, by the box's
// position in the rank's box list.
type pieceRef struct {
	pos    int
	region box.Box
}

// execPieces runs the configured variant over the pieces, each sweeping
// into its box's accumulator, zeroed over the piece first. Pieces of the
// same box share the accumulator on disjoint regions, so P>=Box families may
// execute them concurrently; every registered schedule is bitwise
// partition-invariant (the conformance sweep's differential property),
// so the split does not change a single output bit.
func (r *runner) execPieces(pieces []pieceRef) {
	if len(pieces) == 0 {
		return
	}
	r.states = r.states[:0]
	for _, pc := range pieces {
		bi := r.rp.Boxes[pc.pos]
		r.states = append(r.states, variants.State{Valid: pc.region, Phi0: r.fabs[bi], Phi1: r.accs[bi]})
	}
	r.pieces = pieces
	variants.ExecLevelThen(r.cfg.Variant, r.states, r.cfg.Threads, r.doneFn)
}

// pieceDone is the epilogue of piece i, whose divergence is in div: the
// box's last piece to finish applies the box's Euler update, S +=
// (-dt)·D, over the region its sub-step computed, while D is still
// warm. div is the box's accumulator, which then holds all of D.
func (r *runner) pieceDone(i int, div *fab.FAB) {
	pos := r.pieces[i].pos
	if r.left[pos].Add(-1) == 0 {
		bi := r.rp.Boxes[pos]
		kernel.Axpy(r.regs[pos], div, kernel.Term{Dst: r.fabs[bi], X: r.fabs[bi], A: -r.cfg.Dt})
	}
}

// shellPieces decomposes outer minus inner into up to six disjoint
// slabs (z-low, z-high, then y-low/y-high, then x-low/x-high), the
// boundary-shell work list computed after the exchange lands.
func shellPieces(outer, inner box.Box, pos int) []pieceRef {
	inner = inner.Intersect(outer)
	if inner.IsEmpty() {
		return []pieceRef{{pos, outer}}
	}
	var out []pieceRef
	add := func(b box.Box) {
		if !b.IsEmpty() {
			out = append(out, pieceRef{pos, b})
		}
	}
	rest := outer
	for d := 2; d >= 1; d-- {
		lo := rest
		lo.Hi[d] = inner.Lo[d] - 1
		add(lo)
		hi := rest
		hi.Lo[d] = inner.Hi[d] + 1
		add(hi)
		rest.Lo[d], rest.Hi[d] = inner.Lo[d], inner.Hi[d]
	}
	lo := rest
	lo.Hi[0] = inner.Lo[0] - 1
	add(lo)
	hi := rest
	hi.Lo[0] = inner.Hi[0] + 1
	add(hi)
	return out
}

// sendAll packs and ships every outgoing motion, retrying transient
// backpressure with bounded exponential backoff.
func (r *runner) sendAll(ctx context.Context, super int) error {
	for _, snd := range r.rp.Sends {
		r.packBuf = packRegion(r.fabs[snd.SrcBox], snd.Region, snd.Shift, r.packBuf)
		f := Frame{Type: TypeData, Rank: uint16(r.rank), Step: uint32(super), Motion: snd.Motion, Data: r.packBuf}
		var err error
		for attempt := 0; ; attempt++ {
			err = r.tr.Send(ctx, snd.To, &f)
			if err == nil || !errors.Is(err, ErrBackpressure) || attempt >= maxRetries {
				break
			}
			r.stats.Retries++
			backoff := retryBackoff << uint(attempt)
			select {
			case <-ctx.Done():
				err = ctx.Err()
			case <-time.After(backoff):
				continue
			}
			break
		}
		if err != nil {
			return &RankError{Rank: r.rank, Peer: snd.To, Step: super, Op: "send", Err: err}
		}
		r.stats.MessagesSent++
		r.stats.BytesSent += int64(EncodedSize(len(f.Data)))
	}
	return nil
}

// recvAll collects this superstep's expected frames under the exchange
// deadline, buffering early frames from peers already a superstep ahead
// and rejecting anything the plan does not predict.
func (r *runner) recvAll(ctx context.Context, super int) error {
	need := len(r.rp.Recvs)
	if need == 0 {
		return nil
	}
	seen := make([]bool, need)
	got := 0
	for key, f := range r.pending {
		if key.step == uint32(super) {
			delete(r.pending, key)
			if err := r.applyFrame(super, f, seen, &got); err != nil {
				return err
			}
		}
	}
	rctx, cancel := context.WithTimeout(ctx, r.cfg.exchangeTimeout())
	defer cancel()
	for got < need {
		f, err := r.tr.Recv(rctx)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
				return &RankError{Rank: r.rank, Peer: r.missingPeer(seen), Step: super, Op: "recv", Err: ErrTimeout}
			}
			return &RankError{Rank: r.rank, Peer: r.missingPeer(seen), Step: super, Op: "recv", Err: err}
		}
		switch {
		case f.Type != TypeData:
			return &RankError{Rank: r.rank, Peer: int(f.Rank), Step: super, Op: "recv",
				Err: fmt.Errorf("%w: unexpected frame type %d mid-run", ErrProtocol, f.Type)}
		case f.Step == uint32(super):
			if err := r.applyFrame(super, f, seen, &got); err != nil {
				return err
			}
		case f.Step > uint32(super):
			// A neighbor that already has everything it needs may run
			// one superstep ahead and send early; park its frames. The
			// transport reuses f.Data from the next Recv on, so the
			// parked frame keeps a copy.
			if len(r.pending) >= r.pendingCap {
				return &RankError{Rank: r.rank, Peer: int(f.Rank), Step: super, Op: "recv",
					Err: fmt.Errorf("%w: %d buffered future frames (peer %d is at superstep %d)",
						ErrProtocol, len(r.pending), f.Rank, f.Step)}
			}
			f.Data = slices.Clone(f.Data)
			r.pending[pendKey{f.Step, f.Motion}] = f
		default:
			return &RankError{Rank: r.rank, Peer: int(f.Rank), Step: super, Op: "recv",
				Err: fmt.Errorf("%w: stale frame for superstep %d while at %d", ErrProtocol, f.Step, super)}
		}
	}
	return nil
}

func (r *runner) applyFrame(super int, f Frame, seen []bool, got *int) error {
	idx, ok := r.rp.recvIndex[f.Motion]
	if !ok {
		return &RankError{Rank: r.rank, Peer: int(f.Rank), Step: super, Op: "recv",
			Err: fmt.Errorf("%w: unknown motion %d", ErrProtocol, f.Motion)}
	}
	rc := r.rp.Recvs[idx]
	if rc.From != int(f.Rank) {
		return &RankError{Rank: r.rank, Peer: int(f.Rank), Step: super, Op: "recv",
			Err: fmt.Errorf("%w: motion %d belongs to rank %d, sent by rank %d", ErrProtocol, f.Motion, rc.From, f.Rank)}
	}
	if seen[idx] {
		return &RankError{Rank: r.rank, Peer: rc.From, Step: super, Op: "recv",
			Err: fmt.Errorf("%w: duplicate motion %d", ErrProtocol, f.Motion)}
	}
	if err := unpackRegion(r.fabs[rc.DstBox], rc.Region, f.Data); err != nil {
		return &RankError{Rank: r.rank, Peer: rc.From, Step: super, Op: "recv", Err: err}
	}
	seen[idx] = true
	*got++
	r.stats.MessagesRecv++
	r.stats.BytesRecv += int64(EncodedSize(len(f.Data)))
	return nil
}

// missingPeer names the first peer whose frames are still outstanding.
func (r *runner) missingPeer(seen []bool) int {
	for i, s := range seen {
		if !s {
			return r.rp.Recvs[i].From
		}
	}
	return -1
}
