package dist

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"

	"stencilsched/internal/box"
	"stencilsched/internal/cluster"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/layout"
	"stencilsched/internal/sched"
)

const testDt = 1.0 / 64

// testField is a deterministic splitmix-style point hash in [0.25, 1.75].
func testField(seed int64) func(p ivect.IntVect, c int) float64 {
	return func(p ivect.IntVect, c int) float64 {
		h := uint64(seed) ^ 0x9e3779b97f4a7c15
		for _, v := range [4]int{p[0], p[1], p[2], c} {
			h ^= uint64(int64(v))
			h *= 0xbf58476d1ce4e5b9
			h ^= h >> 27
		}
		h *= 0x94d049bb133111eb
		h ^= h >> 31
		return 0.25 + 1.5*float64(h>>11)/float64(1<<53)
	}
}

func testLayout(t *testing.T, edge, boxN int, periodic [3]bool) *layout.Layout {
	t.Helper()
	l, err := layout.Decompose(box.Cube(edge), boxN, periodic)
	if err != nil {
		t.Fatalf("decompose: %v", err)
	}
	return l
}

// oracleAdvance advances the level with the standard single-process
// per-step exchange and the reference kernel — the ground truth every
// distributed run must match bitwise.
func oracleAdvance(l *layout.Layout, field func(ivect.IntVect, int) float64, steps int) *layout.LevelData {
	ld := layout.NewLevelData(l, kernel.NComp, kernel.NGhost)
	ld.FillFromFunction(1, field)
	acc := make([]*fab.FAB, len(l.Boxes))
	for i, b := range l.Boxes {
		acc[i] = fab.New(b, kernel.NComp)
	}
	for s := 0; s < steps; s++ {
		ld.Exchange(1)
		for i, b := range l.Boxes {
			acc[i].Fill(0)
			kernel.Reference(ld.Fabs[i], acc[i], b)
			ld.Fabs[i].Plus(acc[i], b, -testDt)
		}
	}
	return ld
}

func mustVariant(t *testing.T, name string) sched.Variant {
	t.Helper()
	v, err := sched.ByName(name)
	if err != nil {
		t.Fatalf("variant %q: %v", name, err)
	}
	return v
}

func assertMatchesOracle(t *testing.T, res *Result, ld *layout.LevelData, label string) {
	t.Helper()
	for i, b := range ld.Layout.Boxes {
		if d, at, c := res.Fabs[i].MaxDiff(ld.Fabs[i], b); d != 0 {
			t.Fatalf("%s: box %d differs from oracle by %g at %v comp %d", label, i, d, at, c)
		}
	}
}

func TestPlanPairsSendsAndRecvs(t *testing.T) {
	l := testLayout(t, 12, 4, [3]bool{true, true, false})
	a, err := cluster.Assign(l, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(l, a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Depth != 2*kernel.NGhost {
		t.Fatalf("depth %d", p.Depth)
	}
	sends := map[uint32]Send{}
	nsend := 0
	for _, rp := range p.Ranks {
		for _, s := range rp.Sends {
			if _, dup := sends[s.Motion]; dup {
				t.Fatalf("motion %d sent twice", s.Motion)
			}
			sends[s.Motion] = s
			nsend++
		}
	}
	nrecv := 0
	for _, rp := range p.Ranks {
		for _, rc := range rp.Recvs {
			s, ok := sends[rc.Motion]
			if !ok {
				t.Fatalf("recv motion %d has no send", rc.Motion)
			}
			if s.To != rp.Rank {
				t.Fatalf("motion %d sent to rank %d but expected by rank %d", rc.Motion, s.To, rp.Rank)
			}
			if a.Of[s.SrcBox] != rc.From {
				t.Fatalf("motion %d: src box owner %d, recv expects %d", rc.Motion, a.Of[s.SrcBox], rc.From)
			}
			if !s.Region.Equal(rc.Region) {
				t.Fatalf("motion %d: send region %v != recv region %v", rc.Motion, s.Region, rc.Region)
			}
			if n := rc.Region.NumPts() * kernel.NComp; n > p.MaxFrameValues {
				t.Fatalf("region %v larger than MaxFrameValues %d", rc.Region, p.MaxFrameValues)
			}
			nrecv++
		}
	}
	if nsend != nrecv || nsend == 0 {
		t.Fatalf("%d sends vs %d recvs", nsend, nrecv)
	}
	// The remote split must agree with the cluster model's accounting.
	st := cluster.Analyze(layout.NewCopier(l, p.Depth), a, kernel.NComp)
	if st.Messages != nsend {
		t.Fatalf("plan has %d remote motions, cluster.Analyze says %d", nsend, st.Messages)
	}
}

func TestPlanRejectsInfeasibleHalo(t *testing.T) {
	l := testLayout(t, 8, 4, [3]bool{true, true, true})
	a, err := cluster.Assign(l, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Depth 5*2 = 10 > periodic extent 8: the copier's single-shift
	// periodic images cannot fill that halo.
	if _, err := NewPlan(l, a, 5); err == nil {
		t.Fatal("expected halo-depth validation error")
	}
	if _, err := NewPlan(l, a, 0); err == nil {
		t.Fatal("expected K >= 1 validation error")
	}
}

func TestShellPiecesPartition(t *testing.T) {
	outer := box.New(ivect.New(-2, -1, 0), ivect.New(9, 8, 7))
	inner := box.New(ivect.New(1, 1, 2), ivect.New(5, 6, 5))
	pieces := shellPieces(outer, inner, 0)
	count := map[ivect.IntVect]int{}
	for _, pc := range pieces {
		if !outer.ContainsBox(pc.region) {
			t.Fatalf("piece %v escapes outer %v", pc.region, outer)
		}
		pc.region.ForEach(func(p ivect.IntVect) { count[p]++ })
	}
	outer.ForEach(func(p ivect.IntVect) {
		want := 1
		if inner.Contains(p) {
			want = 0
		}
		if count[p] != want {
			t.Fatalf("point %v covered %d times, want %d", p, count[p], want)
		}
	})
}

// TestDistInteriorDisjointFromRemote holds the overlap split to the
// invariant that makes it race-free, over even and ragged layouts, 1-4
// ranks, halo depths 1-4, every periodic/non-periodic axis mix, and
// chunked and shuffled assignments: in every superstep shape (k = 1..K
// sub-steps) each box's interior lies inside its sub-step-0 region, and
// the interior's stencil reach misses every remote Recv region of the
// box. It then pins the win on the small-box benchmark's layout (32^3
// in 16^3 boxes, 2 ranks, periodic): only the z faces are remote, so the
// interior keeps the region's whole x and y extent.
func TestDistInteriorDisjointFromRemote(t *testing.T) {
	rnd := rand.New(rand.NewSource(37))
	for _, g := range []struct{ edge, boxN int }{{16, 8}, {20, 8}, {24, 12}, {32, 16}, {40, 16}, {48, 16}} {
		for mix := 0; mix < 8; mix++ {
			periodic := [3]bool{mix&1 != 0, mix&2 != 0, mix&4 != 0}
			l := testLayout(t, g.edge, g.boxN, periodic)
			for ranks := 1; ranks <= 4; ranks++ {
				for _, shuffle := range []bool{false, true} {
					a, err := cluster.Assign(l, ranks)
					if err != nil {
						t.Fatal(err)
					}
					if shuffle {
						rnd.Shuffle(len(a.Of), func(i, j int) { a.Of[i], a.Of[j] = a.Of[j], a.Of[i] })
					}
					for haloK := 1; haloK <= 4; haloK++ {
						p, err := NewPlan(l, a, haloK)
						if err != nil {
							t.Fatal(err)
						}
						forEachInterior(p, func(rp *RankPlan, bi, k int, reg, in box.Box) {
							label := fmt.Sprintf("domain=%d box=%d periodic=%v ranks=%d shuffle=%v K=%d rank=%d box %d k=%d",
								g.edge, g.boxN, periodic, ranks, shuffle, haloK, rp.Rank, bi, k)
							if in.IsEmpty() {
								return
							}
							if !reg.ContainsBox(in) {
								t.Fatalf("%s: interior %v escapes region %v", label, in, reg)
							}
							reach := in.Grow(kernel.NGhost)
							for _, rc := range rp.Recvs {
								if rc.DstBox == bi && reach.Intersects(rc.Region) {
									t.Fatalf("%s: interior %v reads remote region %v (motion %d)", label, in, rc.Region, rc.Motion)
								}
							}
						})
					}
				}
			}
		}
	}

	l := testLayout(t, 32, 16, [3]bool{true, true, true})
	a, err := cluster.Assign(l, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, haloK := range []int{1, 2, 4} {
		p, err := NewPlan(l, a, haloK)
		if err != nil {
			t.Fatal(err)
		}
		forEachInterior(p, func(rp *RankPlan, bi, k int, reg, in box.Box) {
			b := l.Boxes[bi]
			for d := 0; d < 2; d++ {
				if in.Lo[d] != reg.Lo[d] || in.Hi[d] != reg.Hi[d] {
					t.Fatalf("K=%d box %d k=%d: interior %v does not span region %v in dim %d", haloK, bi, k, in, reg, d)
				}
			}
			if in.Lo[2] != b.Lo[2]+kernel.NGhost || in.Hi[2] != b.Hi[2]-kernel.NGhost {
				t.Fatalf("K=%d box %d k=%d: interior %v not held off the remote z faces of %v", haloK, bi, k, in, b)
			}
		})
	}
}

// forEachInterior calls fn with the sub-step-0 region and interior of
// every owned box of p, for every superstep length k = 1..p.HaloK.
func forEachInterior(p *Plan, fn func(rp *RankPlan, bi, k int, reg, in box.Box)) {
	r := &runner{plan: p}
	for ri := range p.Ranks {
		rp := &p.Ranks[ri]
		for _, bi := range rp.Boxes {
			b := p.Layout.Boxes[bi]
			for k := 1; k <= p.HaloK; k++ {
				reg := r.region(b, 0, k)
				fn(rp, bi, k, reg, interiorOf(b, reg, p.RemoteFaces[bi]))
			}
		}
	}
}

// TestDistMatrix is the acceptance matrix: for one variant of each
// schedule family, every rank count in {1,2,4,8} and halo depth in
// {1,2,4}, the distributed run must match the single-level reference
// oracle bit for bit (which also makes all rank counts match each
// other).
func TestDistMatrix(t *testing.T) {
	families := []string{
		"Baseline-CLO: P>=Box",
		"Shift-Fuse-CLI: P<Box",
		"Blocked WF-CLO-8: P<Box",
		"Shift-Fuse OT-8: P>=Box",
	}
	l := testLayout(t, 8, 4, [3]bool{true, true, true})
	field := testField(42)
	const steps = 5
	ld := oracleAdvance(l, field, steps)
	for _, name := range families {
		v := mustVariant(t, name)
		for _, ranks := range []int{1, 2, 4, 8} {
			for _, haloK := range []int{1, 2, 4} {
				label := fmt.Sprintf("%s ranks=%d K=%d", name, ranks, haloK)
				res, err := RunLoopback(context.Background(), Config{
					Layout: l, Ranks: ranks, Variant: v, HaloK: haloK,
					Steps: steps, Dt: testDt, Threads: 2, Init: fab.PointRows(field),
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertMatchesOracle(t, res, ld, label)
				if res.Stats.Supersteps == 0 {
					t.Fatalf("%s: no supersteps accounted", label)
				}
				if ranks > 1 && res.Stats.MessagesSent == 0 {
					t.Fatalf("%s: no remote messages on a multi-rank periodic layout", label)
				}
				if res.Stats.MessagesSent != res.Stats.MessagesRecv {
					t.Fatalf("%s: %d sent vs %d received", label, res.Stats.MessagesSent, res.Stats.MessagesRecv)
				}
			}
		}
	}
}

// TestDistNonPeriodic exercises the domain clipping: regions are
// clipped at physical boundaries only, and untouched boundary ghosts
// stay zero exactly like the oracle's.
func TestDistNonPeriodic(t *testing.T) {
	for _, periodic := range [][3]bool{
		{false, false, false},
		{true, false, true},
	} {
		l := testLayout(t, 8, 4, periodic)
		field := testField(7)
		const steps = 3
		ld := oracleAdvance(l, field, steps)
		for _, haloK := range []int{1, 2} {
			res, err := RunLoopback(context.Background(), Config{
				Layout: l, Ranks: 2, Variant: mustVariant(t, "Shift-Fuse-CLO: P>=Box"),
				HaloK: haloK, Steps: steps, Dt: testDt, Threads: 1, Init: fab.PointRows(field),
			})
			if err != nil {
				t.Fatalf("periodic=%v K=%d: %v", periodic, haloK, err)
			}
			assertMatchesOracle(t, res, ld, fmt.Sprintf("periodic=%v K=%d", periodic, haloK))
		}
	}
}

// TestDistInteriorOverlap runs boxes large enough for a non-empty
// interior, so the overlapped receive path (interior computed while
// frames land) is exercised, and cross-checks it bit for bit against the
// same field on boxes with no interior (BoxN <= 2*NGhost), where every
// box is computed as one shell after the exchange.
func TestDistInteriorOverlap(t *testing.T) {
	l := testLayout(t, 12, 6, [3]bool{true, true, true})
	field := testField(99)
	const steps = 4
	ld := oracleAdvance(l, field, steps)
	base := Config{
		Layout: l, Ranks: 4, Variant: mustVariant(t, "Basic-Sched OT-4: P<Box"),
		HaloK: 2, Steps: steps, Dt: testDt, Threads: 2, Init: fab.PointRows(field),
	}
	res, err := RunLoopback(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesOracle(t, res, ld, "overlapped")
	if res.Stats.RecomputedCells == 0 {
		t.Fatal("K=2 run recomputed nothing")
	}
	shells := base
	shells.Layout = testLayout(t, 12, 2*kernel.NGhost, [3]bool{true, true, true})
	res2, err := RunLoopback(context.Background(), shells)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range shells.Layout.Boxes {
		for j, ob := range l.Boxes {
			r := b.Intersect(ob)
			if r.IsEmpty() {
				continue
			}
			if d, at, c := res2.Fabs[i].MaxDiff(res.Fabs[j], r); d != 0 {
				t.Fatalf("shells-only box %d differs from overlapped box %d by %g at %v comp %d", i, j, d, at, c)
			}
		}
	}
}

// TestDistFullyLocalBoxes runs a layout in which some boxes have no
// remote face: a z-column of six 8^3 boxes with walls in z, split over
// two ranks, so each rank's outer boxes see only their own rank. Such a
// box is all interior and gets its update while the receive goroutine
// still writes the ghosts of the rank's other boxes. The run must match
// the single-rank run and the reference oracle bit for bit.
func TestDistFullyLocalBoxes(t *testing.T) {
	l, err := layout.Decompose(box.NewSized(ivect.Zero, ivect.IntVect{8, 8, 48}), 8, [3]bool{true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	field := testField(5)
	const steps = 5
	ld := oracleAdvance(l, field, steps)
	for _, name := range []string{"Baseline-CLO: P>=Box", "Shift-Fuse OT-4: P<Box"} {
		for _, haloK := range []int{1, 2, 4} {
			cfg := Config{
				Layout: l, Ranks: 2, Variant: mustVariant(t, name), HaloK: haloK,
				Steps: steps, Dt: testDt, Threads: 2, Init: fab.PointRows(field),
			}
			label := fmt.Sprintf("%s K=%d", name, haloK)
			plan, err := cfg.Plan()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			local := 0
			for _, f := range plan.RemoteFaces {
				if f == 0 {
					local++
				}
			}
			if local == 0 || local == len(plan.RemoteFaces) {
				t.Fatalf("%s: %d of %d boxes have no remote face; want some, not all", label, local, len(plan.RemoteFaces))
			}
			res, err := RunLoopback(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			one := cfg
			one.Ranks = 1
			res1, err := RunLoopback(context.Background(), one)
			if err != nil {
				t.Fatalf("%s ranks=1: %v", label, err)
			}
			for i, b := range l.Boxes {
				if d, at, c := res.Fabs[i].MaxDiff(res1.Fabs[i], b); d != 0 {
					t.Fatalf("%s: box %d differs from the single-rank run by %g at %v comp %d", label, i, d, at, c)
				}
			}
			assertMatchesOracle(t, res, ld, label)
		}
	}
}

// TestRunTCP runs a real 3-rank mesh over 127.0.0.1 sockets and checks
// every rank's boxes against the loopback run bit for bit.
func TestRunTCP(t *testing.T) {
	l := testLayout(t, 8, 4, [3]bool{true, true, true})
	field := testField(5)
	cfg := Config{
		Layout: l, Ranks: 3, Variant: mustVariant(t, "Shift-Fuse OT-4: P>=Box"),
		HaloK: 2, Steps: 4, Dt: testDt, Threads: 1, Init: fab.PointRows(field),
	}
	want, err := RunLoopback(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	lns := make([]net.Listener, cfg.Ranks)
	addrs := make([]string, cfg.Ranks)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		lns[r] = ln
		addrs[r] = ln.Addr().String()
	}
	results := make([]*RankResult, cfg.Ranks)
	errs := make([]error, cfg.Ranks)
	var wg sync.WaitGroup
	for r := 0; r < cfg.Ranks; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[r], errs[r] = RunTCP(context.Background(), cfg, r, lns[r], addrs)
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for _, rr := range results {
		for i, bi := range rr.Boxes {
			b := l.Boxes[bi]
			if d, at, c := rr.Fabs[i].MaxDiff(want.Fabs[bi], b); d != 0 {
				t.Fatalf("tcp rank %d box %d differs from loopback by %g at %v comp %d",
					rr.Rank, bi, d, at, c)
			}
		}
		if rr.Stats.MessagesSent == 0 {
			t.Fatalf("tcp rank %d sent nothing", rr.Rank)
		}
	}
}

// TestTCPMeshSizeMismatch: a dialer with a different rank count must be
// rejected by the hello cross-check.
func TestTCPMeshSizeMismatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()

	acceptErr := make(chan error, 1)
	go func() {
		// Rank 0 of a 2-mesh accepts rank 1.
		tr, err := ConnectTCP(context.Background(), 0, ln, []string{addr, "ignored"}, 1024)
		if tr != nil {
			tr.Close()
		}
		acceptErr <- err
	}()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Hello claiming a 3-rank mesh.
	if _, err := WriteFrame(c, &Frame{Type: TypeHello, Rank: 1, Step: 3}, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-acceptErr; err == nil {
		t.Fatal("expected mesh-size mismatch error")
	}
}
