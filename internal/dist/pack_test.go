package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"testing"

	"stencilsched/internal/box"
	"stencilsched/internal/cluster"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/layout"
)

// packPointwise is the per-value definition of the payload layout —
// component-major, then box.ForEach order (x fastest) — kept as the
// oracle packRegion's row copies must reproduce bit for bit.
func packPointwise(f *fab.FAB, r box.Box, shift ivect.IntVect, out []float64) []float64 {
	out = out[:0]
	for c := 0; c < f.NComp(); c++ {
		c := c
		r.ForEach(func(p ivect.IntVect) {
			out = append(out, f.Get(p.Add(shift), c))
		})
	}
	return out
}

// unpackPointwise is the per-value oracle of unpackRegion.
func unpackPointwise(f *fab.FAB, r box.Box, data []float64) {
	i := 0
	for c := 0; c < f.NComp(); c++ {
		c := c
		r.ForEach(func(p ivect.IntVect) {
			f.Set(p, c, data[i])
			i++
		})
	}
}

// deepFabs returns one FAB per layout box over the box grown by depth,
// every cell (ghosts included) set from field so that no two cells hold
// the same value.
func deepFabs(l *layout.Layout, depth int, field func(ivect.IntVect, int) float64) []*fab.FAB {
	fs := make([]*fab.FAB, len(l.Boxes))
	for i, b := range l.Boxes {
		fs[i] = fab.New(b.Grow(depth), kernel.NComp)
		fs[i].FillFunc(fs[i].Box(), field)
	}
	return fs
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func testPlan(t *testing.T, edge, boxN, ranks, haloK int, periodic [3]bool) *Plan {
	t.Helper()
	l := testLayout(t, edge, boxN, periodic)
	a, err := cluster.Assign(l, ranks)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(l, a, haloK)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPackUnpackMatchesPointwise runs every Send and Recv of 2- and
// 4-rank plans at halo depths 1, 2 and 4, periodic (shifted images
// included) and not, through the row-wise motion and the per-value
// oracle: payloads and unpacked FABs must agree bit for bit, and a
// packed region unpacked elsewhere must read back as the same payload.
func TestPackUnpackMatchesPointwise(t *testing.T) {
	for _, periodic := range [][3]bool{{true, true, true}, {false, false, false}, {true, false, true}} {
		for _, ranks := range []int{2, 4} {
			for _, haloK := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("periodic=%v/ranks=%d/K=%d", periodic, ranks, haloK), func(t *testing.T) {
					p := testPlan(t, 8, 4, ranks, haloK, periodic)
					src := deepFabs(p.Layout, p.Depth, testField(1))
					dst := deepFabs(p.Layout, p.Depth, testField(2))
					sends := map[uint32]Send{}
					shifted := 0
					var row, pt []float64
					for _, rp := range p.Ranks {
						for _, s := range rp.Sends {
							row = packRegion(src[s.SrcBox], s.Region, s.Shift, row)
							pt = packPointwise(src[s.SrcBox], s.Region, s.Shift, pt)
							if !bitsEqual(row, pt) {
								t.Fatalf("motion %d (region %v shift %v): row-wise payload differs from pointwise", s.Motion, s.Region, s.Shift)
							}
							if s.Shift != ivect.Zero {
								shifted++
							}
							sends[s.Motion] = s
						}
					}
					if periodic[0] && shifted == 0 {
						t.Fatal("periodic plan has no shifted image to pack")
					}
					nrecv := 0
					for _, rp := range p.Ranks {
						for _, rc := range rp.Recvs {
							s := sends[rc.Motion]
							payload := packRegion(src[s.SrcBox], s.Region, s.Shift, nil)
							got, want := dst[rc.DstBox].Clone(), dst[rc.DstBox].Clone()
							if err := unpackRegion(got, rc.Region, payload); err != nil {
								t.Fatal(err)
							}
							unpackPointwise(want, rc.Region, payload)
							if !bitsEqual(got.Data(), want.Data()) {
								t.Fatalf("motion %d (region %v): row-wise unpack differs from pointwise", rc.Motion, rc.Region)
							}
							if back := packRegion(got, rc.Region, ivect.Zero, nil); !bitsEqual(back, payload) {
								t.Fatalf("motion %d (region %v): round trip does not restore the region", rc.Motion, rc.Region)
							}
							nrecv++
						}
					}
					if nrecv == 0 || nrecv != len(sends) {
						t.Fatalf("%d recvs for %d sends", nrecv, len(sends))
					}
				})
			}
		}
	}
}

// TestPackUnpackOutsideFABPanics: a region (or its shifted source)
// reaching outside the FAB is a plan bug and panics, as Get and Set do.
func TestPackUnpackOutsideFABPanics(t *testing.T) {
	f := fab.New(box.Cube(4), kernel.NComp)
	r := box.Cube(2)
	cases := map[string]func(){
		"pack shifted past hi": func() { packRegion(f, r, ivect.New(3, 0, 0), nil) },
		"pack shifted past lo": func() { packRegion(f, r, ivect.New(0, 0, -1), nil) },
		"unpack past hi": func() {
			_ = unpackRegion(f, r.Shift(1, 3), make([]float64, r.NumPts()*kernel.NComp))
		},
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			fn()
		})
	}
}

// TestPackUnpackWrongLength: a payload that does not fit the region is
// ErrProtocol and leaves the FAB untouched.
func TestPackUnpackWrongLength(t *testing.T) {
	f := fab.New(box.Cube(4), kernel.NComp)
	r := box.Cube(2)
	n := r.NumPts() * kernel.NComp
	for _, m := range []int{0, n - 1, n + 1} {
		data := make([]float64, m)
		for i := range data {
			data[i] = 1
		}
		if err := unpackRegion(f, r, data); !errors.Is(err, ErrProtocol) {
			t.Fatalf("%d values for a %d-value region: err %v, want ErrProtocol", m, n, err)
		}
		if f.MaxNorm(f.Box()) != 0 {
			t.Fatalf("%d-value payload was partly applied", m)
		}
	}
}

// TestPackUnpackZeroAllocs: with a warmed buffer a motion costs no
// allocation on either side.
func TestPackUnpackZeroAllocs(t *testing.T) {
	p := testPlan(t, 8, 4, 2, 2, [3]bool{true, true, true})
	fs := deepFabs(p.Layout, p.Depth, testField(3))
	s := p.Ranks[0].Sends[0]
	to := &p.Ranks[s.To]
	rc := to.Recvs[to.recvIndex[s.Motion]]
	buf := packRegion(fs[s.SrcBox], s.Region, s.Shift, nil)
	if n := testing.AllocsPerRun(100, func() { buf = packRegion(fs[s.SrcBox], s.Region, s.Shift, buf) }); n != 0 {
		t.Errorf("packRegion: %v allocs per motion, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = unpackRegion(fs[rc.DstBox], rc.Region, buf) }); n != 0 {
		t.Errorf("unpackRegion: %v allocs per motion, want 0", n)
	}
}

// TestPackedFramePinned pins the wire bytes of one shifted periodic
// motion: the frame that carries it must encode to exactly these bytes
// for as long as the format is SDW1.
func TestPackedFramePinned(t *testing.T) {
	p := testPlan(t, 8, 4, 2, 1, [3]bool{true, true, true})
	fs := deepFabs(p.Layout, p.Depth, testField(4))
	var snd *Send
	for i, s := range p.Ranks[0].Sends {
		if s.Shift != ivect.Zero {
			snd = &p.Ranks[0].Sends[i]
			break
		}
	}
	if snd == nil {
		t.Fatal("rank 0 sends no shifted image")
	}
	f := Frame{Type: TypeData, Rank: 0, Step: 1, Motion: snd.Motion,
		Data: packRegion(fs[snd.SrcBox], snd.Region, snd.Shift, nil)}
	sum := sha256.Sum256(EncodeFrame(&f))
	const want = "416f395bf2e541098fcda45c37d4463789459ecf62da7468f4d5933e1ab005b7"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("motion %d (region %v shift %v): frame sha256 %s, want %s", snd.Motion, snd.Region, snd.Shift, got, want)
	}
}

// BenchmarkPackUnpack moves the depth-2 ghost regions of a 16^3 box —
// an x-face (two-value rows), a z-face (16-value rows), an edge and a
// corner, each read from its periodic image — and reports ns per value
// and GB/s for pack, unpack and a plain copy() of the same bytes.
func BenchmarkPackUnpack(b *testing.B) {
	const n, g = 16, kernel.NGhost
	f := fab.New(box.Cube(n).Grow(g), kernel.NComp)
	f.FillFunc(f.Box(), testField(5))
	motions := []struct {
		name   string
		region box.Box
		shift  ivect.IntVect
	}{
		{"face-x", box.New(ivect.New(-g, 0, 0), ivect.New(-1, n-1, n-1)), ivect.New(n, 0, 0)},
		{"face-z", box.New(ivect.New(0, 0, -g), ivect.New(n-1, n-1, -1)), ivect.New(0, 0, n)},
		{"edge-xy", box.New(ivect.New(-g, -g, 0), ivect.New(-1, -1, n-1)), ivect.New(n, n, 0)},
		{"corner", box.New(ivect.New(-g, -g, -g), ivect.New(-1, -1, -1)), ivect.New(n, n, n)},
	}
	for _, m := range motions {
		vals := m.region.NumPts() * kernel.NComp
		buf := packRegion(f, m.region, m.shift, nil)
		dst := make([]float64, vals)
		report := func(b *testing.B) {
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(ns/float64(vals), "ns/value")
			b.ReportMetric(float64(vals*8)/ns, "GB/s")
		}
		b.Run(m.name+"/pack", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buf = packRegion(f, m.region, m.shift, buf)
			}
			report(b)
		})
		b.Run(m.name+"/unpack", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := unpackRegion(f, m.region, buf); err != nil {
					b.Fatal(err)
				}
			}
			report(b)
		})
		b.Run(m.name+"/copy", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(dst, buf)
			}
			report(b)
		})
	}
}
