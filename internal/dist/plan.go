package dist

import (
	"fmt"
	"math/bits"

	"stencilsched/internal/box"
	"stencilsched/internal/cluster"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/layout"
)

// Send is one outgoing remote motion: pack SrcBox's FAB over
// Region+Shift and deliver it to rank To, which applies it at Region.
type Send struct {
	Motion uint32
	To     int
	SrcBox int
	Region box.Box
	Shift  ivect.IntVect
}

// Recv is one expected incoming remote motion: apply the payload into
// DstBox's FAB at Region.
type Recv struct {
	Motion uint32
	From   int
	DstBox int
	Region box.Box
}

// LocalCopy is a same-rank ghost motion executed as a shared-memory
// copy (dst at Region reads src at Region+Shift, the layout.Motion
// convention).
type LocalCopy struct {
	SrcBox, DstBox int
	Region         box.Box
	Shift          ivect.IntVect
}

// FaceSet is a set of a box's six faces: bit 2*d is the low face in
// direction d, bit 2*d+1 the high face.
type FaceSet uint8

// Has reports whether the set holds the face of direction d on side
// (0 low, 1 high).
func (s FaceSet) Has(d, side int) bool { return s&(1<<(2*d+side)) != 0 }

// facesBeyond returns the faces of b that region r lies wholly beyond.
// A ghost region never meets b, so it lies beyond at least one face;
// beyond several, it is an edge or corner region.
func facesBeyond(b, r box.Box) FaceSet {
	var s FaceSet
	for d := 0; d < 3; d++ {
		if r.Hi[d] < b.Lo[d] {
			s |= 1 << (2 * d)
		}
		if r.Lo[d] > b.Hi[d] {
			s |= 1 << (2*d + 1)
		}
	}
	return s
}

// RankPlan is one rank's share of the exchange plan.
type RankPlan struct {
	Rank  int
	Boxes []int // owned box indices, layout order
	Local []LocalCopy
	Sends []Send
	Recvs []Recv
	// recvIndex maps a motion ID to its Recvs position.
	recvIndex map[uint32]int
}

// Plan is the precomputed distributed exchange schedule: the layout's
// ghost motions at depth HaloK*kernel.NGhost, split per rank into local
// copies, sends, and expected receives, with globally unique motion IDs
// (deterministic layout order) so a frame names exactly one region.
type Plan struct {
	Layout *layout.Layout
	Assign *cluster.Assignment
	// HaloK is the halo depth in kernel applications; Depth the
	// resulting ghost-layer count HaloK*kernel.NGhost.
	HaloK, Depth int
	Ranks        []RankPlan
	// RemoteFaces, by box index, marks faces of each box such that every
	// remote Recv region of the box lies wholly beyond a marked face (see
	// markRemoteFaces): the only faces the overlapped superstep keeps its
	// interior away from.
	RemoteFaces []FaceSet
	// MaxFrameValues is the largest single message's float64 count —
	// the wire-decode bound transports use.
	MaxFrameValues int
}

// NewPlan builds the exchange plan for layout l under assignment a with
// halo depth haloK kernel applications. Periodic directions constrain
// the depth: the copier's periodic images are single-domain shifts, so
// HaloK*NGhost ghost layers must not exceed the domain extent in any
// periodic direction (deeper halos would need double wrapping).
func NewPlan(l *layout.Layout, a *cluster.Assignment, haloK int) (*Plan, error) {
	if haloK < 1 {
		return nil, fmt.Errorf("dist: halo depth K=%d (need >= 1)", haloK)
	}
	if a.Layout != l {
		return nil, fmt.Errorf("dist: assignment belongs to a different layout")
	}
	depth := haloK * kernel.NGhost
	size := l.Domain.Size()
	for d := 0; d < 3; d++ {
		if l.Periodic[d] && depth > size[d] {
			return nil, fmt.Errorf("dist: halo depth %d (K=%d) exceeds periodic domain extent %d in dim %d",
				depth, haloK, size[d], d)
		}
	}
	if len(a.Of) != l.NumBoxes() {
		return nil, fmt.Errorf("dist: assignment covers %d of %d boxes", len(a.Of), l.NumBoxes())
	}
	owned := make([]int, a.Ranks)
	for i, r := range a.Of {
		if r < 0 || r >= a.Ranks {
			return nil, fmt.Errorf("dist: box %d assigned to rank %d of %d", i, r, a.Ranks)
		}
		owned[r]++
	}
	for r, n := range owned {
		if n == 0 {
			return nil, fmt.Errorf("dist: rank %d owns no boxes", r)
		}
	}

	p := &Plan{Layout: l, Assign: a, HaloK: haloK, Depth: depth, Ranks: make([]RankPlan, a.Ranks)}
	for r := range p.Ranks {
		p.Ranks[r] = RankPlan{Rank: r, recvIndex: map[uint32]int{}}
	}
	for i, r := range a.Of {
		p.Ranks[r].Boxes = append(p.Ranks[r].Boxes, i)
	}

	// Global motion IDs follow the copier's deterministic order:
	// destination box ascending, then plan order within the box. Both
	// sides of a remote motion derive the same ID from the same copier.
	cop := layout.NewCopier(l, depth)
	var id uint32
	for _, ms := range cop.Motions() {
		for _, m := range ms {
			src, dst := a.Of[m.Src], a.Of[m.Dst]
			if src == dst {
				p.Ranks[src].Local = append(p.Ranks[src].Local, LocalCopy{
					SrcBox: m.Src, DstBox: m.Dst, Region: m.Region, Shift: m.Shift,
				})
			} else {
				p.Ranks[src].Sends = append(p.Ranks[src].Sends, Send{
					Motion: id, To: dst, SrcBox: m.Src, Region: m.Region, Shift: m.Shift,
				})
				rp := &p.Ranks[dst]
				rp.recvIndex[id] = len(rp.Recvs)
				rp.Recvs = append(rp.Recvs, Recv{Motion: id, From: src, DstBox: m.Dst, Region: m.Region})
				if n := m.Region.NumPts() * kernel.NComp; n > p.MaxFrameValues {
					p.MaxFrameValues = n
				}
			}
			id++
		}
	}
	p.RemoteFaces = make([]FaceSet, l.NumBoxes())
	for _, rp := range p.Ranks {
		markRemoteFaces(p.RemoteFaces, l.Boxes, rp.Recvs)
	}
	return p, nil
}

// markRemoteFaces marks in faces, by box index, the faces the remote
// regions recvs lie beyond. A region beyond exactly one face marks that
// face. An edge or corner region is covered once any of its faces is
// marked; one that is not marks its highest-direction face (z, then y,
// then x), so the x-rows of whatever is left unmarked stay whole. Every
// region then lies wholly beyond a marked face of its box.
func markRemoteFaces(faces []FaceSet, boxes []box.Box, recvs []Recv) {
	// Face regions first: an edge or corner region must see every face
	// they mark before it picks one of its own.
	for _, rc := range recvs {
		if s := facesBeyond(boxes[rc.DstBox], rc.Region); bits.OnesCount8(uint8(s)) == 1 {
			faces[rc.DstBox] |= s
		}
	}
	for _, rc := range recvs {
		if s := facesBeyond(boxes[rc.DstBox], rc.Region); s&faces[rc.DstBox] == 0 {
			faces[rc.DstBox] |= 1 << (bits.Len8(uint8(s)) - 1)
		}
	}
}

// MaxRecvs returns the largest per-superstep receive count over ranks —
// the loopback inbox sizing input.
func (p *Plan) MaxRecvs() int {
	m := 0
	for _, rp := range p.Ranks {
		if len(rp.Recvs) > m {
			m = len(rp.Recvs)
		}
	}
	return m
}

// packRegion flattens f over r (reading at p+shift) in component-major,
// x-fastest order — the payload layout unpackRegion reverses. The
// shifted region is checked against the FAB once, then appended one
// x-row at a time. It panics if that region is not inside f.Box().
func packRegion(f *fab.FAB, r box.Box, shift ivect.IntVect, out []float64) []float64 {
	out = out[:0]
	forRows(f, r.ShiftVect(shift), "pack", func(row []float64) { out = append(out, row...) })
	return out
}

// unpackRegion applies a packed payload into f at r, one x-row per
// copy. A payload of the wrong length is ErrProtocol; a region outside
// f.Box() panics.
func unpackRegion(f *fab.FAB, r box.Box, data []float64) error {
	want := r.NumPts() * f.NComp()
	if len(data) != want {
		return fmt.Errorf("%w: payload has %d values, region %v needs %d", ErrProtocol, len(data), r, want)
	}
	forRows(f, r, "unpack", func(row []float64) { data = data[copy(row, data):] })
	return nil
}

// forRows visits the x-rows of f over r in payload order (component,
// then z, then y), each as a slice of f's storage. r must lie inside
// f.Box(): that is checked once, here, not per value.
func forRows(f *fab.FAB, r box.Box, op string, fn func(row []float64)) {
	if r.IsEmpty() {
		return
	}
	fb := f.Box()
	if !fb.ContainsBox(r) {
		panic(fmt.Sprintf("dist: %s region %v outside %v", op, r, fb))
	}
	sy, sz, sc := f.Strides()
	data := f.Data()
	nx := r.Hi[0] - r.Lo[0] + 1
	x0 := r.Lo[0] - fb.Lo[0]
	for c := 0; c < f.NComp(); c++ {
		for z := r.Lo[2]; z <= r.Hi[2]; z++ {
			for y := r.Lo[1]; y <= r.Hi[1]; y++ {
				o := x0 + sy*(y-fb.Lo[1]) + sz*(z-fb.Lo[2]) + sc*c
				fn(data[o : o+nx])
			}
		}
	}
}
