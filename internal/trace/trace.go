// Package trace generates the memory-access streams of the scheduling
// variants for the cache simulator. Each generator mirrors the loop
// structure and data layout of the corresponding executor in
// internal/variants — same [x,y,z,c] column-major arrays, same traversal
// order, same temporaries — but emits addresses instead of arithmetic.
// Feeding the streams through internal/cachesim reproduces the per-schedule
// DRAM-traffic comparison that the paper measured with VTune on the
// Ivy Bridge desktop (Section VI-B).
//
// Streams are single-threaded (as were the paper's bandwidth profiles);
// tiled and wavefront schedules are traversed in their serial order.
package trace

import (
	"fmt"

	"stencilsched/internal/box"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/sched"
	"stencilsched/internal/tiling"
)

// Sink consumes one 8-byte memory access at a time.
type Sink interface {
	Read(addr uint64)
	Write(addr uint64)
}

// Counter is a Sink that just counts accesses; tests compare its totals to
// closed-form access counts.
type Counter struct {
	Reads, Writes uint64
}

// Read implements Sink.
func (c *Counter) Read(uint64) { c.Reads++ }

// Write implements Sink.
func (c *Counter) Write(uint64) { c.Writes++ }

// field maps box/component coordinates to byte addresses for one array in
// the simulated address space.
type field struct {
	base       uint64
	lo         ivect.IntVect
	sy, sz, sc int
}

func newField(base uint64, b box.Box, ncomp int) (field, uint64) {
	sz := b.Size()
	f := field{base: base, lo: b.Lo, sy: sz[0], sz: sz[0] * sz[1], sc: sz[0] * sz[1] * sz[2]}
	end := base + uint64(f.sc*ncomp)*8
	// Pad to a 4 KiB page so arrays do not share cache sets artificially.
	end = (end + 4095) &^ 4095
	return f, end
}

func (f field) addr(p ivect.IntVect, c int) uint64 {
	off := (p[0] - f.lo[0]) + f.sy*(p[1]-f.lo[1]) + f.sz*(p[2]-f.lo[2]) + f.sc*c
	return f.base + uint64(off)*8
}

// state is the simulated address space of one box's exemplar data: phi0 is
// the field the stencils read, phi1 the field the cell updates write.
type state struct {
	valid box.Box
	phi0  field
	phi1  field
	// base, when set, is a third field every cell update reads: the
	// sweep's input state, which the last sub-step of a temporal sweep
	// subtracts in its delta write-back.
	base *field
	next uint64
}

func newTraceState(n int) *state {
	valid := box.Cube(n)
	s := &state{valid: valid}
	var cur uint64 = 1 << 30 // arbitrary non-zero base
	s.phi0, cur = newField(cur, kernel.GrownBox(valid), kernel.NComp)
	s.phi1, cur = newField(cur, valid, kernel.NComp)
	s.next = cur
	return s
}

// alloc carves a new array out of the simulated address space.
func (s *state) alloc(b box.Box, ncomp int) field {
	f, cur := newField(s.next, b, ncomp)
	s.next = cur
	return f
}

// readFaceAvg emits the four phi0 reads of one fourth-order face average at
// face p (between cells p-e_d and p) for component c.
func (s *state) readFaceAvg(sink Sink, p ivect.IntVect, dir, c int) {
	sink.Read(s.phi0.addr(p.Shift(dir, -1), c))
	sink.Read(s.phi0.addr(p, c))
	sink.Read(s.phi0.addr(p.Shift(dir, -2), c))
	sink.Read(s.phi0.addr(p.Shift(dir, 1), c))
}

// Generate emits the access stream of variant v applied once to an N^3 box.
// Only the serial (single-thread) traversal is generated; v's granularity
// is ignored.
func Generate(v sched.Variant, n int, sink Sink) error {
	if err := v.Validate(); err != nil {
		return err
	}
	if n <= 0 {
		return fmt.Errorf("trace: bad box size %d", n)
	}
	s := newTraceState(n)
	switch v.Family {
	case sched.Series:
		seriesTrace(s, s.valid, sink, true)
	case sched.ShiftFuse:
		vel := velocityTrace(s, s.valid, sink)
		fusedSweepTrace(s, s.valid, vel, sink)
	case sched.BlockedWavefront:
		vel := velocityTrace(s, s.valid, sink)
		dec := tiling.Decompose(s.valid, v.TileSize)
		caches := s.fusedCaches(s.valid)
		for _, t := range dec.Tiles {
			fusedTileTrace(s, s.valid, t.Cells, vel, caches, sink)
		}
	case sched.OverlappedTile:
		dec := tiling.Decompose(s.valid, v.TileSize)
		mark := s.next
		for _, t := range dec.Tiles {
			// Tiles reuse the same scratch addresses, like the per-thread
			// scratch of the real executor.
			s.next = mark
			if v.Intra == sched.BasicSched {
				seriesTrace(s, t.Cells, sink, false)
			} else {
				vel := velocityTrace(s, t.Cells, sink)
				fusedSweepTrace(s, t.Cells, vel, sink)
			}
		}
	}
	return nil
}

// seriesTrace emits the series-of-loops schedule (CLO) over region. When
// fresh is false the flux/velocity temporaries are reallocated per call
// (per tile); resetTo allows the overlapped-tile case to reuse the address
// space so that per-tile temporaries overlap in memory like the real
// per-thread scratch does.
func seriesTrace(s *state, region box.Box, sink Sink, fresh bool) {
	mark := s.next
	for dir := 0; dir < 3; dir++ {
		faces := region.SurroundingFaces(dir)
		flux := s.alloc(faces, kernel.NComp)
		vel := s.alloc(faces, 1)
		for c := 0; c < kernel.NComp; c++ {
			c := c
			faces.ForEach(func(p ivect.IntVect) {
				s.readFaceAvg(sink, p, dir, c)
				sink.Write(flux.addr(p, c))
			})
		}
		faces.ForEach(func(p ivect.IntVect) {
			sink.Read(flux.addr(p, kernel.VelComp(dir)))
			sink.Write(vel.addr(p, 0))
		})
		for c := 0; c < kernel.NComp; c++ {
			c := c
			faces.ForEach(func(p ivect.IntVect) {
				sink.Read(flux.addr(p, c))
				sink.Read(vel.addr(p, 0))
				sink.Write(flux.addr(p, c))
			})
			region.ForEach(func(p ivect.IntVect) {
				sink.Read(flux.addr(p.Shift(dir, 1), c))
				sink.Read(flux.addr(p, c))
				sink.Read(s.phi1.addr(p, c))
				sink.Write(s.phi1.addr(p, c))
			})
		}
		if !fresh {
			s.next = mark // reuse temp addresses per direction/tile
		}
	}
}

// velocityTrace emits the three-direction velocity precomputation over the
// faces of region and returns the velocity fields.
func velocityTrace(s *state, region box.Box, sink Sink) [3]field {
	var vel [3]field
	for d := 0; d < 3; d++ {
		faces := region.SurroundingFaces(d)
		vel[d] = s.alloc(faces, 1)
		d := d
		faces.ForEach(func(p ivect.IntVect) {
			s.readFaceAvg(sink, p, d, kernel.VelComp(d))
			sink.Write(vel[d].addr(p, 0))
		})
	}
	return vel
}

// fusedCaches allocates the carried-cache arrays of the fused sweep over
// region: an x scalar (modeled as registers, no traffic), a y row and a z
// plane.
type caches struct {
	fy, fz field
}

func (s *state) fusedCaches(region box.Box) caches {
	sz := region.Size()
	row := box.NewSized(region.Lo, ivect.New(sz[0], 1, 1))
	plane := box.NewSized(region.Lo, ivect.New(sz[0], sz[1], 1))
	return caches{fy: s.alloc(row, 1), fz: s.alloc(plane, 1)}
}

// fusedSweepTrace emits the serial fused sweep (CLO) over region with its
// own carried caches.
func fusedSweepTrace(s *state, region box.Box, vel [3]field, sink Sink) {
	fusedTileTrace(s, region, region, vel, s.fusedCaches(region), sink)
}

// fusedTileTrace emits the fused sweep over tile (a sub-box of region,
// possibly the whole region) for all components, CLO order, using the given
// carried caches. Cache geometry: fy is indexed by x (row), fz by (x,y)
// (plane); the x-carried value is a register.
func fusedTileTrace(s *state, region, tile box.Box, vel [3]field, ca caches, sink Sink) {
	for c := 0; c < kernel.NComp; c++ {
		for z := tile.Lo[2]; z <= tile.Hi[2]; z++ {
			for y := tile.Lo[1]; y <= tile.Hi[1]; y++ {
				for x := tile.Lo[0]; x <= tile.Hi[0]; x++ {
					p := ivect.New(x, y, z)
					// High-face fluxes in the three directions.
					sink.Read(vel[0].addr(p.Shift(0, 1), 0))
					s.readFaceAvg(sink, p.Shift(0, 1), 0, c)
					sink.Read(vel[1].addr(p.Shift(1, 1), 0))
					s.readFaceAvg(sink, p.Shift(1, 1), 1, c)
					sink.Read(vel[2].addr(p.Shift(2, 1), 0))
					s.readFaceAvg(sink, p.Shift(2, 1), 2, c)
					// Low faces: recomputed at the tile's low boundary,
					// otherwise carried through caches.
					if x == tile.Lo[0] {
						sink.Read(vel[0].addr(p, 0))
						s.readFaceAvg(sink, p, 0, c)
					}
					if y == tile.Lo[1] {
						sink.Read(vel[1].addr(p, 0))
						s.readFaceAvg(sink, p, 1, c)
					} else {
						sink.Read(ca.fy.addr(ivect.New(x, ca.fy.lo[1], ca.fy.lo[2]), 0))
					}
					if z == tile.Lo[2] {
						sink.Read(vel[2].addr(p, 0))
						s.readFaceAvg(sink, p, 2, c)
					} else {
						sink.Read(ca.fz.addr(ivect.New(x, y, ca.fz.lo[2]), 0))
					}
					sink.Write(ca.fy.addr(ivect.New(x, ca.fy.lo[1], ca.fy.lo[2]), 0))
					sink.Write(ca.fz.addr(ivect.New(x, y, ca.fz.lo[2]), 0))
					// Cell update.
					if s.base != nil {
						sink.Read(s.base.addr(p, c))
					}
					sink.Read(s.phi1.addr(p, c))
					sink.Write(s.phi1.addr(p, c))
				}
			}
		}
	}
}

// AccessCount returns the closed-form number of (reads, writes) Generate
// emits for the series schedule on an N^3 box — used to validate the
// generators.
func SeriesAccessCount(n int) (reads, writes uint64) {
	n64 := uint64(n)
	cells := n64 * n64 * n64
	var faces uint64
	for d := 0; d < 3; d++ {
		f := [3]uint64{n64, n64, n64}
		f[d]++
		faces += f[0] * f[1] * f[2]
	}
	c := uint64(kernel.NComp)
	reads = faces*(4*c) + // pass 1 face averages
		faces + // velocity copy read
		faces*(2*c) + // pass 2a reads
		3*cells*(3*c) // pass 2b (per direction): two flux reads + phi1 read
	writes = faces*c + // pass 1 flux
		faces + // velocity
		faces*c + // pass 2a flux
		3*cells*c // phi1, per direction
	return reads, writes
}

// GenerateTemporal emits the access stream of one K-step temporal sweep
// (the generated Temporal K* runners, codegen.TemporalProg) over an N^3
// box with tile edge tileEdge (<= 0: the whole box as one tile), in serial
// traversal order. Per tile, sub-step j is a shifted-and-fused sweep —
// velocity pre-passes, then the fused sweep with its carried caches — over
// the tile grown by (K-1-j)*NGhost: the first reads phi0 in place, the
// intermediate states ping-pong between two tile-local buffers, the last
// reads phi0 again and writes the delta to phi1. (An intermediate
// sub-step's write-back is modeled like the accumulation, as a
// read-modify-write of its destination.) Feeding the stream through
// internal/cachesim predicts DRAM traffic as a function of (tile, K) —
// the execution-driven check on perfmodel.TemporalTrafficBytes.
func GenerateTemporal(n, tileEdge, k int, sink Sink) error {
	if n <= 0 {
		return fmt.Errorf("trace: bad box size %d", n)
	}
	if k < 1 {
		return fmt.Errorf("trace: temporal depth K=%d must be >= 1", k)
	}
	ng := kernel.NGhost
	valid := box.Cube(n)
	s := &state{valid: valid}
	var cur uint64 = 1 << 30
	phi0, cur := newField(cur, valid.Grow(k*ng), kernel.NComp)
	phi1, cur := newField(cur, valid, kernel.NComp)
	s.next = cur
	tiles := []box.Box{valid}
	if tileEdge > 0 {
		tiles = valid.Tiles(tileEdge)
	}
	reach := (k - 1) * ng
	mark := s.next
	for _, tile := range tiles {
		// Tiles reuse the same scratch addresses, like the per-tile
		// arena rewind of the generated runners.
		s.next = mark
		var pingpong [2]field
		for i := 0; i < 2 && i < k-1; i++ {
			pingpong[i] = s.alloc(tile.Grow(reach-i*ng), kernel.NComp)
		}
		temps := s.next
		s.phi0 = phi0
		for j := 0; j < k; j++ {
			if j == k-1 {
				s.phi1, s.base = phi1, &phi0
			} else {
				s.phi1 = pingpong[j%2]
			}
			// Every sub-step reuses the velocity fields and the caches.
			s.next = temps
			reg := tile.Grow(reach - j*ng)
			fusedSweepTrace(s, reg, velocityTrace(s, reg, sink), sink)
			s.phi0 = s.phi1
		}
		s.base = nil
	}
	return nil
}
