package variants

import (
	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/parallel"
	"stencilsched/internal/sched"
	"stencilsched/internal/scratch"
)

// execSeries runs the original exemplar schedule of Figure 6: for each
// direction, a full pass of fourth-order face averages into a box-sized
// flux temporary, a velocity capture, a flux scaling pass, and an
// accumulation pass. Within-box parallelism (P<Box) splits every spatial
// loop over z slabs, the paper's "z-slices within a box" granularity.
//
// comp selects the component-loop placement: CLO keeps the component loop
// around the spatial loops exactly as written in Figure 6; CLI moves it
// innermost, under the x loop.
func execSeries(s *state, comp sched.CompLoop, threads int, ar *scratch.Arena) Stats {
	stats := Stats{UniqueFaces: s.uniqueFaces()}
	stats.FacesEvaluated = stats.UniqueFaces
	// Directions are independent: rewind the arena each direction so the
	// retained peak is one direction's flux+velocity, matching the
	// transient footprint of the allocating version.
	base := ar.Mark()
	for dir := 0; dir < ivect.SpaceDim; dir++ {
		ar.Rewind(base)
		faces := s.valid.SurroundingFaces(dir)
		flux := ar.FAB(faces, kernel.NComp)
		velocity := ar.FAB(faces, 1)
		if b := flux.Bytes() + velocity.Bytes(); b > stats.TempFluxBytes+stats.TempVelBytes {
			stats.TempFluxBytes = flux.Bytes()
			stats.TempVelBytes = velocity.Bytes()
		}

		fy, fz, fc := flux.Strides()
		sd := s.str0[dir]
		nzF := faces.Size()[2]

		// Pass 1: face averages for every component (EvalFlux1). The slab
		// bodies live in named functions (below) so the serial case — every
		// P>=Box box and every overlapped tile — calls them directly; the
		// closures that feed ForChunked would otherwise heap-allocate on
		// each pass of the steady-state hot path.
		if comp == sched.CLO {
			for c := 0; c < kernel.NComp; c++ {
				ph := s.comp0(c)
				out := flux.Comp(c)
				if threads == 1 {
					faceAvgSlabs(s, out, ph, faces, fy, fz, sd, 0, nzF)
				} else {
					parallel.ForChunked(threads, nzF, func(_, zlo, zhi int) {
						faceAvgSlabs(s, out, ph, faces, fy, fz, sd, zlo, zhi)
					})
				}
			}
		} else {
			fluxData := flux.Data()
			phiData := s.phi0.Data()
			if threads == 1 {
				seriesFaceAvgSlabsCLI(s, fluxData, phiData, faces, fy, fz, fc, sd, 0, nzF)
			} else {
				parallel.ForChunked(threads, nzF, func(_, zlo, zhi int) {
					seriesFaceAvgSlabsCLI(s, fluxData, phiData, faces, fy, fz, fc, sd, zlo, zhi)
				})
			}
		}

		// Velocity capture (Fig. 6 line 11) before any face is overwritten.
		velocity.CopyFromShifted(flux, faces, ivect.Zero, kernel.VelComp(dir), 0, 1)
		vData := velocity.Comp(0)

		// Pass 2: flux product (EvalFlux2) and accumulation, per Figure 6
		// with the component loop outside; CLI fuses the component loop
		// into the spatial loops of both steps.
		cells := s.valid
		nzC := cells.Size()[2]
		fdir := fluxDirStride(dir, fy, fz)
		if comp == sched.CLO {
			for c := 0; c < kernel.NComp; c++ {
				out := flux.Comp(c)
				if threads == 1 {
					seriesScaleSlabs(out, vData, fz, 0, nzF)
				} else {
					parallel.ForChunked(threads, nzF, func(_, zlo, zhi int) {
						seriesScaleSlabs(out, vData, fz, zlo, zhi)
					})
				}
				dst := s.comp1(c)
				fd := flux.Comp(c)
				if threads == 1 {
					seriesAccumSlabs(s, dst, fd, cells, faces, fy, fz, fdir, 0, nzC)
				} else {
					parallel.ForChunked(threads, nzC, func(_, zlo, zhi int) {
						seriesAccumSlabs(s, dst, fd, cells, faces, fy, fz, fdir, zlo, zhi)
					})
				}
			}
		} else {
			fluxData := flux.Data()
			phi1Data := s.phi1.Data()
			if threads == 1 {
				seriesScaleSlabsCLI(fluxData, vData, faces, fy, fz, fc, 0, nzF)
				seriesAccumSlabsCLI(s, phi1Data, fluxData, cells, faces, fy, fz, fc, fdir, 0, nzC)
			} else {
				parallel.ForChunked(threads, nzF, func(_, zlo, zhi int) {
					seriesScaleSlabsCLI(fluxData, vData, faces, fy, fz, fc, zlo, zhi)
				})
				parallel.ForChunked(threads, nzC, func(_, zlo, zhi int) {
					seriesAccumSlabsCLI(s, phi1Data, fluxData, cells, faces, fy, fz, fc, fdir, zlo, zhi)
				})
			}
		}
	}
	return stats
}

// faceAvgSlabs computes one component's face averages into out, an array
// over faces with y and z strides fy and fz, for z slabs [zlo, zhi) of
// faces: the series schedule's EvalFlux1 pass and the fused schedules'
// velocity pre-pass.
func faceAvgSlabs(s *state, out, ph []float64, faces box.Box, fy, fz, sd, zlo, zhi int) {
	nx, ny := faces.Size()[0], faces.Size()[1]
	for zi := zlo; zi < zhi; zi++ {
		// Offsets of the slab's first row; the y strides step them.
		src := s.off0(ivect.New(faces.Lo[0], faces.Lo[1], faces.Lo[2]+zi))
		dst := zi * fz
		for y := 0; y < ny; y++ {
			kernel.FaceAvgRow(out[dst:dst+nx], ph, src, sd)
			src, dst = src+s.str0[1], dst+fy
		}
	}
}

// seriesFaceAvgSlabsCLI is faceAvgSlabs with the component loop
// innermost, writing all components of the flux array.
func seriesFaceAvgSlabsCLI(s *state, fluxData, phiData []float64, faces box.Box, fy, fz, fc, sd, zlo, zhi int) {
	for zi := zlo; zi < zhi; zi++ {
		for y := faces.Lo[1]; y <= faces.Hi[1]; y++ {
			src := s.off0(ivect.New(faces.Lo[0], y, faces.Lo[2]+zi))
			dst := (y-faces.Lo[1])*fy + zi*fz
			for x := 0; x <= faces.Hi[0]-faces.Lo[0]; x++ {
				for c := 0; c < kernel.NComp; c++ {
					fluxData[dst+x+c*fc] = kernel.FaceAvg(phiData[c*s.sc0:(c+1)*s.sc0], src+x, sd)
				}
			}
		}
	}
}

// seriesScaleSlabs applies the flux product (EvalFlux2) in place to one
// component for z slabs [zlo, zhi) of faces, fz apart. The flux and
// velocity temporaries are dense over the faces, so the slabs are one
// contiguous run and one row-kernel call.
func seriesScaleSlabs(out, vData []float64, fz, zlo, zhi int) {
	kernel.Flux2Row(out[zlo*fz:zhi*fz], vData[zlo*fz:])
}

// seriesScaleSlabsCLI is seriesScaleSlabs with the component loop innermost.
func seriesScaleSlabsCLI(fluxData, vData []float64, faces box.Box, fy, fz, fc, zlo, zhi int) {
	for zi := zlo; zi < zhi; zi++ {
		for y := faces.Lo[1]; y <= faces.Hi[1]; y++ {
			off := (y-faces.Lo[1])*fy + zi*fz
			for x := 0; x <= faces.Hi[0]-faces.Lo[0]; x++ {
				v := vData[off+x]
				for c := 0; c < kernel.NComp; c++ {
					fluxData[off+x+c*fc] = kernel.Flux2(v, fluxData[off+x+c*fc])
				}
			}
		}
	}
}

// seriesAccumSlabs accumulates one component's flux difference into phi1
// for z slabs [zlo, zhi) of cells, one row-kernel call per run of cells
// contiguous in both phi1 and the flux array: the whole slab range when
// both x-y planes are dense over the cells (the z faces of a box-sized
// phi1), a z-plane when only their x extents match (the y faces), and an
// x-row otherwise (the x faces, whose rows are one longer than the
// cells').
func seriesAccumSlabs(s *state, dst, fd []float64, cells, faces box.Box, fy, fz, fdir, zlo, zhi int) {
	if zlo >= zhi {
		return
	}
	nx, ny := cells.Size()[0], cells.Size()[1]
	py, pz := s.str1[1], s.str1[2]
	run, rows, planes := nx, ny, 1 // cells per call, calls per z step, planes per z step
	if py == nx && fy == nx {
		run, rows = nx*ny, 1
		if pz == nx*ny && fz == nx*ny {
			run, planes = nx*ny*(zhi-zlo), zhi-zlo
		}
	}
	for zi := zlo; zi < zhi; zi += planes {
		fOff := (zi + cells.Lo[2] - faces.Lo[2]) * fz
		pOff := s.off1(ivect.New(cells.Lo[0], cells.Lo[1], cells.Lo[2]+zi))
		for y := 0; y < rows; y++ {
			kernel.DiffAccRow(dst[pOff:pOff+run], fd[fOff+fdir:], fd[fOff:])
			fOff, pOff = fOff+fy, pOff+py
		}
	}
}

// seriesAccumSlabsCLI is seriesAccumSlabs with the component loop innermost.
func seriesAccumSlabsCLI(s *state, phi1Data, fluxData []float64, cells, faces box.Box, fy, fz, fc, fdir, zlo, zhi int) {
	for zi := zlo; zi < zhi; zi++ {
		for y := cells.Lo[1]; y <= cells.Hi[1]; y++ {
			fOff := (y-cells.Lo[1])*fy + (zi+cells.Lo[2]-faces.Lo[2])*fz
			pOff := s.off1(ivect.New(cells.Lo[0], y, cells.Lo[2]+zi))
			for x := 0; x <= cells.Hi[0]-cells.Lo[0]; x++ {
				for c := 0; c < kernel.NComp; c++ {
					phi1Data[pOff+x+c*s.sc1] += fluxData[fOff+x+fdir+c*fc] - fluxData[fOff+x+c*fc]
				}
			}
		}
	}
}

// fluxDirStride returns the stride between a cell's low and high face in
// the flux array for direction dir, given the flux array's y and z strides.
func fluxDirStride(dir, fy, fz int) int {
	switch dir {
	case 0:
		return 1
	case 1:
		return fy
	default:
		return fz
	}
}

// ExecSeriesNoVelocityTemp runs the series-of-loops ablation that avoids
// the velocity temporary via pass reordering (see execSeriesNoVelTemp).
// It has the same contract as Exec.
func ExecSeriesNoVelocityTemp(phi0, phi1 *fab.FAB, valid box.Box, threads int) Stats {
	kernel.CheckState(phi0, phi1, valid)
	ar := scratch.Default.Checkout()
	defer scratch.Default.Checkin(ar)
	return execSeriesNoVelTemp(newState(phi0, phi1, valid), parallel.Threads(threads), ar)
}

// execSeriesNoVelTemp is the ablation of the paper's note that the
// component-loop-outside series variant can avoid the velocity temporary by
// reordering: the face average of the velocity component is computed first
// and left in place in the flux array; other components scale against it;
// the velocity component scales itself last. Results remain bitwise
// identical to Reference. Exposed through AblationSeriesNoVelocityTemp.
func execSeriesNoVelTemp(s *state, threads int, ar *scratch.Arena) Stats {
	stats := Stats{UniqueFaces: s.uniqueFaces()}
	stats.FacesEvaluated = stats.UniqueFaces
	base := ar.Mark()
	for dir := 0; dir < ivect.SpaceDim; dir++ {
		ar.Rewind(base)
		faces := s.valid.SurroundingFaces(dir)
		flux := ar.FAB(faces, kernel.NComp)
		if flux.Bytes() > stats.TempFluxBytes {
			stats.TempFluxBytes = flux.Bytes()
		}
		fy, fz, _ := flux.Strides()
		sd := s.str0[dir]
		nzF := faces.Size()[2]
		vc := kernel.VelComp(dir)

		// Pass 1 unchanged: all face averages.
		for c := 0; c < kernel.NComp; c++ {
			ph := s.comp0(c)
			out := flux.Comp(c)
			parallel.ForChunked(threads, nzF, func(_, zlo, zhi int) {
				faceAvgSlabs(s, out, ph, faces, fy, fz, sd, zlo, zhi)
			})
		}

		// Pass 2: scale components against the in-place velocity component,
		// the velocity component itself last; accumulate after scaling.
		vel := flux.Comp(vc)
		scale := func(c int) {
			out := flux.Comp(c)
			parallel.ForChunked(threads, nzF, func(_, zlo, zhi int) {
				seriesScaleSlabs(out, vel, fz, zlo, zhi)
			})
		}
		for c := 0; c < kernel.NComp; c++ {
			if c != vc {
				scale(c)
			}
		}
		scale(vc)
		cells := s.valid
		fdir := fluxDirStride(dir, fy, fz)
		for c := 0; c < kernel.NComp; c++ {
			dst := s.comp1(c)
			fd := flux.Comp(c)
			parallel.ForChunked(threads, cells.Size()[2], func(_, zlo, zhi int) {
				seriesAccumSlabs(s, dst, fd, cells, faces, fy, fz, fdir, zlo, zhi)
			})
		}
	}
	return stats
}
