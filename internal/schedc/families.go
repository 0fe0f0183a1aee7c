package schedc

import (
	"fmt"

	"stencilsched/internal/codegen"
	"stencilsched/internal/kernel"
)

// Families returns every schedule family the compiler ships generated
// code for: the two CodeGen+ exemplar schedules (series and row-fused,
// codegen.SeriesDesc and codegen.RowFusedDesc) and two of the
// hand-written families re-derived from declarative descriptions
// (Shift-Fuse serial and the overlapped-tile Basic-Sched OT-16). All
// four run serially within the box — the P>=Box granularity, whose
// parallelism is across boxes.
func Families() []Family {
	series := Family{
		Name:     "CodeGen series (generated)",
		FuncName: "RunSeries",
		FileName: "series.gen.go",
		Comment: "RunSeries executes the original series-of-loops schedule (Fig. 6,\n" +
			"component loop outside) compiled from codegen.SeriesDesc: every\n" +
			"statement a full pass over its face or cell box, with full-array\n" +
			"flux and velocity temporaries from the scratch arena.",
	}
	rowfused := Family{
		Name:     "CodeGen row-fused (generated)",
		FuncName: "RunRowFused",
		FileName: "rowfused.gen.go",
		Comment: "RunRowFused executes the shifted-and-fused exemplar schedule\n" +
			"compiled from codegen.RowFusedDesc: per direction, all statements\n" +
			"fuse at the direction's own loop level with the accumulation\n" +
			"shifted by one, legalizing two-deep ring storage (a scalar, row,\n" +
			"or plane per parity — Table I's shrunken temporaries).",
	}
	for d := 0; d < 3; d++ {
		series.Progs = append(series.Progs, codegen.SeriesDesc(d))
		rowfused.Progs = append(rowfused.Progs, codegen.RowFusedDesc(d))
	}
	fams := []Family{
		series,
		rowfused,
		{
			Name:     "Shift-Fuse (generated)",
			FuncName: "RunShiftFuse",
			FileName: "shiftfuse.gen.go",
			Comment: "RunShiftFuse executes the fully shifted-and-fused schedule of\n" +
				"Section IV-B compiled from its description: three velocity\n" +
				"pre-passes, then per component one row statement over the cells —\n" +
				"kernel.FusedRow computes a row's three high-face fluxes and\n" +
				"consumes the low-face ones carried in a register (x), a row (y)\n" +
				"and a plane (z), the depth-one rings of the storage rule.",
			Progs: []codegen.ProgramDesc{ShiftFuseProg()},
		},
		{
			Name:     "Basic-Sched OT-16 (generated)",
			FuncName: "RunOT16",
			FileName: "ot16.gen.go",
			Comment: "RunOT16 executes the overlapped-tile schedule of Section IV-D with\n" +
				"the series intra-tile schedule on 16^3 tiles, compiled from a\n" +
				"tiled description: tile-origin loops with cdiv/fdiv bounds from\n" +
				"the polyhedral projection, tile-local temporaries allocated per\n" +
				"tile from the arena, and every tile evaluating all faces its\n" +
				"cells consume (the recomputation trade).",
			Progs: []codegen.ProgramDesc{OT16Prog()},
		},
	}
	return append(fams, temporalFamilies()...)
}

// temporalFamilies returns the temporal-blocking points: K Euler steps
// fused per sweep (the time axis in the When clause) on whole-box
// temporaries for K = 1, 2, 4, and K=2 on 32^3 tiles. Paired runs
// (EXPERIMENTS.md, "Temporal blocking") found every other tiled point
// slower than its twin (the whole-box point of its K; Shift-Fuse
// (generated) for K=1) at N = 48, 128 and 192. Whole-box K=1 ties
// Shift-Fuse (generated) once the box leaves L2, so it stays as the
// K=1 point of the K ladder; K2 OT-32 is the benchmark's tiled point.
func temporalFamilies() []Family {
	var fams []Family
	for _, p := range []struct{ k, edge int }{{1, 0}, {2, 0}, {2, 32}, {4, 0}} {
		fams = append(fams, temporalFamily(p.k, p.edge))
	}
	return fams
}

// temporalFamily builds one (K, tile) temporal point.
func temporalFamily(k, edge int) Family {
	f := Family{
		Name:      fmt.Sprintf("Temporal K%d (generated)", k),
		FuncName:  fmt.Sprintf("RunTemporalK%d", k),
		FileName:  fmt.Sprintf("temporal_k%d.gen.go", k),
		TemporalK: k,
		Progs:     []codegen.ProgramDesc{codegen.TemporalProg(k, edge)},
	}
	where := "whole-box temporaries"
	if edge > 0 {
		f.Name = fmt.Sprintf("Temporal K%d OT-%d (generated)", k, edge)
		f.FuncName = fmt.Sprintf("RunTemporalK%dOT%d", k, edge)
		f.FileName = fmt.Sprintf("temporal_k%d_ot%d.gen.go", k, edge)
		where = fmt.Sprintf("tile-local temporaries on %d^3 tiles", edge)
	}
	f.Comment = fmt.Sprintf(
		"%s executes %d explicit Euler steps per sweep (temporal blocking)\n"+
			"compiled from codegen.TemporalProg: sub-step j is a fused row-statement\n"+
			"sweep over the region grown by (K-1-j)*NGhost (the wavefront in time),\n"+
			"reading phi0 in place, then ping-pong states, with\n"+
			"%s. The last sub-step adds the\n"+
			"K-step delta state_K - phi0 to phi1, bitwise identical to composing\n"+
			"kernel.Reference %d times.",
		f.FuncName, k, where, k)
	return f
}

// fext is the face-box extension of direction d.
func fext(d int) [3]int {
	var e [3]int
	e[d] = 1
	return e
}

var dirName = [3]string{"X", "Y", "Z"}

// ShiftFuseProg describes the fully fused schedule: velocity pre-passes
// at the first three top-level positions, then per component (CLO, the
// studied order) one row statement over the cells, whose low-face fluxes
// are carried in depth-one rings along each direction.
func ShiftFuseProg() codegen.ProgramDesc {
	pd := codegen.ProgramDesc{
		Name: "shiftfuse",
		Vars: codegen.LoopVarNames(),
	}
	row := []string{codegen.Phi0}
	var fluxB [3]string
	for d := 0; d < 3; d++ {
		velB := "vel" + dirName[d]
		fluxB[d] = "flux" + dirName[d]
		pd.Buffers = append(pd.Buffers,
			codegen.BufferDesc{Name: velB, Kind: "full", Dir: d, Comps: 1},
			codegen.BufferDesc{Name: fluxB[d], Kind: "ring", Dir: d, Comps: 1, Depth: 1, Inner: codegen.CarriedAxes(d)},
		)
		pd.Stmts = append(pd.Stmts, codegen.StmtDesc{
			Name: velB, Macro: "flux1", Dir: d, Comp: kernel.VelComp(d),
			Bufs:   []string{velB},
			Domain: codegen.BoxDomainDesc(0, fext(d)),
			Sched:  codegen.ScatterDesc(3, d, 0, 0, 0),
		})
		row = append(row, velB)
	}
	row = append(row, fluxB[:]...)
	cells := codegen.BoxDomainDesc(0, [3]int{})
	for c := 0; c < kernel.NComp; c++ {
		pd.Stmts = append(pd.Stmts, codegen.StmtDesc{
			Name: fmt.Sprintf("acc-c%d", c), Macro: "rowacc", Dir: -1, Comp: c,
			Bufs:   row,
			Domain: cells,
			Sched:  codegen.ScatterDesc(3, 3+c, 0, 0, 0),
		})
	}
	return pd
}

// OT16Prog describes Basic-Sched OT-16: three tile-origin loops, and
// within each tile the full series schedule per direction over the
// tile's own face and cell boxes, with tile-local full-array
// temporaries (allocated at loop depth 3, rewound per tile).
func OT16Prog() codegen.ProgramDesc {
	const E = 16
	pd := codegen.ProgramDesc{
		Name:     "ot16",
		Vars:     []string{"tz", "ty", "tx", "z", "y", "x"},
		TileEdge: E,
	}
	var velB, fluxB [3]string
	for d := 0; d < 3; d++ {
		velB[d] = "vel" + dirName[d]
		fluxB[d] = "flux" + dirName[d]
		pd.Buffers = append(pd.Buffers,
			codegen.BufferDesc{Name: fluxB[d], Kind: "full", Dir: d, Comps: kernel.NComp, Level: 3},
			codegen.BufferDesc{Name: velB[d], Kind: "full", Dir: d, Comps: 1, Level: 3},
		)
	}
	cells := codegen.RegionDomainDesc(E, 0, [3]int{})
	seq := 0
	sched := func() codegen.ScheduleDesc {
		s := codegen.ScatterDesc(6, 0, 0, 0, seq, 0, 0, 0)
		seq++
		return s
	}
	for d := 0; d < 3; d++ {
		faces := codegen.RegionDomainDesc(E, 0, fext(d))
		for c := 0; c < kernel.NComp; c++ {
			pd.Stmts = append(pd.Stmts, codegen.StmtDesc{
				Name: fmt.Sprintf("flux1%s-c%d", dirName[d], c), Macro: "flux1", Dir: d, Comp: c,
				Bufs: []string{fluxB[d]}, Domain: faces, Sched: sched(),
			})
		}
		pd.Stmts = append(pd.Stmts, codegen.StmtDesc{
			Name: "vel" + dirName[d], Macro: "vel", Dir: d, Comp: -1,
			Bufs: []string{fluxB[d], velB[d]}, Domain: faces, Sched: sched(),
		})
		for c := 0; c < kernel.NComp; c++ {
			pd.Stmts = append(pd.Stmts, codegen.StmtDesc{
				Name: fmt.Sprintf("flux2%s-c%d", dirName[d], c), Macro: "flux2", Dir: d, Comp: c,
				Bufs: []string{velB[d], fluxB[d]}, Domain: faces, Sched: sched(),
			})
			pd.Stmts = append(pd.Stmts, codegen.StmtDesc{
				Name: fmt.Sprintf("acc%s-c%d", dirName[d], c), Macro: "acc", Dir: d, Comp: c,
				Bufs: []string{fluxB[d]}, Domain: cells, Sched: sched(),
			})
		}
	}
	return pd
}
