// Package codegen holds the What/When/Where descriptions the paper built
// its variants from with CodeGen+ (Section IV-E), as plain data that the
// schedule compiler internal/schedc turns into the Go of
// internal/variants/generated:
//
//   - What — statement macros plus an integer-tuple set defining the domain
//     of iterations of each statement (poly.Set);
//   - When — a schedule mapping from domain iterations to a global
//     lexicographic time vector; changing only this mapping re-orders the
//     computation (shifting, fusing, tiling) without touching the
//     statement bodies;
//   - Where — storage mapping macros that map indexed values to storage
//     locations, so data placement (full arrays, ring buffers, tile-local
//     caches) can change without changing the high-level code.
//
// As with CodeGen+, the descriptions are compiled, not executed: the
// generated runners are differentially tested against an independent
// reference (kernel.Reference, composed K times for the time-domain
// schedules) by internal/conform.
//
// The descriptions are parametric: domains are polyhedra over six leading
// symbol dimensions — the valid-box corners — followed by the loop
// dimensions, so one description serves every box size, and the compiler
// emits the parametric bounds as Go expressions.
package codegen

import (
	"fmt"

	"stencilsched/internal/kernel"
	"stencilsched/internal/poly"
)

// NumBoxParams is the number of leading parameter dimensions of every
// exemplar domain: the low and high corner of the valid box per axis.
const NumBoxParams = 6

// BoxParamNames names the parameter dimensions, in domain order.
func BoxParamNames() []string {
	return []string{"lo0", "hi0", "lo1", "hi1", "lo2", "hi2"}
}

// LoopVarNames names the spatial loop dimensions of the exemplar domains,
// outermost first (the (z, y, x) nest of the hand-written families).
func LoopVarNames() []string { return []string{"z", "y", "x"} }

// AffineDesc is a serializable affine expression (see poly.Affine).
type AffineDesc struct {
	Coef  []int `json:"coef,omitempty"`
	Const int   `json:"const,omitempty"`
}

// Affine converts the description to its poly form.
func (a AffineDesc) Affine() poly.Affine {
	return poly.Affine{Coef: append([]int(nil), a.Coef...), Const: a.Const}
}

// SetDesc is a serializable conjunction of affine inequalities Cons[i] >= 0
// over Dim dimensions — a statement's iteration domain.
type SetDesc struct {
	Dim  int          `json:"dim"`
	Cons []AffineDesc `json:"cons"`
}

// Set materializes the description as a polyhedral set.
func (d SetDesc) Set() *poly.Set {
	s := poly.NewSet(d.Dim)
	for _, c := range d.Cons {
		s.Add(c.Affine())
	}
	return s
}

// ScheduleDesc is a serializable schedule: affine rows over the loop
// dimensions mapping an iteration vector to its time vector.
type ScheduleDesc struct {
	Rows []AffineDesc `json:"rows"`
}

// ScatterDesc builds the classic CodeGen+ scatter schedule for a statement
// at static position pos within each loop level: the time vector
// interleaves static constants and loop variables,
//
//	[pos[0], x0, pos[1], x1, ..., x_{dim-1}, pos[dim]]
//
// pos must have dim+1 entries. Statements sharing loop levels fuse by
// sharing static positions; shifting a statement is adding a constant to a
// variable row.
func ScatterDesc(dim int, pos ...int) ScheduleDesc {
	if len(pos) != dim+1 {
		panic(fmt.Sprintf("codegen: scatter needs %d positions, got %d", dim+1, len(pos)))
	}
	rows := make([]AffineDesc, 0, 2*dim+1)
	for i := 0; i < dim; i++ {
		rows = append(rows, AffineDesc{Const: pos[i]})
		coef := make([]int, dim)
		coef[i] = 1
		rows = append(rows, AffineDesc{Coef: coef})
	}
	rows = append(rows, AffineDesc{Const: pos[dim]})
	return ScheduleDesc{Rows: rows}
}

// Shift adds offset to the i-th loop-variable row (row 2i+1), returning a
// new description — the "shift" of shift-and-fuse, in serializable form.
func (d ScheduleDesc) Shift(i, offset int) ScheduleDesc {
	rows := append([]AffineDesc(nil), d.Rows...)
	r := rows[2*i+1]
	rows[2*i+1] = AffineDesc{Coef: append([]int(nil), r.Coef...), Const: r.Const + offset}
	return ScheduleDesc{Rows: rows}
}

// Levels returns the number of loop levels of a scatter-form schedule.
func (d ScheduleDesc) Levels() int { return (len(d.Rows) - 1) / 2 }

// Pos returns the static position at level i (row 2i).
func (d ScheduleDesc) Pos(i int) int { return d.Rows[2*i].Const }

// ShiftOf returns the constant shift of the loop-variable row at level i.
func (d ScheduleDesc) ShiftOf(i int) int { return d.Rows[2*i+1].Const }

// ScatterForm checks that the schedule is a scatter schedule over dim loop
// variables: rows alternate static constants and shifted identity rows
// (row 2i+1 = x_i + c). The schedule compiler lowers exactly this form.
func (d ScheduleDesc) ScatterForm(dim int) error {
	if len(d.Rows) != 2*dim+1 {
		return fmt.Errorf("codegen: schedule has %d rows, scatter over %d vars needs %d",
			len(d.Rows), dim, 2*dim+1)
	}
	for i := 0; i < dim; i++ {
		if len(d.Rows[2*i].Coef) != 0 {
			return fmt.Errorf("codegen: row %d is not static", 2*i)
		}
		r := d.Rows[2*i+1]
		for j, c := range r.Coef {
			want := 0
			if j == i {
				want = 1
			}
			if c != want {
				return fmt.Errorf("codegen: row %d is not a shifted identity of x%d", 2*i+1, i)
			}
		}
		if len(r.Coef) <= i {
			return fmt.Errorf("codegen: row %d does not read x%d", 2*i+1, i)
		}
	}
	if len(d.Rows[2*dim].Coef) != 0 {
		return fmt.Errorf("codegen: final row is not static")
	}
	return nil
}

// BufferDesc is a serializable Where: one temporary field of the schedule,
// with its storage mapping.
//
// Kind "full" is a full array over the face box of direction Dir (Comps
// component planes). Kind "ring" is a Depth-deep ring along direction Dir,
// indexed by the face coordinate modulo Depth; each ring slot stores only
// the axes listed in Inner (innermost-first), because values at positions
// outside the fused loop level are dead once the outer loops advance —
// this is how the x/y/z carried caches of the hand-written fused sweeps
// (scalar, row, plane) arise from one storage rule.
//
// Level is the loop depth at which the buffer is allocated: 0 allocates in
// the runner preamble over the valid box; a positive level allocates after
// that many loops, over the bounds current at that depth (tile-local
// storage of the overlapped schedules).
//
// Grow widens a full buffer's extent by that many cells on every side of
// its base box before the Dir face extension — the storage form of a
// temporal-blocking working set, whose statements at sub-step k range over
// the base box grown by (K-1-k)*NGhost. Dir -1 means a cell-centered
// buffer with no face extension on any axis (e.g. the ping-pong states of
// a temporal sweep).
//
// A ring of Depth 1 is carried storage: the low-face flux a row statement
// finds where its predecessor along Dir left the high-face one, one value
// per position of the Inner axes (CarriedAxes(Dir): a scalar in x, a row
// in y, a plane in z).
type BufferDesc struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	Dir   int    `json:"dir"`
	Comps int    `json:"comps"`
	Depth int    `json:"depth,omitempty"`
	Inner []int  `json:"inner,omitempty"`
	Level int    `json:"level,omitempty"`
	Grow  int    `json:"grow,omitempty"`
}

// StmtDesc is a serializable scheduled statement: a macro name (resolved
// against the statement-body table of the consumer), its direction and
// component arguments, the buffers it touches (in the macro's role order),
// an iteration domain over the parameter+loop dimensions, and a
// scatter-form schedule over the loop dimensions.
//
// The macros "rowacc", "roweuler" and "rowdelta" make a row statement: the
// What is a row kernel of internal/kernel (FusedRow, EulerRow,
// EulerDeltaRow) applied to a whole x-row of the domain at once, so a
// consumer iterates the outer loop dimensions only and hands the row's x
// extent to the kernel. Their Bufs are the source state (Phi0 or a full
// buffer), the three velocity fields, the three carried flux rings and,
// for "roweuler", the destination state.
type StmtDesc struct {
	Name   string       `json:"name"`
	Macro  string       `json:"macro"`
	Dir    int          `json:"dir"`
	Comp   int          `json:"comp"`
	Bufs   []string     `json:"bufs,omitempty"`
	Domain SetDesc      `json:"domain"`
	Sched  ScheduleDesc `json:"sched"`
}

// ProgramDesc is a complete serializable What/When/Where description of one
// schedule family pass: loop variables (outermost first), temporaries, and
// scheduled statements. TileEdge, when nonzero, marks the leading
// len(Vars)-3 variables as tile-origin loops of that edge length
// (overlapped-tile schedules).
type ProgramDesc struct {
	Name     string       `json:"name"`
	Dir      int          `json:"dir"`
	Vars     []string     `json:"vars"`
	TileEdge int          `json:"tile_edge,omitempty"`
	Buffers  []BufferDesc `json:"buffers"`
	Stmts    []StmtDesc   `json:"stmts"`
}

// BoxDomainDesc builds the parametric domain of the valid box with each
// axis extended by ext[axis] on the high side (face boxes), over extra
// leading loop dimensions: the result has NumBoxParams + extraVars + 3
// dimensions, the spatial loops ordered (z, y, x).
func BoxDomainDesc(extraVars int, ext [3]int) SetDesc {
	dim := NumBoxParams + extraVars + 3
	d := SetDesc{Dim: dim}
	for lvl := 0; lvl < 3; lvl++ {
		axis := 2 - lvl // loop order z, y, x
		li := NumBoxParams + extraVars + lvl
		lo := make([]int, dim)
		lo[li] = 1
		lo[2*axis] = -1
		d.Cons = append(d.Cons, AffineDesc{Coef: lo}) // v - lo >= 0
		hi := make([]int, dim)
		hi[li] = -1
		hi[2*axis+1] = 1
		d.Cons = append(d.Cons, AffineDesc{Coef: hi, Const: ext[axis]}) // hi + ext - v >= 0
	}
	return d
}

// fusedLevel returns the loop level of direction d in the (z, y, x) nest.
func fusedLevel(d int) int { return 2 - d }

// faceExt is the high-side extension of the face box of direction d.
func faceExt(d int) [3]int {
	var e [3]int
	e[d] = 1
	return e
}

// SeriesDesc describes the original series-of-loops schedule of Fig. 6
// (component loop outside) for direction d: every statement a full pass at
// a distinct top-level static position, full-array flux/velocity storage.
func SeriesDesc(d int) ProgramDesc {
	faces := BoxDomainDesc(0, faceExt(d))
	cells := BoxDomainDesc(0, [3]int{})
	pd := ProgramDesc{
		Name: fmt.Sprintf("series-d%d", d),
		Dir:  d,
		Vars: LoopVarNames(),
		Buffers: []BufferDesc{
			{Name: "flux", Kind: "full", Dir: d, Comps: kernel.NComp},
			{Name: "vel", Kind: "full", Dir: d, Comps: 1},
		},
	}
	pos := 0
	next := func() int { pos++; return pos - 1 }
	for c := 0; c < kernel.NComp; c++ {
		pd.Stmts = append(pd.Stmts, StmtDesc{
			Name: "flux1", Macro: "flux1", Dir: d, Comp: c, Bufs: []string{"flux"},
			Domain: faces, Sched: ScatterDesc(3, next(), 0, 0, 0),
		})
	}
	pd.Stmts = append(pd.Stmts, StmtDesc{
		Name: "vel", Macro: "vel", Dir: d, Comp: -1, Bufs: []string{"flux", "vel"},
		Domain: faces, Sched: ScatterDesc(3, next(), 0, 0, 0),
	})
	for c := 0; c < kernel.NComp; c++ {
		pd.Stmts = append(pd.Stmts, StmtDesc{
			Name: "flux2", Macro: "flux2", Dir: d, Comp: c, Bufs: []string{"vel", "flux"},
			Domain: faces, Sched: ScatterDesc(3, next(), 0, 0, 0),
		})
		pd.Stmts = append(pd.Stmts, StmtDesc{
			Name: "acc", Macro: "acc", Dir: d, Comp: c, Bufs: []string{"flux"},
			Domain: cells, Sched: ScatterDesc(3, next(), 0, 0, 0),
		})
	}
	return pd
}

// RowFusedDesc describes the shifted-and-fused schedule for direction d:
// all statements share loop levels down to the direction's own loop, the
// accumulation is shifted by +1 there, and the flux/velocity storage
// shrinks to a two-deep ring along the fused dimension — only the axes
// inside the fused level are stored per ring slot.
func RowFusedDesc(d int) ProgramDesc {
	faces := BoxDomainDesc(0, faceExt(d))
	cells := BoxDomainDesc(0, [3]int{})
	lvl := fusedLevel(d)
	// Axes at loop levels deeper than the fused level, innermost-first:
	// level l hosts axis 2-l, so levels lvl+1..2 host axes 1-lvl..0.
	var inner []int
	for axis := 0; axis < 2-lvl; axis++ {
		inner = append(inner, axis)
	}
	pd := ProgramDesc{
		Name: fmt.Sprintf("rowfused-d%d", d),
		Dir:  d,
		Vars: LoopVarNames(),
		Buffers: []BufferDesc{
			{Name: "flux", Kind: "ring", Dir: d, Comps: kernel.NComp, Depth: 2, Inner: inner},
			{Name: "vel", Kind: "ring", Dir: d, Comps: 1, Depth: 2, Inner: inner},
		},
	}
	mk := func(after int) []int {
		pos := make([]int, 4)
		pos[lvl+1] = after
		return pos
	}
	seq := 0
	for c := 0; c < kernel.NComp; c++ {
		pd.Stmts = append(pd.Stmts, StmtDesc{
			Name: "flux1", Macro: "flux1", Dir: d, Comp: c, Bufs: []string{"flux"},
			Domain: faces, Sched: ScatterDesc(3, mk(seq)...),
		})
		seq++
	}
	pd.Stmts = append(pd.Stmts, StmtDesc{
		Name: "vel", Macro: "vel", Dir: d, Comp: -1, Bufs: []string{"flux", "vel"},
		Domain: faces, Sched: ScatterDesc(3, mk(seq)...),
	})
	seq++
	for c := 0; c < kernel.NComp; c++ {
		pd.Stmts = append(pd.Stmts, StmtDesc{
			Name: "flux2", Macro: "flux2", Dir: d, Comp: c, Bufs: []string{"vel", "flux"},
			Domain: faces, Sched: ScatterDesc(3, mk(seq)...),
		})
		seq++
	}
	for c := 0; c < kernel.NComp; c++ {
		pd.Stmts = append(pd.Stmts, StmtDesc{
			Name: "acc", Macro: "acc", Dir: d, Comp: c, Bufs: []string{"flux"},
			Domain: cells, Sched: ScatterDesc(3, mk(seq)...).Shift(lvl, 1),
		})
		seq++
	}
	return pd
}
