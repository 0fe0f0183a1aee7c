package schedc

import (
	"fmt"
	"strings"

	"stencilsched/internal/codegen"
	"stencilsched/internal/kernel"
)

// emitter carries the state of lowering one program to Go source.
type emitter struct {
	prog *codegen.ProgramDesc
	b    *strings.Builder
	bufs map[string]*bufInfo
	// hoist, when non-nil, collects the row-invariant parts of index
	// expressions while the innermost loop body is emitted into a side
	// buffer; the collected declarations are placed just above the loop.
	hoist *hoistSet
}

func (e *emitter) printf(format string, args ...any) {
	fmt.Fprintf(e.b, format, args...)
}

// hoistSet deduplicates row-invariant subexpressions hoisted out of the
// innermost loop (strength reduction: the inner loop sees base + x, all
// stride multiplies happen once per row, as in the hand-written sweeps).
type hoistSet struct {
	names map[string]string
	decls []hoistDecl
}

type hoistDecl struct{ name, expr string }

func (h *hoistSet) get(expr string) string {
	if name, ok := h.names[expr]; ok {
		return name
	}
	name := fmt.Sprintf("r%d", len(h.decls))
	h.names[expr] = name
	h.decls = append(h.decls, hoistDecl{name, expr})
	return name
}

// reduce combines the innermost-variable part of an index expression
// with its row-invariant part. With an active hoist set the row part
// becomes a named local computed above the loop; otherwise the full
// expression is emitted inline.
func (e *emitter) reduce(xTerm, row string) string {
	if e.hoist != nil {
		name := e.hoist.get(row)
		if xTerm == "" {
			return name
		}
		return xTerm + " + " + name
	}
	if xTerm == "" {
		return row
	}
	return wrapExpr(xTerm) + " + " + wrapExpr(row)
}

// bufInfo is one buffer's emitted addressing scheme.
type bufInfo struct {
	d codegen.BufferDesc
	// base is the per-axis low-corner expression of the buffer's index
	// space ("lo0" for box-level storage, "tlo0" for tile-local).
	base [3]string
	// strides/slot are identifiers of prelude locals.
	sy, sz, sc string // full arrays
	slot       string // ring slot size ("1" when the slot is a scalar)
	innerS     string // ring stride of the second inner axis
}

// rowsAlongX reports whether consecutive x coordinates are consecutive
// elements of the buffer: every full array, and a ring that stores the x
// axis per slot (not a ring along x itself, which stores a parity).
func (bi *bufInfo) rowsAlongX() bool {
	if bi.d.Kind == "full" {
		return true
	}
	for _, a := range bi.d.Inner {
		if a == 0 {
			return true
		}
	}
	return false
}

// extentExpr renders the index-space extent of axis a: the box extent
// plus one on the buffer's face direction.
func (bi *bufInfo) extentExpr(a int, hi [3]string) string {
	ext := ""
	if a == bi.d.Dir {
		ext = " + 1"
	}
	return fmt.Sprintf("%s - %s + 1%s", hi[a], bi.base[a], ext)
}

// growExpr widens a corner expression by delta cells (negative shrinks):
// the Grow of temporal working sets applied to a base or high corner.
func growExpr(corner string, delta int) string {
	switch {
	case delta > 0:
		return fmt.Sprintf("(%s + %d)", corner, delta)
	case delta < 0:
		return fmt.Sprintf("(%s - %d)", corner, -delta)
	}
	return corner
}

// bufBounds applies a buffer's Grow to its per-axis corner names,
// returning the base (low) and high expressions of its index space.
func bufBounds(bi *bufInfo, loName, hiName func(a int) string) (lo, hi [3]string) {
	for a := 0; a < 3; a++ {
		lo[a] = growExpr(loName(a), -bi.d.Grow)
		hi[a] = growExpr(hiName(a), bi.d.Grow)
	}
	return lo, hi
}

// emitBufPrelude writes the allocation and stride locals of one buffer.
// hi names the per-axis high-corner expressions of the buffer's box.
func (e *emitter) emitBufPrelude(bi *bufInfo, hi [3]string, ind string) {
	n := bi.d.Name
	switch bi.d.Kind {
	case "full":
		bi.sy, bi.sz, bi.sc = n+"SY", n+"SZ", n+"SC"
		e.printf("%s%s := %s\n", ind, bi.sy, bi.extentExpr(0, hi))
		e.printf("%s%s := %s * (%s)\n", ind, bi.sz, bi.sy, bi.extentExpr(1, hi))
		e.printf("%s%s := %s * (%s)\n", ind, bi.sc, bi.sz, bi.extentExpr(2, hi))
		e.printf("%s%s := ar.Floats(%s * %d)\n", ind, n, bi.sc, bi.d.Comps)
	case "ring":
		if bi.d.Depth != 1 && bi.d.Depth != 2 {
			panic(fmt.Sprintf("schedc: ring %s depth %d unsupported", n, bi.d.Depth))
		}
		switch len(bi.d.Inner) {
		case 0:
			bi.slot = "1"
			if bi.d.Depth == 1 {
				// One carried scalar: a register of the row kernel.
				return
			}
			e.printf("%s%s := ar.Floats(%d)\n", ind, n, bi.d.Depth*bi.d.Comps)
			return
		case 1:
			bi.slot = n + "Slot"
			e.printf("%s%s := %s\n", ind, bi.slot, bi.extentExpr(bi.d.Inner[0], hi))
		case 2:
			bi.innerS = n + "SIn"
			bi.slot = n + "Slot"
			e.printf("%s%s := %s\n", ind, bi.innerS, bi.extentExpr(bi.d.Inner[0], hi))
			e.printf("%s%s := %s * (%s)\n", ind, bi.slot, bi.innerS, bi.extentExpr(bi.d.Inner[1], hi))
		default:
			panic(fmt.Sprintf("schedc: ring %s with %d inner axes", n, len(bi.d.Inner)))
		}
		size := bi.slot
		if k := bi.d.Depth * bi.d.Comps; k != 1 {
			size = fmt.Sprintf("%d * %s", k, bi.slot)
		}
		e.printf("%s%s := ar.Floats(%s)\n", ind, n, size)
	default:
		panic(fmt.Sprintf("schedc: unknown buffer kind %q", bi.d.Kind))
	}
}

// index renders the flat index of the buffer at spatial coordinates ax
// (per-axis expressions) for component c. Axis 0 varies with the
// innermost loop; everything else is row-invariant and hoistable.
func (e *emitter) index(bi *bufInfo, ax [3]string, c int) string {
	if bi.d.Comps == 1 {
		c = 0
	}
	switch bi.d.Kind {
	case "full":
		row := fmt.Sprintf("%s*(%s - %s) + %s*(%s - %s) - %s",
			bi.sy, ax[1], bi.base[1], bi.sz, ax[2], bi.base[2], bi.base[0])
		if c != 0 {
			row += fmt.Sprintf(" + %d*%s", c, bi.sc)
		}
		return e.reduce(ax[0], row)
	case "ring":
		if bi.d.Depth != 2 {
			panic(fmt.Sprintf("schedc: ring %s of depth %d is carried storage, indexed by row statements only", bi.d.Name, bi.d.Depth))
		}
		d := bi.d.Dir
		if d == 0 {
			// Parity on the innermost axis: nothing to hoist, and the
			// slot is a scalar (no inner axes).
			idx := fmt.Sprintf("((%s - %s) & 1)", ax[0], bi.base[0])
			if c != 0 {
				idx += fmt.Sprintf(" + %d", 2*c)
			}
			return idx
		}
		row := fmt.Sprintf("((%s - %s) & 1)", ax[d], bi.base[d])
		if bi.slot != "1" {
			row += " * " + bi.slot
		}
		xTerm := ""
		for i, a := range bi.d.Inner {
			if a == 0 {
				xTerm = ax[0]
				row += " - " + bi.base[0]
			} else if i == 0 {
				row += fmt.Sprintf(" + %s - %s", wrapExpr(ax[a]), bi.base[a])
			} else {
				row += fmt.Sprintf(" + %s*(%s - %s)", bi.innerS, ax[a], bi.base[a])
			}
		}
		if c != 0 {
			if bi.slot == "1" {
				row += fmt.Sprintf(" + %d", 2*c)
			} else {
				row += fmt.Sprintf(" + %d*%s", 2*c, bi.slot)
			}
		}
		return e.reduce(xTerm, row)
	}
	panic("schedc: unreachable")
}

// emitScopedBuffers allocates the buffers declared at loop depth level:
// tile-local storage of the overlapped schedules. It emits the tile-bound
// locals the buffer geometry needs, marks the arena, and returns the
// rewind statement the caller emits after the nest (empty when no buffer
// lives at this depth).
func (e *emitter) emitScopedBuffers(level int, ind string) string {
	var scoped []*bufInfo
	for _, name := range bufOrder(e.prog) {
		bi := e.bufs[name]
		if bi.d.Level == level {
			scoped = append(scoped, bi)
		}
	}
	if len(scoped) == 0 {
		return ""
	}
	if level != tileLevels(e.prog) || e.prog.TileEdge <= 0 {
		panic(fmt.Sprintf("schedc: buffers at depth %d need tile loops", level))
	}
	E := e.prog.TileEdge
	// Tile bounds: tloA/thiA from the tile-origin variables in scope.
	for lvl := 0; lvl < level; lvl++ {
		v := e.prog.Vars[lvl]
		a, _ := axisOf(v)
		e.printf("%stlo%d := lo%d + %d*%s\n", ind, a, a, E, v)
		e.printf("%sthi%d := min(hi%d, tlo%d+%d)\n", ind, a, a, a, E-1)
	}
	e.printf("%sam := ar.Mark()\n", ind)
	for _, bi := range scoped {
		var hi [3]string
		bi.base, hi = bufBounds(bi,
			func(a int) string { return fmt.Sprintf("tlo%d", a) },
			func(a int) string { return fmt.Sprintf("thi%d", a) })
		e.emitBufPrelude(bi, hi, ind)
	}
	return "ar.Rewind(am)"
}

// bufOrder returns buffer names in declaration order.
func bufOrder(pd *codegen.ProgramDesc) []string {
	names := make([]string, len(pd.Buffers))
	for i, b := range pd.Buffers {
		names[i] = b.Name
	}
	return names
}

// operand is a stencil source resolved to emitted names: the component
// slice, its y and z stride expressions and the flat offset of a point.
// It is phi0 (the reserved buffer name codegen.Phi0) or a full buffer —
// the ping-pong states of the temporal sweeps.
type operand struct {
	slice  string
	sy, sz string
	off    func(ax [3]string) string
}

// dirStride is the operand's stride expression along direction d.
func (o operand) dirStride(d int) string {
	return [...]string{"1", o.sy, o.sz}[d]
}

func (e *emitter) operand(name string, c int) operand {
	if name == codegen.Phi0 {
		return operand{slice: fmt.Sprintf("p0_%d", c), sy: "s0y", sz: "s0z", off: e.off0}
	}
	bi, ok := e.bufs[name]
	if !ok || bi.d.Kind != "full" {
		panic(fmt.Sprintf("schedc: %q is not a stencil source (phi0 or a full buffer)", name))
	}
	return operand{slice: name, sy: bi.sy, sz: bi.sz,
		off: func(ax [3]string) string { return e.index(bi, ax, c) }}
}

// faceAvgExpr is the textual expansion of kernel.FaceAvg(ph, off, s):
// the fourth-order face average as one expression over kernel.C1/C2, for
// the point statements that keep their x loop — those fused with others at
// the x level, which is the x program of CodeGen row-fused alone (every
// other face average is a kernel.FaceAvgRow call, see rowMember). Expanded
// inline instead of emitted as a call because the runner exceeds the
// inliner's big-caller threshold, where only calls cheaper than FaceAvg
// are inlined. The expression tree is identical to the kernel's, and the
// conformance suite pins bit-exactness against kernel.Reference.
func faceAvgExpr(ph, off, s string) string {
	lo, lo2, hi := off+"-"+s, off+"-2*"+s, off+"+"+s
	if s == "1" {
		lo, lo2, hi = off+"-1", off+"-2", off+"+1"
	}
	return fmt.Sprintf("kernel.C1*(%s[%s]+%s[%s]) + kernel.C2*(%s[%s]+%s[%s])",
		ph, lo, ph, off, ph, lo2, ph, hi)
}

// off0 renders the flat offset of coordinates ax in a phi0 component.
func (e *emitter) off0(ax [3]string) string {
	return e.reduce(ax[0], fmt.Sprintf("s0y*(%s - g0[1]) + s0z*(%s - g0[2]) - g0[0]", ax[1], ax[2]))
}

// off1 renders the flat offset of coordinates ax in a phi1 component.
func (e *emitter) off1(ax [3]string) string {
	return e.reduce(ax[0], fmt.Sprintf("s1y*(%s - g1[1]) + s1z*(%s - g1[2]) - g1[0]", ax[1], ax[2]))
}

// axes returns the statement's iteration-coordinate expressions.
func (e *emitter) axes(ls *loweredStmt) [3]string {
	var ax [3]string
	for a := 0; a < 3; a++ {
		ax[a] = ls.axisExpr(e.prog.Vars, a)
	}
	return ax
}

// shiftAxis returns ax with axis a shifted by k cells.
func shiftAxis(ax [3]string, a, k int) [3]string {
	out := ax
	out[a] = addConst(ax[a], k)
	return out
}

// buf resolves the i-th buffer operand of a statement.
func (e *emitter) buf(st *codegen.StmtDesc, i int) *bufInfo {
	bi, ok := e.bufs[st.Bufs[i]]
	if !ok {
		panic(fmt.Sprintf("schedc: statement %s: unknown buffer %q", st.Name, st.Bufs[i]))
	}
	return bi
}

// emitMacro expands one instance of a point statement inside its x loop
// (emitRow lowers the statements that need no x loop). Every macro writes
// exactly the expressions of the reference kernel's Whats (the faceAvgExpr
// expansion of kernel.FaceAvg, kernel.Flux2, x-y-z accumulation order), so
// the generated code is bit-identical to kernel.Reference.
func (e *emitter) emitMacro(ls *loweredStmt, ind string) {
	st := ls.st
	ax := e.axes(ls)
	d := st.Dir
	buf := func(i int) *bufInfo { return e.buf(st, i) }
	switch st.Macro {
	case "flux1", "sflux1":
		// Fourth-order face average of component Comp: "flux1" of phi0
		// into Bufs[0], "sflux1" of a source state (Bufs[0]: phi0 or a
		// ping-pong buffer) into Bufs[1].
		from, to := codegen.Phi0, 0
		if st.Macro == "sflux1" {
			from, to = st.Bufs[0], 1
		}
		src, f := e.operand(from, st.Comp), buf(to)
		e.printf("%s{\n", ind)
		e.printf("%s\tsi := %s\n", ind, src.off(ax))
		e.printf("%s\t%s[%s] = %s\n",
			ind, f.d.Name, e.index(f, ax, st.Comp),
			faceAvgExpr(src.slice, "si", src.dirStride(d)))
		e.printf("%s}\n", ind)
	case "vel":
		// Capture the advection velocity: Bufs[0] is the flux storage,
		// Bufs[1] the velocity storage.
		f, v := buf(0), buf(1)
		e.printf("%s%s[%s] = %s[%s]\n",
			ind, v.d.Name, e.index(v, ax, 0), f.d.Name, e.index(f, ax, kernel.VelComp(d)))
	case "flux2":
		// flux = velocity * face average, in place. Bufs[0] velocity,
		// Bufs[1] flux.
		v, f := buf(0), buf(1)
		e.printf("%s{\n", ind)
		e.printf("%s\tfi := %s\n", ind, e.index(f, ax, st.Comp))
		e.printf("%s\t%s[fi] = kernel.Flux2(%s[%s], %s[fi])\n",
			ind, f.d.Name, v.d.Name, e.index(v, ax, 0), f.d.Name)
		e.printf("%s}\n", ind)
	case "acc":
		// Accumulate the flux divergence of direction d into phi1.
		f := buf(0)
		e.printf("%s{\n", ind)
		e.printf("%s\to1 := %s\n", ind, e.off1(ax))
		e.printf("%s\tp1_%d[o1] += %s[%s] - %s[%s]\n",
			ind, st.Comp, f.d.Name, e.index(f, shiftAxis(ax, d, 1), st.Comp), f.d.Name, e.index(f, ax, st.Comp))
		e.printf("%s}\n", ind)
	default:
		panic(fmt.Sprintf("schedc: unknown macro %q", st.Macro))
	}
}

// isRowMacro reports whether a statement macro is a row statement: its
// What is a whole x-row kernel of internal/kernel rather than one point.
func isRowMacro(name string) bool {
	switch name {
	case "rowacc", "roweuler", "rowdelta":
		return true
	}
	return false
}

// emitRow lowers the statement rowMember chose at the innermost level: no
// x loop is emitted — the projected x bounds [lo, hi] become the length
// and first offsets of one call. A point statement becomes the series row
// form that is its x loop (kernel.FaceAvgRow, copy, kernel.Flux2Row,
// kernel.DiffAccRow over the same index expressions emitMacro would
// evaluate per point); a row statement becomes its fused row kernel
// (emitFusedRow).
func (e *emitter) emitRow(ls *loweredStmt, lo, hi, ind string) {
	st := ls.st
	if ls.shifts[len(ls.shifts)-1] != 0 {
		panic(fmt.Sprintf("schedc: row statement %s is shifted along its row", st.Name))
	}
	if len(ls.guards) > 0 {
		panic(fmt.Sprintf("schedc: row statement %s needs per-point guards", st.Name))
	}
	ax := e.axes(ls)
	ax[0] = "xLo"
	d := st.Dir
	buf := func(i int) *bufInfo { return e.buf(st, i) }
	e.printf("%sxLo := %s\n", ind, lo)
	e.printf("%sn := %s - xLo + 1\n", ind, hi)
	switch st.Macro {
	case "flux1", "sflux1":
		from, to := codegen.Phi0, 0
		if st.Macro == "sflux1" {
			from, to = st.Bufs[0], 1
		}
		src, f := e.operand(from, st.Comp), buf(to)
		e.printf("%ssi, fi := %s, %s\n", ind, src.off(ax), e.index(f, ax, st.Comp))
		e.printf("%skernel.FaceAvgRow(%s[fi:fi+n], %s, si, %s)\n", ind, f.d.Name, src.slice, src.dirStride(d))
	case "vel":
		f, v := buf(0), buf(1)
		e.printf("%svi, fi := %s, %s\n", ind, e.index(v, ax, 0), e.index(f, ax, kernel.VelComp(d)))
		e.printf("%scopy(%s[vi:vi+n], %s[fi:fi+n])\n", ind, v.d.Name, f.d.Name)
	case "flux2":
		v, f := buf(0), buf(1)
		e.printf("%sfi := %s\n", ind, e.index(f, ax, st.Comp))
		e.printf("%skernel.Flux2Row(%s[fi:fi+n], %s[%s:])\n", ind, f.d.Name, v.d.Name, e.index(v, ax, 0))
	case "acc":
		f := buf(0)
		e.printf("%so1 := %s\n", ind, e.off1(ax))
		e.printf("%skernel.DiffAccRow(p1_%d[o1:o1+n], %s[%s:], %s[%s:])\n",
			ind, st.Comp, f.d.Name, e.index(f, shiftAxis(ax, d, 1), st.Comp), f.d.Name, e.index(f, ax, st.Comp))
	case "rowacc", "roweuler", "rowdelta":
		e.emitFusedRow(ls, ax, ind)
	default:
		panic(fmt.Sprintf("schedc: unknown macro %q", st.Macro))
	}
}

// emitFusedRow emits the kernel call of a row statement, after emitRow's
// xLo and n. Bufs are the source state, the three velocity fields, the
// three carried low-face flux rings (x: a register of the kernel, y: a
// row, z: a plane) and, for "roweuler", the destination state. A row on
// the low y or z face of the statement's region has no predecessor to
// carry from, so its ring row is seeded by kernel.SeedRow first; the low x
// face is seeded in the call.
func (e *emitter) emitFusedRow(ls *loweredStmt, ax [3]string, ind string) {
	st := ls.st
	c := st.Comp
	src := e.operand(st.Bufs[0], c)
	e.printf("%so := %s\n", ind, src.off(ax))
	var vel [3]*bufInfo
	for d := 0; d < 3; d++ {
		vel[d] = e.buf(st, 1+d)
		e.printf("%sv%c := %s[%s:]\n", ind, "xyz"[d], vel[d].d.Name, e.index(vel[d], ax, 0))
	}
	for d := 1; d < 3; d++ {
		f := e.buf(st, 4+d)
		if f.d.Kind != "ring" || f.d.Depth != 1 || len(f.d.Inner) != d {
			panic(fmt.Sprintf("schedc: row statement %s: %s is not the carried ring of direction %d", st.Name, f.d.Name, d))
		}
		idx := fmt.Sprintf("xLo - %s", f.base[0])
		if d == 2 {
			idx += fmt.Sprintf(" + %s*(%s - %s)", f.innerS, ax[1], f.base[1])
		}
		e.printf("%sf%c := %s[%s:][:n]\n", ind, "xyz"[d], f.d.Name, idx)
		// First row / plane: the statement's own lower bound at the
		// axis's loop level.
		lvl := spatialLevel(e.prog.Vars, d)
		e.printf("%sif %s == %s {\n", ind, e.prog.Vars[lvl], ls.loops[lvl].Lo)
		e.printf("%s\tkernel.SeedRow(f%c, v%c, %s, o, %s)\n", ind, "xyz"[d], "xyz"[d], src.slice, src.dirStride(d))
		e.printf("%s}\n", ind)
	}
	args := fmt.Sprintf("%s, o, %s, %s, vx[1:], vy[%s:], vz[%s:], fy, fz, kernel.Flux2(vx[0], kernel.FaceAvg(%s, o, 1))",
		src.slice, src.sy, src.sz, vel[1].sy, vel[2].sz, src.slice)
	switch st.Macro {
	case "rowacc":
		e.printf("%so1 := %s\n", ind, e.off1(ax))
		e.printf("%skernel.FusedRow(p1_%d[o1:o1+n], %s)\n", ind, c, args)
	case "roweuler":
		dst := e.buf(st, 7)
		e.printf("%sdi := %s\n", ind, e.index(dst, ax, c))
		e.printf("%skernel.EulerRow(%s[di:di+n], %s, -kernel.EulerDt)\n", ind, dst.d.Name, args)
	case "rowdelta":
		e.printf("%so0, o1 := %s, %s\n", ind, e.off0(ax), e.off1(ax))
		e.printf("%skernel.EulerDeltaRow(p1_%d[o1:o1+n], p0_%d[o0:o0+n], %s, -kernel.EulerDt)\n", ind, c, c, args)
	}
}
