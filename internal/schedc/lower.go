package schedc

import (
	"fmt"
	"sort"
	"strings"

	"stencilsched/internal/codegen"
	"stencilsched/internal/poly"
)

// loweredStmt is one statement prepared for nest emission: its scatter
// positions and shifts, the per-level symbolic bounds of its time domain,
// and the guard conditions left over after union-bound fusion.
type loweredStmt struct {
	st     *codegen.StmtDesc
	pos    []int       // static positions, len(vars)+1
	shifts []int       // per-level schedule shifts
	loops  []poly.Loop // per-level time-domain bounds (simplified)
	// guards are per-level residual conditions (bound var at that level);
	// emitted at the outermost point where the variable is in scope and
	// every statement of the group shares them, else around the body.
	guards []guard
}

// guard is one residual execution condition of a fused statement.
type guard struct {
	level int
	cond  string
}

// spatialLevel returns the loop level of the spatial loop variable of
// axis a (tile-origin variables carry no axis of their own).
func spatialLevel(vars []string, a int) int {
	for lvl := len(vars) - 1; lvl >= 0; lvl-- {
		if ax, _ := axisOf(vars[lvl]); ax == a && !isTileVar(vars[lvl]) {
			return lvl
		}
	}
	panic(fmt.Sprintf("schedc: no loop variable for axis %d", a))
}

// axisExpr returns the statement's iteration-coordinate expression for
// spatial axis a in terms of the loop variables (time coordinates): the
// loop variable minus the schedule shift at the axis's level.
func (ls *loweredStmt) axisExpr(vars []string, a int) string {
	lvl := spatialLevel(vars, a)
	return addConst(vars[lvl], -ls.shifts[lvl])
}

// timeDomain translates a statement's iteration domain to its time domain
// under the schedule's shifts: substituting x_i = t_i - shift_i leaves
// coefficients unchanged and folds the shifts into the constants.
func timeDomain(st *codegen.StmtDesc, nparams int, shifts []int) codegen.SetDesc {
	out := codegen.SetDesc{Dim: st.Domain.Dim}
	for _, con := range st.Domain.Cons {
		nc := codegen.AffineDesc{Coef: append([]int(nil), con.Coef...), Const: con.Const}
		for i, s := range shifts {
			if k := nparams + i; k < len(con.Coef) {
				nc.Const -= con.Coef[k] * s
			}
		}
		out.Cons = append(out.Cons, nc)
	}
	return out
}

// lowerStmts prepares every statement of a program for emission. allVars
// is the full dimension naming: box parameters then loop variables.
func lowerStmts(pd *codegen.ProgramDesc) ([]*loweredStmt, []string, error) {
	nvars := len(pd.Vars)
	params := codegen.BoxParamNames()
	allVars := append(append([]string(nil), params...), pd.Vars...)
	var out []*loweredStmt
	for i := range pd.Stmts {
		st := &pd.Stmts[i]
		if err := st.Sched.ScatterForm(nvars); err != nil {
			return nil, nil, fmt.Errorf("statement %s: %w", st.Name, err)
		}
		ls := &loweredStmt{st: st}
		for lvl := 0; lvl <= nvars; lvl++ {
			ls.pos = append(ls.pos, st.Sched.Pos(lvl))
		}
		for lvl := 0; lvl < nvars; lvl++ {
			ls.shifts = append(ls.shifts, st.Sched.ShiftOf(lvl))
		}
		td := timeDomain(st, len(params), ls.shifts)
		if td.Dim != len(allVars) {
			return nil, nil, fmt.Errorf("statement %s: domain dim %d, want %d",
				st.Name, td.Dim, len(allVars))
		}
		loops, err := td.Set().Loops(allVars, len(params))
		if err != nil {
			return nil, nil, fmt.Errorf("statement %s: %w", st.Name, err)
		}
		for i := range loops {
			loops[i].Lo = foldBound("max", loops[i].Los)
			loops[i].Hi = foldBound("min", loops[i].His)
		}
		ls.loops = loops
		out = append(out, ls)
	}
	return out, allVars, nil
}

// emitNest recursively emits the loop nest for a group of statements that
// share all static positions above level. ind is the current indentation.
func (e *emitter) emitNest(group []*loweredStmt, level int, ind string) {
	nvars := len(e.prog.Vars)
	if level == nvars {
		// Innermost: order by the final static position, emit bodies with
		// their residual guards.
		sort.SliceStable(group, func(i, j int) bool {
			return group[i].pos[nvars] < group[j].pos[nvars]
		})
		for _, ls := range group {
			e.emitBody(ls, ind)
		}
		return
	}

	// Partition by the static position at this level, preserving order.
	type part struct {
		pos     int
		members []*loweredStmt
	}
	var parts []part
	byPos := map[int]int{}
	for _, ls := range group {
		p := ls.pos[level]
		if i, ok := byPos[p]; ok {
			parts[i].members = append(parts[i].members, ls)
		} else {
			byPos[p] = len(parts)
			parts = append(parts, part{pos: p, members: []*loweredStmt{ls}})
		}
	}
	sort.SliceStable(parts, func(i, j int) bool { return parts[i].pos < parts[j].pos })

	v := e.prog.Vars[level]
	for _, p := range parts {
		// Union bounds over the members' time domains at this level.
		var los, his []string
		for _, ls := range p.members {
			los = append(los, ls.loops[level].Lo)
			his = append(his, ls.loops[level].Hi)
		}
		lo := foldBound("min", los)
		hi := foldBound("max", his)
		// Residual guards for members whose own bounds are narrower.
		for _, ls := range p.members {
			if !boundEqual(ls.loops[level].Lo, lo) {
				ls.guards = append(ls.guards, guard{level, fmt.Sprintf("%s >= %s", v, ls.loops[level].Lo)})
			}
			if !boundEqual(ls.loops[level].Hi, hi) {
				ls.guards = append(ls.guards, guard{level, fmt.Sprintf("%s <= %s", v, ls.loops[level].Hi)})
			}
		}
		// Hoist guards shared by every member whose variables are already
		// in scope (bound at outer levels).
		hoisted := e.sharedGuards(p.members, level)
		bind := ind
		if len(hoisted) > 0 {
			e.printf("%sif %s {\n", ind, strings.Join(hoisted, " && "))
			bind += "\t"
		}
		var row *loweredStmt
		if level == nvars-1 {
			row = e.rowMember(p.members)
		}
		switch {
		case row != nil:
			// One row-kernel call stands where the x loop would, in a
			// block of its own for the row's locals.
			e.printf("%s{\n", bind)
			e.emitRow(row, lo, hi, bind+"\t")
			e.printf("%s}\n", bind)
		case level == nvars-1:
			// Innermost loop: emit its body into a side buffer while the
			// hoist set collects the row-invariant parts of every index
			// expression, then place those as locals above the loop —
			// the inner loop does base+x additions only, every stride
			// multiply happens once per row.
			e.hoist = &hoistSet{names: map[string]string{}}
			sub := new(strings.Builder)
			saved := e.b
			e.b = sub
			e.emitNest(p.members, level+1, bind+"\t\t")
			e.b = saved
			e.printf("%s{\n", bind)
			for _, dcl := range e.hoist.decls {
				e.printf("%s\t%s := %s\n", bind, dcl.name, dcl.expr)
			}
			e.hoist = nil
			e.printf("%s\tfor %s, %sHi := %s, %s; %s <= %sHi; %s++ {\n", bind, v, v, lo, hi, v, v, v)
			e.b.WriteString(sub.String())
			e.printf("%s\t}\n", bind)
			e.printf("%s}\n", bind)
		default:
			e.printf("%sfor %s, %sHi := %s, %s; %s <= %sHi; %s++ {\n", bind, v, v, lo, hi, v, v, v)
			// Tile-local storage: allocated once all tile-origin loops are
			// entered, released per iteration of the innermost tile loop.
			rewind := e.emitScopedBuffers(level+1, bind+"\t")
			e.emitNest(p.members, level+1, bind+"\t")
			if rewind != "" {
				e.printf("%s\t%s\n", bind, rewind)
			}
			e.printf("%s}\n", bind)
		}
		if len(hoisted) > 0 {
			e.printf("%s}\n", ind)
		}
	}
}

// sharedGuards removes and returns the guard conditions held by every
// member of a group whose bound variables are in scope outside level —
// those can wrap the whole group instead of the innermost bodies.
func (e *emitter) sharedGuards(members []*loweredStmt, level int) []string {
	if len(members) == 0 {
		return nil
	}
	var shared []string
	for _, g := range members[0].guards {
		if g.level >= level {
			continue
		}
		all := true
		for _, m := range members[1:] {
			found := false
			for _, h := range m.guards {
				if h.level == g.level && h.cond == g.cond {
					found = true
					break
				}
			}
			if !found {
				all = false
				break
			}
		}
		if all {
			shared = append(shared, g.cond)
		}
	}
	if len(shared) == 0 {
		return nil
	}
	for _, m := range members {
		var rest []guard
		for _, g := range m.guards {
			keep := true
			for _, s := range shared {
				if g.cond == s {
					keep = false
					break
				}
			}
			if keep {
				rest = append(rest, g)
			}
		}
		m.guards = rest
	}
	return shared
}

// emitBody writes one statement's macro expansion, wrapped in its
// residual guard conditions.
func (e *emitter) emitBody(ls *loweredStmt, ind string) {
	var conds []string
	for _, g := range ls.guards {
		conds = append(conds, g.cond)
	}
	ls.guards = nil
	if len(conds) > 0 {
		e.printf("%sif %s {\n", ind, strings.Join(conds, " && "))
		e.emitMacro(ls, ind+"\t")
		e.printf("%s}\n", ind)
		return
	}
	e.emitMacro(ls, ind)
}

// rowMember returns the statement of a group at the innermost level whose
// x loop is emitted as one row-kernel call, nil when the group keeps its
// per-point loop. That is a row statement — it owns its whole x range, so
// it cannot share the level with another statement — or a point statement
// that is alone at the level, unshifted along x, unguarded (a lone
// member's outer guards are all hoisted by now) and whose buffers store x
// rows contiguously: its x loop is exactly a series row form of
// internal/kernel.
func (e *emitter) rowMember(members []*loweredStmt) *loweredStmt {
	for _, ls := range members {
		if isRowMacro(ls.st.Macro) {
			if len(members) > 1 {
				panic(fmt.Sprintf("schedc: row statement %s is fused with %d other statements at the x level",
					ls.st.Name, len(members)-1))
			}
			return ls
		}
	}
	ls := members[0]
	if len(members) > 1 || ls.shifts[len(ls.shifts)-1] != 0 || len(ls.guards) > 0 {
		return nil
	}
	for _, name := range ls.st.Bufs {
		if bi, ok := e.bufs[name]; ok && !bi.rowsAlongX() {
			return nil
		}
	}
	return ls
}
