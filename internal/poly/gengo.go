package poly

import (
	"fmt"
	"strings"
)

// Loop is one loop of a generated nest: the variable name and its Go
// lower/upper bound expressions, ready to render as
//
//	for v := Lo; v <= Hi; v++ { ... }
//
// Guarded reports that a bound came from a constraint with a non-unit
// coefficient on this variable, so the Fourier–Motzkin projection may
// over-approximate (integer gaps) and the nest needs a membership guard
// around its body.
type Loop struct {
	Var     string
	Lo, Hi  string
	Guarded bool
	// Los and His are the individual candidate bounds Lo and Hi fold
	// (Lo = max of Los, Hi = min of His) — consumers that merge several
	// sets into one nest fold the raw candidates themselves.
	Los, His []string
}

// Loops computes the bound expressions of every loop dimension of the
// set, treating the first params dimensions as externally bound symbols:
// their names may appear inside bound expressions, but no loops are
// produced for them. This is the parametric form a schedule compiler
// needs — a box-size-generic nest has its box corners as parameters and
// only the spatial dimensions as loops. vars names all Dim dimensions,
// parameters first.
//
// Bounds come from the same Fourier–Motzkin projections Scan uses, so
// for unit-coefficient sets (boxes, shifted unions, wavefront slices)
// the nest visits exactly the set's points; constraints with non-unit
// coefficients (tile sets) use the cdiv/fdiv helpers of Helpers and mark
// the loop Guarded.
func (s *Set) Loops(vars []string, params int) ([]Loop, error) {
	if len(vars) != s.Dim {
		return nil, fmt.Errorf("poly: %d variable names for %d dims", len(vars), s.Dim)
	}
	if params < 0 || params > s.Dim {
		return nil, fmt.Errorf("poly: %d parameters in %d-d set", params, s.Dim)
	}
	// Build projections, innermost last (as in Scan). The projection for
	// the outermost loop may still involve every parameter.
	projs := make([]*Set, s.Dim)
	cur := s.clone()
	for k := s.Dim - 1; k >= params; k-- {
		projs[k] = cur
		if k > 0 {
			cur = cur.EliminateLast()
		}
	}
	loops := make([]Loop, 0, s.Dim-params)
	for k := params; k < s.Dim; k++ {
		lbs, ubs, guard, err := boundExprs(projs[k], k, vars)
		if err != nil {
			return nil, err
		}
		loops = append(loops, Loop{
			Var:     vars[k],
			Lo:      foldBounds(lbs, "max"),
			Hi:      foldBounds(ubs, "min"),
			Guarded: guard,
			Los:     lbs,
			His:     ubs,
		})
	}
	return loops, nil
}

// Helpers returns the integer-division helper functions the generated
// code calls.
func Helpers() string {
	return `func cdiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a > 0) == (b > 0) {
		q++
	}
	return q
}

func fdiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
`
}

// boundExprs renders the lower and upper bound expressions of variable k
// given the projection's constraints. guard reports whether any constraint
// had |coef| > 1 (integer-gap risk needing a membership guard).
func boundExprs(proj *Set, k int, vars []string) (lbs, ubs []string, guard bool, err error) {
	for _, a := range proj.Cons {
		c := a.coef(k)
		if c == 0 {
			continue
		}
		rest := renderRest(a, k, vars)
		switch {
		case c == 1:
			lbs = append(lbs, negate(rest))
		case c == -1:
			ubs = append(ubs, rest)
		case c > 1:
			lbs = append(lbs, fmt.Sprintf("cdiv(%s, %d)", negate(rest), c))
			guard = true
		default:
			ubs = append(ubs, fmt.Sprintf("fdiv(%s, %d)", rest, -c))
			guard = true
		}
	}
	if len(lbs) == 0 || len(ubs) == 0 {
		return nil, nil, false, fmt.Errorf("poly: variable %s unbounded", vars[k])
	}
	return lbs, ubs, guard, nil
}

// renderRest renders the constraint's terms excluding variable k as a Go
// expression (the "rest" in c*x_k + rest >= 0).
func renderRest(a Affine, k int, vars []string) string {
	var terms []string
	for i, c := range a.Coef {
		if i == k || c == 0 {
			continue
		}
		switch c {
		case 1:
			terms = append(terms, vars[i])
		case -1:
			terms = append(terms, "-"+vars[i])
		default:
			terms = append(terms, fmt.Sprintf("%d*%s", c, vars[i]))
		}
	}
	if a.Const != 0 || len(terms) == 0 {
		terms = append(terms, fmt.Sprintf("%d", a.Const))
	}
	expr := terms[0]
	for _, t := range terms[1:] {
		if strings.HasPrefix(t, "-") {
			expr += " - " + t[1:]
		} else {
			expr += " + " + t
		}
	}
	return expr
}

// negate renders -(expr), simplifying single terms (including "-0" -> "0").
func negate(expr string) string {
	if strings.HasPrefix(expr, "-") && !strings.ContainsAny(expr[1:], "+- ") {
		return expr[1:]
	}
	if !strings.ContainsAny(expr, "+- ") {
		if expr == "0" {
			return "0"
		}
		return "-" + expr
	}
	return fmt.Sprintf("-(%s)", expr)
}

// foldBounds folds multiple bound expressions with max/min.
func foldBounds(exprs []string, fn string) string {
	out := exprs[0]
	for _, e := range exprs[1:] {
		out = fmt.Sprintf("%s(%s, %s)", fn, out, e)
	}
	return out
}
