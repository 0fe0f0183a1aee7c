package poly

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// evalBound evaluates one Loops bound expression (integers, variables,
// + - *, and the max/min/cdiv/fdiv calls the nest uses) with the named
// variables bound by env.
func evalBound(t *testing.T, expr string, env map[string]int) int {
	t.Helper()
	e, err := parser.ParseExpr(expr)
	if err != nil {
		t.Fatalf("bound %q does not parse: %v", expr, err)
	}
	var eval func(ast.Expr) int
	eval = func(e ast.Expr) int {
		switch e := e.(type) {
		case *ast.BasicLit:
			v, err := strconv.Atoi(e.Value)
			if err != nil || e.Kind != token.INT {
				t.Fatalf("bound %q: literal %s", expr, e.Value)
			}
			return v
		case *ast.Ident:
			v, ok := env[e.Name]
			if !ok {
				t.Fatalf("bound %q: unbound variable %s", expr, e.Name)
			}
			return v
		case *ast.ParenExpr:
			return eval(e.X)
		case *ast.UnaryExpr:
			if e.Op == token.SUB {
				return -eval(e.X)
			}
		case *ast.BinaryExpr:
			a, b := eval(e.X), eval(e.Y)
			switch e.Op {
			case token.ADD:
				return a + b
			case token.SUB:
				return a - b
			case token.MUL:
				return a * b
			}
		case *ast.CallExpr:
			if fn, ok := e.Fun.(*ast.Ident); ok && len(e.Args) == 2 {
				a, b := eval(e.Args[0]), eval(e.Args[1])
				switch fn.Name {
				case "max":
					return max(a, b)
				case "min":
					return min(a, b)
				case "cdiv":
					return ceilDiv(a, b)
				case "fdiv":
					return floorDiv(a, b)
				}
			}
		}
		t.Fatalf("bound %q: unsupported expression %T", expr, e)
		return 0
	}
	return eval(e)
}

// scanLoops runs the nest Loops describes with its leading parameters
// (named by the first vars) bound to params, outermost loop first, and
// visits every point, parameters first — behind the set's membership
// test when any loop is Guarded, as a generated nest wraps its body.
func scanLoops(t *testing.T, loops []Loop, s *Set, vars []string, params []int, visit func(x []int)) {
	t.Helper()
	guarded := false
	for _, l := range loops {
		guarded = guarded || l.Guarded
	}
	env := map[string]int{}
	for i, p := range params {
		env[vars[i]] = p
	}
	x := append([]int(nil), params...)
	var rec func(k int)
	rec = func(k int) {
		if k == len(loops) {
			if !guarded || s.Contains(x) {
				visit(append([]int(nil), x...))
			}
			return
		}
		l := loops[k]
		for v, hi := evalBound(t, l.Lo, env), evalBound(t, l.Hi, env); v <= hi; v++ {
			env[l.Var] = v
			x = append(x[:len(params)+k], v)
			rec(k + 1)
		}
	}
	rec(0)
}

// checkNestMatchesScan binds the first len(params) dimensions of s and
// checks that the nest built from Loops visits exactly Scan's points, in
// Scan's (lexicographic) order.
func checkNestMatchesScan(t *testing.T, what string, s *Set, vars []string, params []int) {
	t.Helper()
	loops, err := s.Loops(vars, len(params))
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	bound := s.clone()
	for i, p := range params {
		eq := Affine{Coef: make([]int, i+1), Const: -p}
		eq.Coef[i] = 1
		bound.AddEq(eq)
	}
	want := bound.Enumerate()
	var got [][]int
	scanLoops(t, loops, s, vars, params, func(x []int) { got = append(got, x) })
	if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Errorf("%s at %v: nest visits %v, Scan visits %v", what, params, got, want)
	}
}

func TestGenGoBoxIsCanonicalNest(t *testing.T) {
	loops, err := Box([]int{0, -1}, []int{3, 2}).Loops([]string{"i", "j"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []Loop{
		{Var: "i", Lo: "0", Hi: "3", Los: []string{"0"}, His: []string{"3"}},
		{Var: "j", Lo: "-1", Hi: "2", Los: []string{"-1"}, His: []string{"2"}},
	}
	if !reflect.DeepEqual(loops, want) {
		t.Fatalf("loops %+v, want %+v", loops, want)
	}
}

func TestGenGoTriangleBounds(t *testing.T) {
	// { (i,j) : 0<=i<=4, 0<=j<=i }: inner bound references the outer var.
	s := NewSet(2).Range(0, 0, 4).Lower(1, 0)
	s.Add(Affine{Coef: []int{1, -1}}) // i - j >= 0
	vars := []string{"i", "j"}
	loops, err := s.Loops(vars, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hi := loops[1].Hi; !strings.Contains(hi, "i") {
		t.Fatalf("inner upper bound %q does not use i", hi)
	}
	checkNestMatchesScan(t, "triangle", s, vars, nil)
}

func TestGenGoWavefrontSlice(t *testing.T) {
	// A wavefront slice i+j = w inside a box: the equality introduces
	// coef -1/+1 rows only, so no loop is guarded and the nest is exact.
	s := Box([]int{0, 0}, []int{7, 7})
	s.AddEq(Affine{Coef: []int{1, 1}, Const: -5})
	vars := []string{"i", "j"}
	loops, err := s.Loops(vars, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range loops {
		if l.Guarded || strings.Contains(l.Lo+l.Hi, "div") {
			t.Fatalf("unit-coefficient set needs a guard: %+v", l)
		}
	}
	checkNestMatchesScan(t, "wavefront", s, vars, nil)
}

func TestGenGoNonUnitCoefficientsGetGuard(t *testing.T) {
	// { x : 0 <= 2x <= 7 } — strided-ish bounds force cdiv/fdiv and a
	// membership guard.
	s := NewSet(1)
	s.Add(Affine{Coef: []int{2}})            // 2x >= 0
	s.Add(Affine{Coef: []int{-2}, Const: 7}) // 2x <= 7
	loops, err := s.Loops([]string{"x"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l := loops[0]; !strings.Contains(l.Lo, "cdiv") || !strings.Contains(l.Hi, "fdiv") || !l.Guarded {
		t.Fatalf("want cdiv/fdiv bounds and a guard: %+v", l)
	}
	checkNestMatchesScan(t, "strided", s, []string{"x"}, nil)
}

func TestGenGoErrors(t *testing.T) {
	s := Box([]int{0}, []int{3})
	if _, err := s.Loops([]string{"i", "j"}, 0); err == nil {
		t.Error("wrong variable count accepted")
	}
	if _, err := s.Loops([]string{"i"}, 2); err == nil {
		t.Error("more parameters than dimensions accepted")
	}
	unbounded := NewSet(1).Lower(0, 0)
	if _, err := unbounded.Loops([]string{"i"}, 0); err == nil {
		t.Error("unbounded set accepted")
	}
}

func TestGenGoMatchesScanSemantics(t *testing.T) {
	// A mixed set: the nest's evaluated bounds must visit Scan's points
	// in Scan's order.
	s := NewSet(3).Range(0, 0, 3).Range(1, 0, 3).Range(2, 0, 3)
	s.Add(Affine{Coef: []int{1, 1, 1}, Const: -4}) // i+j+k >= 4
	if got := s.Count(); got != 44 {
		t.Fatalf("scan count = %d", got)
	}
	checkNestMatchesScan(t, "i+j+k>=4", s, []string{"i", "j", "k"}, nil)
}
