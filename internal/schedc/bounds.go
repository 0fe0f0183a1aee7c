package schedc

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file folds and compares the symbolic bound expressions that
// poly.Loops renders (renderRest grammar: integer/variable/scaled-variable
// terms joined by " + " and " - "). Bounds of the statements fused into one
// loop differ only by constant offsets in practice (shifted schedules), so
// recognizing "lo2 - 1" <= "lo2" symbolically lets the compiler emit the
// exact union bound instead of a runtime min/max chain, and lets it decide
// per-statement guards by expression identity.

// linExpr is a parsed affine expression: variable coefficients plus a
// constant.
type linExpr struct {
	coef map[string]int
	c    int
}

// parseLin parses the renderRest grammar; ok is false for anything richer
// (min/max folds, cdiv/fdiv bounds), which the callers treat as opaque.
func parseLin(s string) (linExpr, bool) {
	s = strings.TrimSpace(s)
	// poly renders a negated multi-term bound as "-(rest)"; parse the
	// inside and flip every sign.
	if strings.HasPrefix(s, "-(") && strings.HasSuffix(s, ")") {
		inner, ok := parseLin(s[2 : len(s)-1])
		if !ok {
			return inner, false
		}
		for k := range inner.coef {
			inner.coef[k] = -inner.coef[k]
		}
		inner.c = -inner.c
		return inner, true
	}
	e := linExpr{coef: map[string]int{}}
	if strings.ContainsAny(s, "(),") {
		return e, false
	}
	rest := strings.TrimSpace(s)
	sign := 1
	first := true
	for rest != "" {
		if !first {
			switch {
			case strings.HasPrefix(rest, "+ "):
				sign = 1
				rest = rest[2:]
			case strings.HasPrefix(rest, "- "):
				sign = -1
				rest = rest[2:]
			default:
				return e, false
			}
		}
		first = false
		sp := strings.IndexByte(rest, ' ')
		var tok string
		if sp < 0 {
			tok, rest = rest, ""
		} else {
			tok, rest = rest[:sp], rest[sp+1:]
		}
		if tok == "" {
			return e, false
		}
		tsign := sign
		if tok[0] == '-' {
			tsign = -sign
			tok = tok[1:]
		}
		if k, v, ok := strings.Cut(tok, "*"); ok {
			n, err := strconv.Atoi(k)
			if err != nil {
				return e, false
			}
			e.coef[v] += tsign * n
		} else if n, err := strconv.Atoi(tok); err == nil {
			e.c += tsign * n
		} else {
			e.coef[tok] += tsign * 1
		}
	}
	for k, v := range e.coef {
		if v == 0 {
			delete(e.coef, k)
		}
	}
	return e, true
}

// render writes the expression back in canonical renderRest form
// (variables sorted, constant last).
func (e linExpr) render() string {
	vars := make([]string, 0, len(e.coef))
	for v := range e.coef {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var b strings.Builder
	for _, v := range vars {
		c := e.coef[v]
		term := v
		if c != 1 && c != -1 {
			term = fmt.Sprintf("%d*%s", abs(c), v)
		}
		if b.Len() == 0 {
			if c < 0 {
				b.WriteString("-")
			}
			b.WriteString(term)
		} else if c < 0 {
			b.WriteString(" - " + term)
		} else {
			b.WriteString(" + " + term)
		}
	}
	if b.Len() == 0 {
		return strconv.Itoa(e.c)
	}
	if e.c > 0 {
		fmt.Fprintf(&b, " + %d", e.c)
	} else if e.c < 0 {
		fmt.Fprintf(&b, " - %d", -e.c)
	}
	return b.String()
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

// sameShape reports whether two parsed expressions differ only in their
// constants.
func sameShape(a, b linExpr) bool {
	if len(a.coef) != len(b.coef) {
		return false
	}
	for k, v := range a.coef {
		if b.coef[k] != v {
			return false
		}
	}
	return true
}

// divExpr is a parsed bound: an affine expression, optionally under a
// floor or ceiling division by a positive constant (fn "fdiv"/"cdiv", the
// tile-origin bounds of poly.Loops; fn "" for a bare affine bound).
type divExpr struct {
	fn  string
	lin linExpr
	div int
}

// parseDiv parses an affine bound or "fdiv(affine, k)" / "cdiv(affine, k)"
// with a positive integer k.
func parseDiv(s string) (divExpr, bool) {
	if lin, ok := parseLin(s); ok {
		return divExpr{lin: lin}, true
	}
	if len(s) < 6 || (s[:5] != "fdiv(" && s[:5] != "cdiv(") || s[len(s)-1] != ')' {
		return divExpr{}, false
	}
	i := strings.LastIndexByte(s, ',')
	if i < 0 {
		return divExpr{}, false
	}
	lin, ok := parseLin(s[5:i])
	k, err := strconv.Atoi(strings.TrimSpace(s[i+1 : len(s)-1]))
	if !ok || err != nil || k <= 0 {
		return divExpr{}, false
	}
	return divExpr{fn: s[:4], lin: lin, div: k}, true
}

func (e divExpr) render() string {
	if e.fn == "" {
		return e.lin.render()
	}
	return fmt.Sprintf("%s(%s, %d)", e.fn, e.lin.render(), e.div)
}

// foldBound folds candidate bound expressions into one: fn is "min" or
// "max". Expressions that parse to the same affine shape — bare, or under
// the same division, which is monotone in its numerator — fold exactly by
// constant comparison; anything else falls back to the min/max builtins
// (evaluated once, in the emitted bound locals).
func foldBound(fn string, exprs []string) string {
	// Canonicalize and dedupe while keeping order.
	var uniq []string
	seen := map[string]bool{}
	for _, e := range exprs {
		e = canonExpr(e)
		if !seen[e] {
			seen[e] = true
			uniq = append(uniq, e)
		}
	}
	// Exact symbolic fold among same-shape expressions.
	for i := 0; i < len(uniq); i++ {
		a, okA := parseDiv(uniq[i])
		for j := i + 1; j < len(uniq) && okA; {
			b, okB := parseDiv(uniq[j])
			if !okB || a.fn != b.fn || a.div != b.div || !sameShape(a.lin, b.lin) {
				j++
				continue
			}
			if (fn == "min") == (b.lin.c < a.lin.c) {
				a = b
			}
			uniq[i] = a.render()
			uniq = append(uniq[:j], uniq[j+1:]...)
		}
	}
	out := uniq[0]
	for _, e := range uniq[1:] {
		out = fmt.Sprintf("%s(%s, %s)", fn, out, e)
	}
	return out
}

// canonExpr rewrites a bound expression to canonical form: affine
// expressions are re-rendered (normalizing "-(...)" negations), also
// under a cdiv/fdiv, and cdiv/fdiv calls with constant arguments are
// evaluated (tile-origin bounds over constant extents come out as plain
// integers).
func canonExpr(e string) string {
	if v, ok := evalConstDiv(e); ok {
		return strconv.Itoa(v)
	}
	if p, ok := parseDiv(e); ok {
		return p.render()
	}
	return e
}

// evalConstDiv evaluates "cdiv(a, b)" or "fdiv(a, b)" when both
// arguments are integer constants.
func evalConstDiv(s string) (int, bool) {
	e, ok := parseDiv(s)
	if !ok || e.fn == "" || len(e.lin.coef) != 0 {
		return 0, false
	}
	a, b := e.lin.c, e.div
	q := a / b
	if e.fn == "cdiv" {
		if a%b != 0 && a > 0 {
			q++
		}
	} else if a%b != 0 && a < 0 {
		q--
	}
	return q, true
}

// boundEqual reports whether two bound expressions are symbolically the
// same value.
func boundEqual(a, b string) bool {
	if a == b {
		return true
	}
	pa, okA := parseLin(a)
	pb, okB := parseLin(b)
	return okA && okB && sameShape(pa, pb) && pa.c == pb.c
}

// addConst returns expr + k, simplified when expr parses.
func addConst(expr string, k int) string {
	if k == 0 {
		return expr
	}
	if e, ok := parseLin(expr); ok {
		e.c += k
		return e.render()
	}
	if k > 0 {
		return fmt.Sprintf("%s + %d", expr, k)
	}
	return fmt.Sprintf("%s - %d", expr, -k)
}

// wrapExpr parenthesizes a compound expression for embedding inside a
// larger arithmetic expression.
func wrapExpr(expr string) string {
	if !strings.ContainsAny(expr, "+- *") {
		return expr
	}
	return "(" + expr + ")"
}
