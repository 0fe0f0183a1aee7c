package poly

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the Loops golden files")

// goldenCases are the representative code-generation shapes of the
// schedule compiler, committed as golden files of their Loops bounds so
// any change to bound emission shows up as a reviewable diff instead of a
// silent behavior change. Parameters (box corners, tile size symbols)
// exercise the parametric form schedc lowers through.
func goldenCases() []struct {
	name   string
	params int
	vars   []string
	set    *Set
} {
	// box: the plain valid-box nest with symbolic corners —
	// params (lo0, hi0, lo1, hi1), loops (y, x).
	boxSet := NewSet(6)
	boxSet.Add(Affine{Coef: []int{0, 0, -1, 0, 1, 0}}) // y >= lo1
	boxSet.Add(Affine{Coef: []int{0, 0, 0, 1, -1, 0}}) // y <= hi1
	boxSet.Add(Affine{Coef: []int{-1, 0, 0, 0, 0, 1}}) // x >= lo0
	boxSet.Add(Affine{Coef: []int{0, 1, 0, 0, 0, -1}}) // x <= hi0
	// shifted union: the row-fused time loop — faces run t in
	// lo..hi+1 and the shifted accumulation t-1 in lo..hi, so the fused
	// loop scans the union lo..hi+1 (one symbolic dimension pair).
	union := NewSet(3)
	union.Add(Affine{Coef: []int{-1, 0, 1}})           // t >= lo
	union.Add(Affine{Coef: []int{0, 1, -1}, Const: 1}) // t <= hi+1
	// tile: tile-origin loop plus intra-tile loop with tile edge 8 —
	// non-unit coefficients force cdiv/fdiv bounds and a guard.
	tile := NewSet(4)
	tile.Add(Affine{Coef: []int{-1, 0, 0, 1}})           // x >= lo
	tile.Add(Affine{Coef: []int{0, 1, 0, -1}})           // x <= hi
	tile.Add(Affine{Coef: []int{-1, 0, -8, 1}})          // x >= lo + 8 t
	tile.Add(Affine{Coef: []int{1, 0, 8, -1}, Const: 7}) // x <= lo + 8 t + 7
	// wavefront slice: the anti-diagonal y+x = w inside a box; the
	// equality gives exact unit bounds, no guard.
	wf := NewSet(4)
	wf.Add(Affine{Coef: []int{0, 0, 1, 0}})     // y >= 0
	wf.Add(Affine{Coef: []int{1, 0, -1, 0}})    // y <= n
	wf.Add(Affine{Coef: []int{0, 0, 0, 1}})     // x >= 0
	wf.Add(Affine{Coef: []int{1, 0, 0, -1}})    // x <= n
	wf.AddEq(Affine{Coef: []int{0, 1, -1, -1}}) // y + x == w
	// guard: a genuinely strided set 0 <= 2x <= 2n+1, whose FM bounds
	// over-approximate — the membership-guard emission case.
	guard := NewSet(2)
	guard.Add(Affine{Coef: []int{0, 2}})            // 2x >= 0
	guard.Add(Affine{Coef: []int{2, -2}, Const: 1}) // 2x <= 2n+1

	return []struct {
		name   string
		params int
		vars   []string
		set    *Set
	}{
		{"box", 4, []string{"lo0", "hi0", "lo1", "hi1", "y", "x"}, boxSet},
		{"shifted_union", 2, []string{"lo", "hi", "t"}, union},
		{"tile", 2, []string{"lo", "hi", "t", "x"}, tile},
		{"wavefront_slice", 2, []string{"n", "w", "y", "x"}, wf},
		{"guard", 1, []string{"n", "x"}, guard},
	}
}

// renderLoops prints a nest's bounds one loop per line, outermost first,
// marking the loops whose body needs a membership guard.
func renderLoops(loops []Loop) string {
	var b strings.Builder
	for _, l := range loops {
		fmt.Fprintf(&b, "%s: %s .. %s", l.Var, l.Lo, l.Hi)
		if l.Guarded {
			b.WriteString(" (guarded)")
		}
		b.WriteString("\n")
	}
	return b.String()
}

func TestGenGoGolden(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			loops, err := tc.set.Loops(tc.vars, tc.params)
			if err != nil {
				t.Fatal(err)
			}
			code := renderLoops(loops)
			path := filepath.Join("testdata", tc.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(code), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run `go test ./internal/poly -run Golden -update`): %v", err)
			}
			if code != string(want) {
				t.Errorf("loop bounds changed; diff against %s and re-run with -update if intended.\ngot:\n%s\nwant:\n%s",
					path, code, want)
			}
		})
	}
}

// TestGenGoGoldenSemantics pins the guard-emission contract alongside the
// text: the tile case needs cdiv/fdiv + membership guard, the unit cases
// must not pay for one.
func TestGenGoGoldenSemantics(t *testing.T) {
	for _, tc := range goldenCases() {
		loops, err := tc.set.Loops(tc.vars, tc.params)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		guarded := false
		for _, l := range loops {
			guarded = guarded || l.Guarded
		}
		wantGuard := tc.name == "tile" || tc.name == "guard"
		if guarded != wantGuard {
			t.Errorf("%s: guarded = %v, want %v", tc.name, guarded, wantGuard)
		}
		if len(loops) != len(tc.vars)-tc.params {
			t.Errorf("%s: %d loops for %d loop dims", tc.name, len(loops), len(tc.vars)-tc.params)
		}
	}
}

// TestGenGoParamsMatchesBoundEnumeration cross-checks every golden
// case's parametric bounds against Scan on numeric instantiations:
// binding the parameters and scanning must visit exactly the points the
// nest built from Loops visits.
func TestGenGoParamsMatchesBoundEnumeration(t *testing.T) {
	binds := map[string][][]int{
		"box":             {{0, 3, -1, 2}, {5, 5, 0, 0}, {2, 1, 0, 3}},
		"shifted_union":   {{0, 7}, {-3, -3}},
		"tile":            {{0, 15}, {-3, 20}, {5, 5}},
		"wavefront_slice": {{4, 0}, {4, 3}, {4, 8}, {5, 11}},
		"guard":           {{0}, {3}},
	}
	for _, tc := range goldenCases() {
		for _, params := range binds[tc.name] {
			checkNestMatchesScan(t, tc.name, tc.set, tc.vars, params)
		}
	}
	// The tile nest visits every point of the interval once, in the tile
	// its offset from lo names.
	tile := goldenCases()[2]
	for _, bounds := range [][2]int{{0, 15}, {-3, 20}, {5, 5}} {
		lo, hi := bounds[0], bounds[1]
		loops, err := tile.set.Loops(tile.vars, tile.params)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		scanLoops(t, loops, tile.set, tile.vars, []int{lo, hi}, func(x []int) {
			n++
			if want := (x[3] - lo) / 8; x[2] != want {
				t.Errorf("lo=%d hi=%d: x=%d in tile %d, want %d", lo, hi, x[3], x[2], want)
			}
		})
		if want := hi - lo + 1; n != want {
			t.Errorf("lo=%d hi=%d: nest visited %d points, want %d", lo, hi, n, want)
		}
	}
}
