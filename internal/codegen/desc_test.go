package codegen

import (
	"encoding/json"
	"reflect"
	"testing"

	"stencilsched/internal/box"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
)

// TestBoxDomainDescScansFaceBox checks that the parametric domain
// description, with its box parameters pinned to a concrete box, scans
// exactly the points of that box's face box in (z, y, x) order of
// coordinates.
func TestBoxDomainDescScansFaceBox(t *testing.T) {
	b := box.New(ivect.New(-1, 2, 0), ivect.New(3, 5, 4))
	vals := []int{b.Lo[0], b.Hi[0], b.Lo[1], b.Hi[1], b.Lo[2], b.Hi[2]}
	for d := 0; d < 3; d++ {
		want := map[[3]int]bool{}
		b.SurroundingFaces(d).ForEach(func(p ivect.IntVect) {
			want[[3]int{p[2], p[1], p[0]}] = true
		})
		s := BoxDomainDesc(0, faceExt(d)).Set()
		for i, v := range vals {
			s.Range(i, v, v)
		}
		got := map[[3]int]bool{}
		s.Scan(func(x []int) {
			got[[3]int{x[NumBoxParams], x[NumBoxParams+1], x[NumBoxParams+2]}] = true
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("d=%d: pinned desc scans %d points, face box has %d", d, len(got), len(want))
		}
	}
}

// TestScatterShape pins the scatter layout: static positions interleave
// the loop variables, and a wrong position count panics.
func TestScatterShape(t *testing.T) {
	s := ScatterDesc(2, 7, 8, 9)
	if len(s.Rows) != 5 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	if got := evalSched(s, 3, 4); !reflect.DeepEqual(got, []int{7, 3, 8, 4, 9}) {
		t.Fatalf("time vector = %v", got)
	}
	if s.Levels() != 2 || s.Pos(1) != 8 || s.ShiftOf(1) != 0 {
		t.Fatalf("Levels/Pos/ShiftOf = %d/%d/%d", s.Levels(), s.Pos(1), s.ShiftOf(1))
	}
	defer func() {
		if recover() == nil {
			t.Error("bad position count did not panic")
		}
	}()
	ScatterDesc(2, 1)
}

// TestShift checks that Shift moves one loop-variable row and leaves the
// schedule it was called on unchanged.
func TestShift(t *testing.T) {
	orig := ScatterDesc(2, 0, 0, 0)
	s := orig.Shift(1, 5)
	if got := evalSched(s, 3, 4); !reflect.DeepEqual(got, []int{0, 3, 0, 9, 0}) {
		t.Fatalf("shifted time vector = %v", got)
	}
	if got := evalSched(orig, 3, 4); !reflect.DeepEqual(got, []int{0, 3, 0, 4, 0}) {
		t.Fatalf("original mutated: %v", got)
	}
}

// evalSched maps an iteration point to its time vector under s.
func evalSched(s ScheduleDesc, x ...int) []int {
	t := make([]int, len(s.Rows))
	for i, r := range s.Rows {
		t[i] = r.Affine().Eval(x)
	}
	return t
}

// TestFusedUsesRingStorage asserts the Where shrinks with the shift: the
// series schedule stores full face arrays, the row-fused one a two-deep
// ring holding only the axes inside the fused loop level.
func TestFusedUsesRingStorage(t *testing.T) {
	n := 8
	for d := 0; d < 3; d++ {
		for _, bd := range SeriesDesc(d).Buffers {
			if bd.Kind != "full" || bd.Dir != d {
				t.Errorf("series d=%d: buffer %s is %q along %d", d, bd.Name, bd.Kind, bd.Dir)
			}
		}
		for _, bd := range RowFusedDesc(d).Buffers {
			if bd.Kind != "ring" || bd.Depth != 2 || !reflect.DeepEqual(bd.Inner, CarriedAxes(d)) {
				t.Errorf("row-fused d=%d: buffer %s is %q depth %d inner %v", d, bd.Name, bd.Kind, bd.Depth, bd.Inner)
			}
		}
		// Per component: a ring slot spans n^d cells (1, a row, a
		// plane); the full array spans the (n+1) x n x n face box.
		ring, full := 2, (n+1)*n*n
		for range CarriedAxes(d) {
			ring *= n
		}
		if ring >= full {
			t.Errorf("d=%d: ring of %d values is not smaller than the %d-value face array", d, ring, full)
		}
	}
}

// TestDescJSONRoundTrip pins serializability: a program description
// survives a JSON round trip bit-for-bit, so schedule families can be
// stored and diffed as data.
func TestDescJSONRoundTrip(t *testing.T) {
	for d := 0; d < 3; d++ {
		for _, pd := range []ProgramDesc{SeriesDesc(d), RowFusedDesc(d)} {
			data, err := json.Marshal(pd)
			if err != nil {
				t.Fatal(err)
			}
			var back ProgramDesc
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pd, back) {
				t.Errorf("%s: description changed across JSON round trip", pd.Name)
			}
		}
	}
}

// TestDescSchedulesAreScatterForm checks every exemplar statement schedule
// against the scatter-form contract the compiler lowers, and that the
// row-fused accumulation carries its +1 shift at the fused level.
func TestDescSchedulesAreScatterForm(t *testing.T) {
	for d := 0; d < 3; d++ {
		for _, pd := range []ProgramDesc{SeriesDesc(d), RowFusedDesc(d)} {
			if len(pd.Stmts) != 3*kernel.NComp+1 {
				t.Fatalf("%s: %d statements", pd.Name, len(pd.Stmts))
			}
			for _, st := range pd.Stmts {
				if err := st.Sched.ScatterForm(3); err != nil {
					t.Errorf("%s/%s: %v", pd.Name, st.Name, err)
				}
			}
		}
		rf := RowFusedDesc(d)
		lvl := fusedLevel(d)
		acc := rf.Stmts[len(rf.Stmts)-1]
		if got := acc.Sched.ShiftOf(lvl); got != 1 {
			t.Errorf("d=%d: acc shift at fused level = %d, want 1", d, got)
		}
		flux := rf.Stmts[0]
		if got := flux.Sched.ShiftOf(lvl); got != 0 {
			t.Errorf("d=%d: flux1 shift at fused level = %d, want 0", d, got)
		}
	}
}
