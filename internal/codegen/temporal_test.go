package codegen

import "testing"

// TestTemporalProgValidates checks the well-formedness the compiler
// relies on for every temporal description: each statement's domain
// spans the box parameters and the loop variables, its schedule is a
// scatter schedule over those variables (one time-vector length for the
// whole program), and every buffer it names is phi0 or declared.
func TestTemporalProgValidates(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		for _, tile := range []int{0, 16} {
			pd := TemporalProg(k, tile)
			declared := map[string]bool{Phi0: true}
			for _, bd := range pd.Buffers {
				declared[bd.Name] = true
			}
			for _, st := range pd.Stmts {
				if st.Domain.Dim != NumBoxParams+len(pd.Vars) {
					t.Errorf("k=%d tile=%d %s: domain has %d dims, want %d", k, tile, st.Name, st.Domain.Dim, NumBoxParams+len(pd.Vars))
				}
				if err := st.Sched.ScatterForm(len(pd.Vars)); err != nil {
					t.Errorf("k=%d tile=%d %s: %v", k, tile, st.Name, err)
				}
				for _, b := range st.Bufs {
					if !declared[b] {
						t.Errorf("k=%d tile=%d %s: undeclared buffer %q", k, tile, st.Name, b)
					}
				}
			}
		}
	}
}
