// Package schedc is the schedule compiler: it lowers the serializable
// What/When/Where descriptions of internal/codegen to specialized,
// arena-aware Go source — the reproduction of what the paper's CodeGen+
// tool (Section IV-E) did for the study's variants: the descriptions
// have no other executor.
//
// The input is a Family: one or more codegen.ProgramDesc values, each a
// set of statements with polyhedral iteration domains (parametric over
// the valid-box corners), scatter-form schedules, and storage-mapping
// buffer descriptions. Lowering proceeds exactly as classic polyhedral
// code generation does:
//
//  1. each statement's domain is translated to its time domain by the
//     schedule's shifts (When);
//  2. statements are grouped recursively by the static positions of
//     their scatter schedules — shared positions fuse statements into
//     one loop nest, distinct positions sequence them;
//  3. every fused loop scans the union of its members' time-domain
//     bounds (Fourier–Motzkin projections via poly.Loops), with
//     per-statement guard conditions only where a member's own bounds
//     are narrower than the union, hoisted to the outermost level where
//     they are decidable;
//  4. statement macros expand to direct flat-offset array accesses
//     (What), and buffer descriptions expand to scratch-arena
//     allocations with full-array, ring (modulo-parity), or tile-local
//     storage mappings (Where);
//  5. a row statement — a macro that is a whole x-row kernel — gets the
//     outer loops of steps 1-3 and, where the x loop would be, one call
//     of the shared row kernel in internal/kernel with the projected x
//     bounds as its row length and first offsets (emitRow). The fused
//     families lower this way: the emitted code is the loop structure,
//     the arithmetic exists once;
//  6. a point statement that is alone at the x level, unshifted along x
//     and unguarded lowers the same way (rowMember): its x loop is a
//     series row form of internal/kernel (FaceAvgRow, copy, Flux2Row,
//     DiffAccRow), called once per row. Every pass of the series family
//     and every velocity pre-pass is such a statement; only statements
//     fused with others at the x level keep the per-point expansion of
//     step 4.
//
// The emitted code depends only on the same packages the hand-written
// variants use (fab, box, kernel, scratch) and evaluates every flux as
// kernel.FaceAvg/kernel.Flux2 do — through the row kernels, whose vector
// bodies are bit-identical to their Go loops — with the per-cell x, y, z
// accumulation order, so generated runners are bit-identical to
// kernel.Reference — the same conformance contract every hand-written
// family satisfies.
package schedc

import (
	"fmt"

	"stencilsched/internal/codegen"
)

// Family is one compiled schedule family: a registry name, the Go
// identifiers to emit, and the program descriptions executed in
// sequence by the generated runner (one per direction for the
// per-direction families, a single program for the fully fused ones).
type Family struct {
	// Name is the conformance-registry name of the generated runner.
	Name string
	// FuncName is the exported Go function name of the runner.
	FuncName string
	// FileName is the base name of the emitted file (without dir).
	FileName string
	// Comment is a short description placed above the runner.
	Comment string
	// TemporalK, when positive, marks a temporal-blocking family fusing
	// that many Euler steps per sweep: the runner's contract changes to
	// the K-step delta (phi0 over valid grown by TemporalK*NGhost, phi1
	// accumulating state_K - phi0), checked by kernel.CheckStateK.
	TemporalK int
	// Progs are executed in order, each against a rewound arena mark.
	Progs []codegen.ProgramDesc
}

// TileEdge is the largest spatial tile edge of the family's programs, 0
// when none is tiled. It is emitted into the generated Entry, so a
// caller can tell that a box is smaller than the tile the runner was
// compiled for.
func (f Family) TileEdge() int {
	edge := 0
	for _, p := range f.Progs {
		edge = max(edge, p.TileEdge)
	}
	return edge
}

// axisOf maps a loop-variable name to its spatial axis: x/tx are axis 0,
// y/ty axis 1, z/tz axis 2.
func axisOf(name string) (int, error) {
	switch name {
	case "x", "tx":
		return 0, nil
	case "y", "ty":
		return 1, nil
	case "z", "tz":
		return 2, nil
	}
	return 0, fmt.Errorf("schedc: unknown loop variable %q", name)
}

// isTileVar reports whether a loop variable is a tile-origin variable.
func isTileVar(name string) bool {
	return len(name) == 2 && name[0] == 't'
}

// tileLevels returns the number of leading tile-origin loops of a
// program (0 for untiled programs).
func tileLevels(pd *codegen.ProgramDesc) int {
	n := 0
	for _, v := range pd.Vars {
		if !isTileVar(v) {
			break
		}
		n++
	}
	return n
}
