// Package generated holds schedule runners compiled to Go by the
// internal/schedc schedule compiler. Every *.gen.go file in this package
// is emitted by cmd/schedgen from the declarative What/When/Where
// descriptions in internal/schedc and internal/codegen — edit the
// descriptions (or the compiler) and re-run `go generate ./...`, never
// the emitted files. A test in this package fails when the committed
// files drift from what the compiler emits.
package generated

//go:generate go run stencilsched/cmd/schedgen -out .

import (
	"stencilsched/internal/box"
	"stencilsched/internal/fab"
)

// Entry is one compiled schedule runner, under the same contract as a
// conformance-registry runner: phi0 covers the ghosted valid box, the
// flux divergence accumulates into phi1 over valid, and execution is
// serial within the box regardless of threads.
//
// TemporalK > 0 marks a temporal-blocking runner fusing that many Euler
// steps per sweep, which changes the contract: phi0 must cover valid
// grown by TemporalK*kernel.NGhost and phi1 accumulates the K-step state
// delta (state_K - phi0) instead of the raw flux divergence.
//
// TileEdge > 0 is the spatial tile edge the runner was compiled for; on
// a smaller box the tile loops clamp and the whole box runs as one tile.
type Entry struct {
	Name      string
	Run       func(phi0, phi1 *fab.FAB, valid box.Box, threads int) error
	TemporalK int
	TileEdge  int
}
