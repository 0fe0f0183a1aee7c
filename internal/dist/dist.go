// Package dist executes a level across N ranks — the distributed-memory
// runtime the paper's whole premise assumes (Section I: boxes live on
// MPI ranks, exchanging ghost cells each step) but which internal/cluster
// only *predicts*. Each rank owns the boxes a cluster.Assign decomposition
// gives it, holds one deep-ghosted FAB per box, and advances the level in
// supersteps: one ghost exchange filling a K-deep halo, then K explicit
// Euler sub-steps over shrinking regions, recomputing halo cells instead
// of re-communicating them — the distributed-memory extension of the
// paper's §V-D overlapped-tile family (deep halos trade recomputation
// for messages exactly as Wittmann/Hager/Wellein's multicore-aware
// temporal blocking does across nodes).
//
// Two transports implement the same length-prefixed frame protocol
// (wire.go): an in-process loopback hub for tests and the conformance
// harness, and a TCP mesh for real multi-process runs. Every frame —
// loopback included — goes through the wire encoder/decoder, so the
// conformance sweep exercises the serialization path on every build.
//
// The runtime is bitwise-reproducible: the sub-step regions are clipped
// to the domain only in non-periodic directions (periodic directions
// compute in image coordinates), unfilled physical-boundary ghost cells
// stay zero exactly as layout.LevelData leaves them, and every cell
// update funnels through kernel.FaceAvg with a fixed expression order —
// so a multi-rank run at any halo depth K matches the single-rank run
// and the kernel.Reference oracle bit for bit (internal/conform's
// distributed check proves this on every build).
//
// Failure is typed, never silent: sends retry transient backpressure
// with bounded exponential backoff, receives carry a per-superstep
// deadline, and a dead peer surfaces as a *RankError wrapping ErrPeerDown
// or ErrTimeout — a killed rank fails the step, it cannot deadlock it.
package dist

import (
	"context"
	"errors"
	"fmt"
	"time"

	"stencilsched/internal/fab"
	"stencilsched/internal/layout"
	"stencilsched/internal/sched"
	"stencilsched/internal/scratch"
)

// Sentinel failure classes. Runner errors wrap one of these inside a
// *RankError, so callers can errors.Is on the class and errors.As for
// the rank/step/op context.
var (
	// ErrTimeout: a peer's frames did not arrive within ExchangeTimeout.
	ErrTimeout = errors.New("dist: exchange timed out")
	// ErrPeerDown: the transport knows the peer is gone (closed
	// connection, killed loopback rank).
	ErrPeerDown = errors.New("dist: peer down")
	// ErrClosed: the transport was shut down under the caller.
	ErrClosed = errors.New("dist: transport closed")
	// ErrBackpressure: a peer's inbox stayed full through every retry.
	ErrBackpressure = errors.New("dist: peer inbox full after retries")
	// ErrProtocol: a peer sent a frame that violates the exchange plan
	// (unknown motion, wrong payload size, duplicate, stale step).
	ErrProtocol = errors.New("dist: protocol violation")
)

// RankError is the typed failure a rank surfaces: which rank failed,
// during which operation of which superstep, and — when known — which
// peer was involved. It wraps the underlying cause for errors.Is.
type RankError struct {
	Rank int    // rank reporting the failure
	Peer int    // peer involved, or -1 when none
	Step int    // superstep index
	Op   string // "send", "recv", "compute", "hook", "init"
	Err  error
}

func (e *RankError) Error() string {
	if e.Peer >= 0 {
		return fmt.Sprintf("dist: rank %d %s failed at superstep %d (peer %d): %v",
			e.Rank, e.Op, e.Step, e.Peer, e.Err)
	}
	return fmt.Sprintf("dist: rank %d %s failed at superstep %d: %v", e.Rank, e.Op, e.Step, e.Err)
}

func (e *RankError) Unwrap() error { return e.Err }

// Frame type bytes (see wire.go for the layout).
const (
	// TypeHello opens a TCP connection: it authenticates the dialing
	// rank and cross-checks the mesh size.
	TypeHello byte = 1
	// TypeData carries one motion's packed region values.
	TypeData byte = 2
	// typeBye ends a TCP link in good order: the sender completed its run
	// and will send nothing more, so the EOF that follows is not a dead
	// peer. Transport-internal; it never reaches Recv.
	typeBye byte = 3
)

// Frame is one protocol message. Data is the packed region payload in
// component-major, x-fastest order (empty for hello frames).
type Frame struct {
	Type   byte
	Rank   uint16 // sending rank
	Step   uint32 // superstep index (mesh size for hello frames)
	Motion uint32 // global motion ID (dialer's rank count for hello)
	Data   []float64
}

// Transport moves frames between ranks. Implementations must be safe
// for one concurrent sender and one concurrent receiver per rank (the
// runner overlaps receives with interior compute).
type Transport interface {
	// Rank is the local rank this endpoint serves.
	Rank() int
	// Ranks is the mesh size.
	Ranks() int
	// Send delivers f to peer `to`. A full peer inbox returns
	// ErrBackpressure (transient — the runner retries with backoff); a
	// dead peer returns ErrPeerDown.
	Send(ctx context.Context, to int, f *Frame) error
	// Recv blocks for the next frame, honoring ctx's deadline. The
	// frame's Data may alias a buffer the transport reuses: it is valid
	// only until the next Recv, so a caller that keeps a frame copies
	// its Data.
	Recv(ctx context.Context) (Frame, error)
	// Close releases the endpoint. Safe to call twice.
	Close() error
}

// TestHook is called at the runner's phase boundaries ("exchange",
// "interior", "substep") and fails the rank when it returns an error —
// the deterministic fault-injection point the kill-a-rank-mid-compute
// tests use. Production runs leave it nil.
type TestHook func(rank, superstep int, phase string) error

// Config describes one distributed level solve.
type Config struct {
	// Layout is the global domain decomposition. All three directions
	// are treated as given by Layout.Periodic.
	Layout *layout.Layout
	// Ranks is the number of peers.
	Ranks int
	// Assign optionally maps each box index to a rank. Nil uses the
	// chunked cluster.Assign policy. When set it must be surjective onto
	// [0, Ranks): every rank owns at least one box.
	Assign []int
	// Variant is the on-node schedule each rank runs (any registered
	// family; the overlapped-tile variants are the natural match for
	// deep halos).
	Variant sched.Variant
	// HaloK is the halo depth in kernel applications: the exchange fills
	// HaloK*kernel.NGhost ghost layers and each rank then advances HaloK
	// steps before the next exchange. 1 is a plain per-step exchange.
	HaloK int
	// Steps is the total number of time steps.
	Steps int
	// Dt is the time-step size of the explicit update phi -= dt*divF.
	Dt float64
	// Threads is the per-rank thread count.
	Threads int
	// Init fills the initial condition on valid cells one x-row at a
	// time (kernel.SmoothRowFunc; fab.PointRows adapts a per-point
	// function); nil starts from zero. Ghost cells beyond a non-periodic
	// boundary are zero, exactly like layout.LevelData.FillFromFunction
	// leaves them.
	Init fab.RowFunc
	// ExchangeTimeout bounds each superstep's receive phase per rank.
	// Zero defaults to 10s.
	ExchangeTimeout time.Duration
	// Hook is the fault-injection test hook (see TestHook).
	Hook TestHook
}

const (
	defaultExchangeTimeout = 10 * time.Second
	// maxRetries bounds send retries on transient backpressure;
	// retryBackoff is the first retry's delay, doubled per attempt.
	maxRetries   = 8
	retryBackoff = 200 * time.Microsecond
)

func (c Config) exchangeTimeout() time.Duration {
	if c.ExchangeTimeout <= 0 {
		return defaultExchangeTimeout
	}
	return c.ExchangeTimeout
}

// Stats accounts one rank's execution (or, summed, the whole level's).
type Stats struct {
	// Supersteps is the number of exchange+compute rounds executed.
	Supersteps int64
	// MessagesSent / BytesSent count remote frames (payload bytes on the
	// wire, length prefix included).
	MessagesSent int64
	BytesSent    int64
	// MessagesRecv / BytesRecv count remote frames applied.
	MessagesRecv int64
	BytesRecv    int64
	// LocalCopies counts same-rank ghost motions (shared-memory copies).
	LocalCopies int64
	// Retries counts send retries due to transient backpressure.
	Retries int64
	// RecomputedCells counts halo cells computed beyond the owned valid
	// regions — the paper's recomputation currency that deep halos spend
	// to buy fewer messages.
	RecomputedCells int64
	// ComputeSec is time spent executing kernels and accumulating
	// updates; ExchangeSec is the receive phase's wall time; of that,
	// ExchangeHiddenSec overlapped interior compute.
	ComputeSec        float64
	ExchangeSec       float64
	ExchangeHiddenSec float64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Supersteps += o.Supersteps
	s.MessagesSent += o.MessagesSent
	s.BytesSent += o.BytesSent
	s.MessagesRecv += o.MessagesRecv
	s.BytesRecv += o.BytesRecv
	s.LocalCopies += o.LocalCopies
	s.Retries += o.Retries
	s.RecomputedCells += o.RecomputedCells
	s.ComputeSec += o.ComputeSec
	s.ExchangeSec += o.ExchangeSec
	s.ExchangeHiddenSec += o.ExchangeHiddenSec
}

// OverlapRatio is the fraction of exchange time hidden behind interior
// compute (0 when no exchange time was observed).
func (s *Stats) OverlapRatio() float64 {
	if s.ExchangeSec <= 0 {
		return 0
	}
	return s.ExchangeHiddenSec / s.ExchangeSec
}

// RankResult is one rank's outcome: its box indices, their deep-ghosted
// FABs (valid data is the authoritative solution), and its accounting.
// The FABs live in an arena of the runtime's state pool until Release.
type RankResult struct {
	Rank  int
	Boxes []int
	Fabs  []*fab.FAB
	Stats Stats

	arena *scratch.Arena
}

// Release hands the rank's state back to the runtime's pool for a later
// solve to reuse, and clears Fabs: no FAB taken from it may be used
// afterwards. A result that is never released is collected like any
// other value, and the next solve reserves fresh state. Calling Release
// again does nothing, but copies of a RankResult share its arena: only
// one of them may be released.
func (rr *RankResult) Release() {
	if rr.arena != nil {
		statePool.Checkin(rr.arena)
		rr.arena = nil
	}
	rr.Fabs = nil
}

// Result is a whole-level outcome gathered from all ranks.
type Result struct {
	Plan *Plan
	// PerRank holds each rank's result, indexed by rank.
	PerRank []RankResult
	// Stats sums all ranks.
	Stats Stats
	// Fabs holds each layout box's FAB as its rank left it, by box
	// index: deep-ghosted, and only the valid region
	// (Plan.Layout.Boxes[i]) is the solution. Readers clip to it.
	Fabs []*fab.FAB
	// WallSec is the coordinator's wall time for the whole solve.
	WallSec float64
}

// Release releases every rank's state (see RankResult.Release) and
// clears Fabs.
func (r *Result) Release() {
	for i := range r.PerRank {
		r.PerRank[i].Release()
	}
	r.Fabs = nil
}

// SumComp sums component c over all valid cells — a conserved quantity
// under the periodic advection update and a cheap cross-process
// checksum for TCP runs.
func (r *Result) SumComp(c int) float64 {
	var s float64
	for i, f := range r.Fabs {
		s += f.SumComp(r.Plan.Layout.Boxes[i], c)
	}
	return s
}
