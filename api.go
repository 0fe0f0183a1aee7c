package stencilsched

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"time"

	"stencilsched/internal/box"
	"stencilsched/internal/cluster"
	"stencilsched/internal/conform"
	"stencilsched/internal/dist"
	"stencilsched/internal/fab"
	"stencilsched/internal/ghost"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/layout"
	"stencilsched/internal/machine"
	"stencilsched/internal/parallel"
	"stencilsched/internal/perfmodel"
	"stencilsched/internal/sched"
	"stencilsched/internal/stats"
	"stencilsched/internal/variants"
)

// Variant identifies one inter-loop scheduling variant (see
// internal/sched for the axes).
type Variant = sched.Variant

// Machine describes one of the paper's evaluation nodes.
type Machine = machine.Machine

// ModelPoint is one modeled execution time with its components.
type ModelPoint = perfmodel.Breakdown

// Variants returns the 32 studied scheduling variants.
func Variants() []Variant { return sched.Studied() }

// VariantByName resolves a paper-legend name such as
// "Shift-Fuse OT-8: P<Box" or "Baseline: P>=Box" ("≥" accepted) within the
// studied set.
func VariantByName(name string) (Variant, error) { return sched.ByName(name) }

// ParseVariant resolves any valid variant name, including the extended
// rectangular-tile points outside the studied set (e.g.
// "Shift-Fuse OT-32x8x8: P<Box").
func ParseVariant(name string) (Variant, error) { return sched.Parse(name) }

// Machines returns the four machines of the study: AMD Magny-Cours,
// Intel Ivy Bridge (Atlantis), Intel Sandy Bridge (Cab) and the Ivy Bridge
// desktop.
func Machines() []Machine { return machine.All() }

// MachineByName resolves a machine by substring ("Magny", "Atlantis",
// "Sandy", "desktop").
func MachineByName(key string) (Machine, error) { return machine.ByName(key) }

// Problem sizes one measured run: NumBoxes boxes of BoxN^3 cells executed
// with Threads total threads. Threads must be at least 1: the execution
// layer (internal/parallel) clamps non-positive counts to one, and
// accepting them here would turn a caller's typo into a silent serial
// run, so Validate rejects them instead.
type Problem struct {
	BoxN     int
	NumBoxes int
	Threads  int
}

// Cells returns the total cell count.
func (p Problem) Cells() int64 {
	return int64(p.BoxN) * int64(p.BoxN) * int64(p.BoxN) * int64(p.NumBoxes)
}

// Validate reports whether the problem is runnable: BoxN >= 4 (the
// stencil's ghost radius), NumBoxes >= 1, and Threads >= 1 (see the type
// comment for why non-positive thread counts are an error rather than
// clamped). Services use it to reject bad requests before queueing work.
func (p Problem) Validate() error {
	if p.BoxN < 4 || p.NumBoxes < 1 {
		return fmt.Errorf("stencilsched: bad problem %+v (need BoxN >= 4, NumBoxes >= 1)", p)
	}
	if p.Threads < 1 {
		return fmt.Errorf("stencilsched: bad problem %+v (need Threads >= 1; the executor would silently clamp %d to one thread)", p, p.Threads)
	}
	return nil
}

// MeasuredResult reports one measured run.
type MeasuredResult struct {
	Problem Problem
	Variant Variant
	// Seconds is the minimum wall time over the repetitions.
	Seconds float64
	// MCellsPerSec is the cell-update throughput at Seconds.
	MCellsPerSec float64
	// Stats carries the executor's temporary-storage and recompute
	// accounting (Table I validation).
	Stats variants.Stats
	// Timing is the full repetition summary.
	Timing stats.Sample
}

// RunMeasured executes variant v on the host with real goroutine
// parallelism, reps times (minimum reported), on freshly initialized
// smooth data. Host scaling differs from the paper's nodes — use the
// modeled experiments for the figures — but throughput and the Table I
// accounting are real.
func RunMeasured(v Variant, p Problem, reps int) (MeasuredResult, error) {
	return RunMeasuredContext(context.Background(), v, p, reps)
}

// RunMeasuredContext is RunMeasured with cancellation: ctx is checked
// between repetitions, so a cancel or deadline aborts a long measurement
// within one repetition. On interruption the partial timings are
// discarded and ctx.Err() is returned — the entry point the stencilserved
// job queue runs measured work through.
func RunMeasuredContext(ctx context.Context, v Variant, p Problem, reps int) (MeasuredResult, error) {
	if err := v.Validate(); err != nil {
		return MeasuredResult{}, err
	}
	if err := p.Validate(); err != nil {
		return MeasuredResult{}, err
	}
	if reps < 1 {
		reps = 1
	}
	boxes := make([]box.Box, p.NumBoxes)
	for i := range boxes {
		// Separated boxes: each owns its own ghosted data, like distinct
		// Chombo boxes on one rank.
		boxes[i] = box.Cube(p.BoxN)
	}
	states := variants.NewLevelState(boxes)
	for _, s := range states {
		kernel.InitSmooth(s.Phi0, p.BoxN)
	}
	last, timing, err := measureStates(ctx, v, states, p.Threads, reps)
	if err != nil {
		return MeasuredResult{}, err
	}
	res := MeasuredResult{
		Problem: p,
		Variant: v,
		Seconds: timing.MinSec,
		Stats:   last,
		Timing:  timing,
	}
	if timing.MinSec > 0 {
		res.MCellsPerSec = float64(p.Cells()) / timing.MinSec / 1e6
	}
	return res, nil
}

// measureStates times reps executions of variant v over states. The kernel
// accumulates into Phi1, so each repetition must start from Phi1 = 0 or
// later repetitions would run on the previous repetition's output — the
// reset runs as untimed per-repetition setup, leaving the timings clean.
// After the series, Phi1 holds exactly one application of the operator,
// whatever reps was.
func measureStates(ctx context.Context, v Variant, states []variants.State, threads, reps int) (variants.Stats, stats.Sample, error) {
	var last variants.Stats
	timing, err := stats.TimePrepContext(ctx, reps, func() {
		for _, s := range states {
			s.Phi1.Fill(0)
		}
	}, func() {
		last = variants.ExecLevel(v, states, threads)
	})
	return last, timing, err
}

// Verify runs variant v on one randomly initialized BoxN^3 box with the
// given thread count and checks bit-for-bit equality against the Figure 6
// reference kernel. The variant executes twice (with the output reset in
// between), so the check covers both the cold path that grows the scratch
// arenas and the warm path that reuses their undefined contents.
func Verify(v Variant, boxN, threads int) error {
	if err := v.Validate(); err != nil {
		return err
	}
	b := box.Cube(boxN)
	phi0, want := kernel.NewState(b)
	phi0.Randomize(rand.New(rand.NewSource(2014)), 0.25, 1.75)
	kernel.Reference(phi0, want, b)
	got := fab.New(b, kernel.NComp)
	for pass, label := range []string{"cold", "warm"} {
		if pass > 0 {
			got.Fill(0)
		}
		variants.Exec(v, phi0, got, b, threads)
		if d, at, c := got.MaxDiff(want, b); d != 0 {
			return fmt.Errorf("stencilsched: %s (%s scratch) differs from reference by %g at %v component %d",
				v.Name(), label, d, at, c)
		}
	}
	return nil
}

// VerifyAll checks every studied variant on a BoxN^3 box.
func VerifyAll(boxN, threads int) error {
	for _, v := range sched.Studied() {
		if err := Verify(v, boxN, threads); err != nil {
			return err
		}
	}
	return nil
}

// ConformanceConfig parameterizes a conformance sweep (see
// internal/conform): randomized single-box and multi-box geometries per
// registered schedule, differential against the reference plus the
// metamorphic determinism/linearity/translation invariants.
type ConformanceConfig = conform.SweepConfig

// ConformanceReport summarizes a conformance sweep; Divergences carry
// minimized repro lines naming the runner, geometry, and seed.
type ConformanceReport = conform.Report

// Conformance runs the deterministic differential + metamorphic
// conformance sweep over every registered schedule — the 32 studied
// variants, the schedc-compiled runners and the spectral backends — and
// reports any divergence from the Figure 6 reference. The zero config
// runs the defaults (the same sweep tier-1 tests run); ctx cancels
// mid-sweep. A deployed stencilserved node exposes this as POST
// /v1/conformance for post-autotune self-checks.
func Conformance(ctx context.Context, cfg ConformanceConfig) (*ConformanceReport, error) {
	return conform.Sweep(ctx, cfg)
}

// Schedule is one executable schedule of the exemplar operator — the
// conformance-registry runner (internal/conform), which is the one handle
// measurement, autotuning and the service resolve names to. A studied
// variant carries its Variant; the schedc-compiled runners (Generated)
// and the FFT backends (Spectral) run one box serially. TemporalK > 0
// marks a schedule that advances that many Euler steps per sweep: its
// input carries TemporalK*NGhost ghost layers and its output is the
// K-step delta. Spectral schedules need fully periodic boxes with
// spatially constant velocities and match the step-by-step schedules to
// spectral tolerance rather than bitwise.
type Schedule = conform.Runner

// Schedules returns every schedule the conformance sweep checks, in
// registration order: the 32 studied variants, the schedc-compiled
// runners (single-step, and the temporal points K1, K2 and K4 on whole
// boxes and K2 on 32^3 tiles), and the FFT spectral backends over K in
// {1,2,4,8,16}.
func Schedules() []Schedule {
	return conform.Registry()
}

// ScheduleByName resolves a schedule by paper-legend variant name (as
// ParseVariant accepts it, so "≥", legend aliases and the extended
// rectangular-tile points resolve) or by exact registry name, e.g.
// "CodeGen series (generated)".
func ScheduleByName(name string) (Schedule, error) {
	v, err := sched.Parse(name)
	if err == nil {
		return conform.VariantRunner(v), nil
	}
	if r, ok := conform.RunnerByName(name); ok {
		return r, nil
	}
	return Schedule{}, fmt.Errorf("stencilsched: no schedule %q: not a registry name, and as a variant name: %w", name, err)
}

// TuneResult is one autotuning measurement. Temporal and spectral
// schedules advance Schedule.Steps() Euler steps per sweep, so
// comparisons across K go through StepSeconds and MCellsPerSec, which
// are per-Euler-step quantities.
type TuneResult struct {
	Schedule Schedule
	// Seconds is the minimum wall time of one sweep over all boxes (K
	// steps for a temporal schedule).
	Seconds float64
	// StepSeconds is Seconds / Schedule.Steps(). Results sort by it.
	StepSeconds float64
	// MCellsPerSec counts cell-updates (cells * steps advanced), so a
	// K=2 sweep that halves traffic shows up as higher throughput, not a
	// slower sweep.
	MCellsPerSec float64
}

// TuneCandidates resolves the candidate set of an autotune over problem
// p, so that a service can put it in a cache key and reject a bad
// request before queueing work. One rule covers every schedule: a tile
// edge larger than the box is an error when the schedule is named (the
// executors would clamp the tile and measure a different schedule than
// the one asked for) and skipped from the default set, which empty names
// select — every schedule whose tiles fit, a joint search of the
// (family, tile, K, backend) space.
func TuneCandidates(p Problem, names []string) ([]Schedule, error) {
	if len(names) == 0 {
		return defaultCandidates(p), nil
	}
	out := make([]Schedule, len(names))
	for i, name := range names {
		s, err := ScheduleByName(name)
		if err != nil {
			return nil, err
		}
		if err := tileFits(s, p); err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

func defaultCandidates(p Problem) []Schedule {
	var out []Schedule
	for _, s := range Schedules() {
		if tileFits(s, p) == nil {
			out = append(out, s)
		}
	}
	return out
}

func tileFits(s Schedule, p Problem) error {
	if s.TileEdge > p.BoxN {
		return fmt.Errorf("stencilsched: autotune candidate %s infeasible: tile edge %d exceeds box size %d",
			s.Name, s.TileEdge, p.BoxN)
	}
	return nil
}

// Autotune measures candidate schedules on the host for problem p (one
// untimed warm-up call, then reps repetitions each, minimum kept) and
// returns them fastest per Euler step first — the measured counterpart
// of the model-driven selection in examples/tuning, and the "automate the selection and tuning" direction
// of the paper's conclusion. Nil candidates select the default set of
// TuneCandidates; explicit ones pass the same tile rule. ctx is checked
// before every candidate and between repetitions; on cancellation the
// partial results are discarded and ctx.Err() is returned.
//
// Boxes run one after another with all Threads inside when the schedule
// is a P<Box variant, and one box per thread otherwise. Every candidate
// reads state of its own ghost depth, allocated once per depth and
// shared (spectral candidates get frozen-velocity data, without which
// they refuse to run). Phi1 is zeroed before every repetition, untimed:
// the schedules accumulate into it.
func Autotune(ctx context.Context, p Problem, reps int, candidates []Schedule) ([]TuneResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if reps < 1 {
		reps = 1
	}
	if candidates == nil {
		candidates = defaultCandidates(p)
	}
	for _, s := range candidates {
		if err := tileFits(s, p); err != nil {
			return nil, err
		}
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("stencilsched: no feasible candidates for %+v", p)
	}
	type levelKey struct {
		depth  int
		frozen bool
	}
	levels := map[levelKey][]variants.State{}
	statesFor := func(key levelKey) []variants.State {
		if states, ok := levels[key]; ok {
			return states
		}
		states := make([]variants.State, p.NumBoxes)
		for i := range states {
			// Separated boxes: each owns its own ghosted data, like
			// distinct Chombo boxes on one rank.
			b := box.Cube(p.BoxN)
			phi0 := fab.New(b.Grow(key.depth), kernel.NComp)
			if key.frozen {
				kernel.InitSmoothFrozen(phi0, p.BoxN)
			} else {
				kernel.InitSmooth(phi0, p.BoxN)
			}
			states[i] = variants.State{Valid: b, Phi0: phi0, Phi1: fab.New(b, kernel.NComp)}
		}
		levels[key] = states
		return states
	}
	out := make([]TuneResult, 0, len(candidates))
	errs := make([]error, p.NumBoxes)
	for _, s := range candidates {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		states := statesFor(levelKey{s.Steps() * kernel.NGhost, s.Spectral})
		prep := func() {
			for _, st := range states {
				st.Phi1.Fill(0)
			}
		}
		run := func() {
			if s.Variant.Par == sched.WithinBox {
				for i, st := range states {
					errs[i] = s.Run(st.Phi0, st.Phi1, st.Valid, p.Threads)
				}
				return
			}
			parallel.Dynamic(p.Threads, len(states), 1, func(_, i int) {
				st := states[i]
				errs[i] = s.Run(st.Phi0, st.Phi1, st.Valid, 1)
			})
		}
		// One untimed call first: a candidate that grows the pooled
		// arenas is then timed on storage it has already touched.
		prep()
		run()
		timing, err := stats.TimePrepContext(ctx, reps, prep, run)
		if err != nil {
			return nil, err
		}
		for _, e := range errs {
			if e != nil {
				return nil, fmt.Errorf("stencilsched: autotune %s: %w", s.Name, e)
			}
		}
		res := TuneResult{Schedule: s, Seconds: timing.MinSec, StepSeconds: timing.MinSec / float64(s.Steps())}
		if timing.MinSec > 0 {
			res.MCellsPerSec = float64(p.Cells()) * float64(s.Steps()) / timing.MinSec / 1e6
		}
		out = append(out, res)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StepSeconds < out[j].StepSeconds })
	return out, nil
}

// Interconnect describes the network between the nodes of a modeled or
// predicted distributed run.
type Interconnect = cluster.Interconnect

// CrayGemini returns the Cray Gemini interconnect model.
func CrayGemini() Interconnect { return cluster.CrayGemini() }

// QDRInfiniBand returns the QDR InfiniBand interconnect model.
func QDRInfiniBand() Interconnect { return cluster.QDRInfiniBand() }

// DistProblem sizes one distributed multi-rank solve: a cubic DomainN^3
// domain decomposed into BoxN^3 boxes (ragged at the high ends when BoxN
// does not divide DomainN), dealt to Ranks peers, advanced Steps explicit
// Euler steps of the exemplar operator. Ghosts HaloK*2 layers deep are
// exchanged once per HaloK steps; the intermediate steps recompute
// shrinking shells instead of communicating (the distributed analogue of
// the overlapped-tile schedules). HaloK never changes results — the runs
// are bitwise identical for every HaloK and rank count, which the
// conformance suite enforces.
type DistProblem struct {
	DomainN, BoxN int
	// Periodic selects per-direction periodic boundaries; non-periodic
	// boundary ghosts are held at zero.
	Periodic [3]bool
	// Ranks is the peer count; every rank must own at least one box.
	Ranks int
	// HaloK is the deep-halo superstep factor (0 means 1: exchange every
	// step).
	HaloK int
	// Steps is the number of time steps.
	Steps int
	// Threads is the per-rank thread count.
	Threads int
	// Dt is the explicit update scale (0 means 1/64, exact in binary
	// floating point).
	Dt float64
	// Init is the initial condition at cell centers (cells are
	// unit-sized); nil means the standard smooth field of the benchmarks
	// with period DomainN.
	Init func(x, y, z float64, comp int) float64
}

func (p DistProblem) haloK() int {
	if p.HaloK == 0 {
		return 1
	}
	return p.HaloK
}

func (p DistProblem) dt() float64 {
	if p.Dt == 0 {
		return 1.0 / 64
	}
	return p.Dt
}

// Validate reports whether the distributed problem is runnable. Deeper
// feasibility (a periodic halo must fit the domain, every rank must get
// a box) is checked when the exchange plan is built.
func (p DistProblem) Validate() error {
	if p.DomainN < 4 || p.BoxN < 1 || p.BoxN > p.DomainN {
		return fmt.Errorf("stencilsched: bad distributed problem %+v (need DomainN >= 4 and 1 <= BoxN <= DomainN)", p)
	}
	if p.Ranks < 1 || p.Steps < 1 || p.Threads < 1 {
		return fmt.Errorf("stencilsched: bad distributed problem %+v (need Ranks, Steps, Threads >= 1)", p)
	}
	if p.HaloK < 0 {
		return fmt.Errorf("stencilsched: bad distributed problem %+v (HaloK must be >= 0)", p)
	}
	return nil
}

func (p DistProblem) distConfig(v Variant) (dist.Config, error) {
	if err := v.Validate(); err != nil {
		return dist.Config{}, err
	}
	if err := p.Validate(); err != nil {
		return dist.Config{}, err
	}
	l, err := layout.Decompose(box.Cube(p.DomainN), p.BoxN, p.Periodic)
	if err != nil {
		return dist.Config{}, err
	}
	init := kernel.SmoothRowFunc(p.DomainN)
	if user := p.Init; user != nil {
		init = fab.PointRows(func(pt ivect.IntVect, c int) float64 {
			return user(float64(pt[0])+0.5, float64(pt[1])+0.5, float64(pt[2])+0.5, c)
		})
	}
	return dist.Config{
		Layout:  l,
		Ranks:   p.Ranks,
		Variant: v,
		HaloK:   p.haloK(),
		Steps:   p.Steps,
		Dt:      p.dt(),
		Threads: p.Threads,
		Init:    init,
	}, nil
}

// DistResult reports one distributed solve.
type DistResult struct {
	Problem DistProblem
	Variant Variant
	// Seconds is the wall time of the whole solve; MeasuredStepSec the
	// per-step average.
	Seconds         float64
	MeasuredStepSec float64
	// MCellsPerSec counts owned-cell updates (recomputed ghost shells
	// excluded — they are overhead, not progress).
	MCellsPerSec float64
	// Messages and Bytes count remote frames sent across all ranks and
	// supersteps; Retries the transient-backpressure resends.
	Messages, Bytes, Retries int64
	// RecomputedCells counts ghost-shell cell-updates beyond the owned
	// cells — the deep-halo recomputation price actually paid.
	RecomputedCells int64
	// OverlapRatio is the fraction of exchange time hidden behind
	// interior compute.
	OverlapRatio float64
	// Supersteps is the number of exchange rounds executed per rank,
	// summed over ranks.
	Supersteps int64
}

// ValidateDistributed reports whether (v, p) is fully runnable: the
// quick shape checks plus the exchange-plan feasibility (halo fits the
// periodic domain, every rank owns a box). Services use it to reject a
// bad request up front instead of failing a queued job.
func ValidateDistributed(v Variant, p DistProblem) error {
	cfg, err := p.distConfig(v)
	if err != nil {
		return err
	}
	_, err = cfg.Plan()
	return err
}

// SolveDistributed executes variant v on problem p across p.Ranks
// in-process peers connected by the loopback transport (every ghost
// frame still passes through the wire codec). The result is bitwise
// identical to a single-rank run — rank count, box placement, and halo
// depth are pure schedule.
func SolveDistributed(v Variant, p DistProblem) (DistResult, error) {
	return SolveDistributedContext(context.Background(), v, p)
}

// SolveDistributedContext is SolveDistributed with cancellation: a
// cancel or deadline aborts all ranks promptly and returns the root
// cause.
func SolveDistributedContext(ctx context.Context, v Variant, p DistProblem) (DistResult, error) {
	cfg, err := p.distConfig(v)
	if err != nil {
		return DistResult{}, err
	}
	res, err := dist.RunLoopback(ctx, cfg)
	if err != nil {
		return DistResult{}, err
	}
	res.Release()
	out := DistResult{
		Problem:         p,
		Variant:         v,
		Seconds:         res.WallSec,
		Messages:        res.Stats.MessagesSent,
		Bytes:           res.Stats.BytesSent,
		Retries:         res.Stats.Retries,
		RecomputedCells: res.Stats.RecomputedCells,
		OverlapRatio:    res.Stats.OverlapRatio(),
		Supersteps:      res.Stats.Supersteps,
	}
	if p.Steps > 0 {
		out.MeasuredStepSec = res.WallSec / float64(p.Steps)
	}
	if res.WallSec > 0 {
		cells := float64(p.DomainN) * float64(p.DomainN) * float64(p.DomainN)
		out.MCellsPerSec = cells * float64(p.Steps) / res.WallSec / 1e6
	}
	return out, nil
}

// DistRankResult reports one rank's share of a multi-process TCP solve.
type DistRankResult struct {
	Rank  int
	Boxes int
	// Seconds is this rank's wall time including the mesh handshake.
	Seconds                  float64
	Messages, Bytes, Retries int64
	RecomputedCells          int64
	OverlapRatio             float64
}

// SolveDistributedRankTCP joins a real TCP mesh as one rank of problem
// p and runs that rank's share: addrs lists every rank's host:port in
// rank order (this process listens on addrs[rank]). Every process must
// be launched with an identical (v, p); the hello handshake cross-checks
// the mesh size. A dead or unreachable peer surfaces as a typed error
// within the exchange timeout — never a hang.
func SolveDistributedRankTCP(ctx context.Context, v Variant, p DistProblem, rank int, addrs []string) (DistRankResult, error) {
	cfg, err := p.distConfig(v)
	if err != nil {
		return DistRankResult{}, err
	}
	if rank < 0 || rank >= p.Ranks {
		return DistRankResult{}, fmt.Errorf("stencilsched: rank %d outside [0, %d)", rank, p.Ranks)
	}
	if len(addrs) != p.Ranks {
		return DistRankResult{}, fmt.Errorf("stencilsched: %d addresses for %d ranks", len(addrs), p.Ranks)
	}
	ln, err := net.Listen("tcp", addrs[rank])
	if err != nil {
		return DistRankResult{}, fmt.Errorf("stencilsched: rank %d listen: %w", rank, err)
	}
	defer ln.Close()
	start := time.Now()
	rr, err := dist.RunTCP(ctx, cfg, rank, ln, addrs)
	if err != nil {
		return DistRankResult{}, err
	}
	rr.Release()
	return DistRankResult{
		Rank:            rr.Rank,
		Boxes:           len(rr.Boxes),
		Seconds:         time.Since(start).Seconds(),
		Messages:        rr.Stats.MessagesSent,
		Bytes:           rr.Stats.BytesSent,
		Retries:         rr.Stats.Retries,
		RecomputedCells: rr.Stats.RecomputedCells,
		OverlapRatio:    rr.Stats.OverlapRatio(),
	}, nil
}

// DistPrediction is the cluster model's per-step forecast for a
// distributed problem — the number to put next to
// DistResult.MeasuredStepSec.
type DistPrediction struct {
	// ComputeSec includes the deep-halo recompute factor; ExchangeSec is
	// the per-step share of the every-HaloK-steps exchange.
	ComputeSec, ExchangeSec, StepSec float64
	// Messages and RemoteBytes describe one full exchange (not
	// per-step).
	Messages    int
	RemoteBytes int64
	// RecomputeFactor is the modeled cell-update multiplier of the deep
	// halo (1 at HaloK = 1).
	RecomputeFactor float64
}

// PredictDistributedStep models the per-step time of p's decomposition
// under variant v on machine m connected by net, using the same layout
// and chunked assignment SolveDistributed executes — the prediction the
// paper's cluster model gives for the run the dist runtime performs.
func PredictDistributedStep(v Variant, p DistProblem, m Machine, net Interconnect) (DistPrediction, error) {
	cfg, err := p.distConfig(v)
	if err != nil {
		return DistPrediction{}, err
	}
	plan, err := cfg.Plan()
	if err != nil {
		return DistPrediction{}, err
	}
	l := cfg.Layout
	a, err := cluster.Assign(l, p.Ranks)
	if err != nil {
		return DistPrediction{}, err
	}
	sm, err := cluster.StepFor(cluster.Config{
		Machine: m,
		Net:     net,
		Variant: v,
		BoxN:    p.BoxN,
		NComp:   kernel.NComp,
		NGhost:  plan.Depth,
	}, l, a)
	if err != nil {
		return DistPrediction{}, err
	}
	k := p.haloK()
	// The analytic deep-halo trade assumes nearest-neighbor exchange, so
	// a halo deeper than the box (k*NGhost > BoxN) is a bad request — a
	// typed ErrHaloTooDeep, which services surface as HTTP 400 — even
	// though the runtime's copier could route such frames.
	dh, err := ghost.DeepHaloStats(p.BoxN, 3, kernel.NGhost, k)
	if err != nil {
		return DistPrediction{}, fmt.Errorf("stencilsched: halo_k=%d on %d^3 boxes: %w", k, p.BoxN, err)
	}
	pred := DistPrediction{
		ComputeSec:      sm.ComputeSec * dh.RecomputePerStep,
		ExchangeSec:     sm.ExchangeSec / float64(k),
		Messages:        sm.Stats.Messages,
		RemoteBytes:     sm.Stats.RemoteBytes,
		RecomputeFactor: dh.RecomputePerStep,
	}
	pred.StepSec = pred.ComputeSec + pred.ExchangeSec
	return pred, nil
}

// ModelConfig configures a modeled experiment point.
type ModelConfig = perfmodel.Config

// Model returns the modeled execution-time breakdown for one
// configuration.
func Model(cfg ModelConfig) ModelPoint { return perfmodel.Time(cfg) }

// ModelCurve returns modeled times for a thread sweep on machine m with
// the paper's constant-total-cells problem (PaperNumBoxes boxes of boxN^3).
func ModelCurve(m Machine, v Variant, boxN int, threads []int) []float64 {
	return perfmodel.Curve(m, v, boxN, perfmodel.PaperNumBoxes(boxN), threads)
}
