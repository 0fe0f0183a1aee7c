package main

// adapter.go is the only file of the benchmark that calls into the
// repository. Schedules are resolved by registry name (conform.Registry,
// stencilsched.ParseVariant) and solves go through the root API, so a
// later change that collapses executors keeps the benchmark compiling as
// long as the names and the root API survive. Everything else in this
// package sees only the types declared here.

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"stencilsched"
	"stencilsched/internal/box"
	"stencilsched/internal/conform"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/jobs"
	"stencilsched/internal/kernel"
	"stencilsched/internal/scratch"
	"stencilsched/internal/solver"
	"stencilsched/internal/temporal"
	"stencilsched/internal/tunecache"
)

// nComp is the exemplar's component count, for computed byte figures.
const nComp = kernel.NComp

// schedule is one registered way to apply the exemplar operator to a box.
type schedule struct {
	Name string // canonical registry name
	// K is the number of Euler steps one sweep advances (1 for the
	// single-step schedules): a sweep delivers K cell updates per cell.
	K int
	// WithinBox marks the P<Box schedules: boxes run one after another
	// with every thread inside the current box. The others run one box
	// per thread.
	WithinBox bool
	runner    conform.Runner
}

func (s schedule) run(phi0, phi1 *fab.FAB, valid box.Box, threads int) error {
	return s.runner.Run(phi0, phi1, valid, threads)
}

// resolveSchedule looks a schedule up by paper-legend or registry name.
func resolveSchedule(name string) (schedule, error) {
	canonical := name
	if v, err := stencilsched.ParseVariant(name); err == nil {
		canonical = v.Name()
	}
	for _, r := range conform.Registry() {
		if r.Name == canonical {
			k := r.TemporalK
			if k < 1 {
				k = 1
			}
			return schedule{Name: r.Name, K: k, WithinBox: strings.HasSuffix(r.Name, "P<Box"), runner: r}, nil
		}
	}
	return schedule{}, fmt.Errorf("bench: no registered schedule %q", name)
}

// level is a set of identically shaped, separately ghosted boxes with
// smooth initial data: one input per ghost depth in use (a K-step sweep
// reads K*NGhost layers) and one shared output per box.
type level struct {
	n     int
	valid []box.Box
	phi0  map[int][]*fab.FAB // by K
	phi1  []*fab.FAB
}

// oracles caches the reference output of box 0 of a level, by box size
// and K: the inputs are a fixed function of the box size, so every level
// of a run shares them.
var oracles = map[[2]int]*fab.FAB{}

func newLevel(n, numBoxes int, ks []int) *level {
	lv := &level{n: n, phi0: map[int][]*fab.FAB{}}
	for i := 0; i < numBoxes; i++ {
		b := box.Cube(n)
		lv.valid = append(lv.valid, b)
		lv.phi1 = append(lv.phi1, fab.New(b, kernel.NComp))
	}
	for _, k := range ks {
		if lv.phi0[k] != nil {
			continue
		}
		for _, b := range lv.valid {
			f := fab.New(b.Grow(k*kernel.NGhost), kernel.NComp)
			kernel.InitSmooth(f, n)
			lv.phi0[k] = append(lv.phi0[k], f)
		}
	}
	return lv
}

// cells is the number of owned cells of the level.
func (lv *level) cells() int64 { return int64(len(lv.valid)) * int64(lv.n) * int64(lv.n) * int64(lv.n) }

// clear zeroes the outputs: the operator accumulates into them.
func (lv *level) clear() {
	for _, f := range lv.phi1 {
		f.Fill(0)
	}
}

// apply runs one level application of s with the given total threads.
func (lv *level) apply(s schedule, threads int) error {
	in := lv.phi0[s.K]
	if in == nil {
		return fmt.Errorf("bench: level has no input of depth K=%d for %s", s.K, s.Name)
	}
	if s.WithinBox || threads <= 1 {
		for i, b := range lv.valid {
			if err := s.run(in[i], lv.phi1[i], b, threads); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for i := t; i < len(lv.valid); i += threads {
				if err := s.run(in[i], lv.phi1[i], lv.valid[i], 1); err != nil {
					errs[t] = err
					return
				}
			}
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checksum folds the bit patterns of every output value, so two
// applications agree exactly when they are bitwise equal.
func (lv *level) checksum() uint64 {
	// Four independent lanes keep the fold off the multiplier's latency
	// chain: it runs inside the measured window after every op.
	var s [4]uint64
	for _, f := range lv.phi1 {
		d := f.Data()
		for ; len(d) >= 4; d = d[4:] {
			s[0] += math.Float64bits(d[0])
			s[1] += math.Float64bits(d[1])
			s[2] += math.Float64bits(d[2])
			s[3] += math.Float64bits(d[3])
		}
		for _, x := range d {
			s[0] += math.Float64bits(x)
		}
	}
	return s[0] + 3*s[1] + 5*s[2] + 7*s[3]
}

// referenceDiff applies the oracle of s (kernel.Reference, or
// temporal.Reference for K > 1) to box 0 and returns the largest
// difference from the level's current output there; 0 means bitwise
// equal. The boxes hold identical data, so the level checksum extends
// the verdict to the others.
func (lv *level) referenceDiff(s schedule, threads int) float64 {
	b := lv.valid[0]
	want := oracles[[2]int{lv.n, s.K}]
	if want == nil {
		// Schedules of one K share their oracle output: the reference is
		// slow, and computing it once per K keeps set-up short. It is a
		// cell-by-cell formula, so each thread computes one slab of the
		// box and the slabs together are the reference of the whole box.
		want = fab.New(b, kernel.NComp)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(1, threads)))
		var wg sync.WaitGroup
		for _, slab := range b.Slabs(2, max(1, threads)) {
			wg.Add(1)
			go func(slab box.Box) {
				defer wg.Done()
				if s.K > 1 {
					temporal.Reference(lv.phi0[s.K][0], want, slab, s.K, kernel.EulerDt)
				} else {
					kernel.Reference(lv.phi0[s.K][0], want, slab)
				}
			}(slab)
		}
		wg.Wait()
		oracles[[2]int{lv.n, s.K}] = want
	}
	d, _, _ := lv.phi1[0].MaxDiff(want, b)
	return d
}

// boxesAgree reports whether every box's output equals box 0's bitwise.
func (lv *level) boxesAgree() bool {
	for _, f := range lv.phi1[1:] {
		if d, _, _ := f.MaxDiff(lv.phi1[0], lv.valid[0]); d != 0 {
			return false
		}
	}
	return true
}

// scheduleAccounting runs name once through the root API on a fresh
// level and returns the executor's exact accounting: recompute factor,
// peak temporary bytes, and wavefront efficiency at threads.
func scheduleAccounting(name string, n, numBoxes, threads int) (recompute float64, tempBytes int64, wfEff float64, err error) {
	v, err := stencilsched.ParseVariant(name)
	if err != nil {
		return 0, 0, 0, err
	}
	res, err := stencilsched.RunMeasured(v, stencilsched.Problem{BoxN: n, NumBoxes: numBoxes, Threads: threads}, 1)
	if err != nil {
		return 0, 0, 0, err
	}
	st := res.Stats
	return st.RecomputeFactor(), st.TempFluxBytes + st.TempVelBytes, st.Wavefront.Efficiency(threads), nil
}

// scratchCounters snapshots the arena pool the executors draw from.
func scratchCounters() (hits, misses uint64, retainedBytes int64) {
	st := scratch.Default.Stats()
	return st.Hits, st.Misses, st.BytesRetained
}

// servedRho is the density profile stencilserved solves start from,
// reproduced here so library and served solves answer the same problem.
func servedRho(domainN int) func(x, y, z float64) float64 {
	k := 2 * math.Pi / float64(domainN)
	return func(x, y, z float64) float64 {
		return 1 + 0.25*math.Sin(k*x)*math.Sin(k*y)*math.Sin(k*z)
	}
}

// advection is a running library solve on a periodic cube.
type advection struct {
	a *stencilsched.Advection
}

func newAdvection(scheduleName string, domainN, boxN int, u [3]float64, dt float64, rk4 bool, threads int) (*advection, error) {
	v, err := stencilsched.ParseVariant(scheduleName)
	if err != nil {
		return nil, err
	}
	integ := stencilsched.Euler
	if rk4 {
		integ = stencilsched.RK4
	}
	a, err := stencilsched.NewAdvection(stencilsched.AdvectionProblem{
		DomainN: domainN, BoxN: boxN, U: u, Rho: servedRho(domainN), Dt: dt,
		Integrator: integ, Threads: threads,
	}, v)
	if err != nil {
		return nil, err
	}
	return &advection{a: a}, nil
}

func (a *advection) advance(n int)         { a.a.Advance(n) }
func (a *advection) totals() [5]float64    { return a.a.Totals() }
func (a *advection) numBoxes() int         { return a.a.NumBoxes() }
func (a *advection) densityError() float64 { linf, _ := a.a.DensityError(); return linf }

// distOutcome is what one multi-rank solve reports.
type distOutcome struct {
	Seconds                              float64 // solve wall time as the runtime measured it
	Messages, Bytes, Retries, Recomputed int64
	Overlap                              float64
}

func distProblem(domainN, boxN, ranks, haloK, steps, threads int) stencilsched.DistProblem {
	return stencilsched.DistProblem{
		DomainN: domainN, BoxN: boxN, Periodic: [3]bool{true, true, true},
		Ranks: ranks, HaloK: haloK, Steps: steps, Threads: threads,
	}
}

// solveDist runs steps Euler steps across in-process ranks.
func solveDist(scheduleName string, domainN, boxN, ranks, haloK, steps, threads int) (distOutcome, error) {
	v, err := stencilsched.ParseVariant(scheduleName)
	if err != nil {
		return distOutcome{}, err
	}
	res, err := stencilsched.SolveDistributed(v, distProblem(domainN, boxN, ranks, haloK, steps, threads))
	if err != nil {
		return distOutcome{}, err
	}
	return distOutcome{
		Seconds: res.Seconds, Messages: res.Messages, Bytes: res.Bytes,
		Retries: res.Retries, Recomputed: res.RecomputedCells, Overlap: res.OverlapRatio,
	}, nil
}

// predictDistStep is the cluster model's per-step forecast for the same
// decomposition, on the reference point stencilserved reports against.
func predictDistStep(scheduleName string, domainN, boxN, ranks, haloK, steps, threads int) (float64, error) {
	v, err := stencilsched.ParseVariant(scheduleName)
	if err != nil {
		return 0, err
	}
	pred, err := stencilsched.PredictDistributedStep(v, distProblem(domainN, boxN, ranks, haloK, steps, threads),
		stencilsched.Machines()[0], stencilsched.CrayGemini())
	if err != nil {
		return 0, err
	}
	return pred.StepSec, nil
}

// levelProbe is an Euler solve on the periodic small-box level whose
// parts can be called one by one on the state the solver advances: a whole
// step, the ghost exchange alone, and the bare level application alone.
type levelProbe struct {
	step          func()
	exchange      func()
	exchangeBytes int64
	clearOutputs  func()
	applyLevel    func() error
}

func newLevelProbe(scheduleName string, domainN, boxN int, u [3]float64, dt float64, threads int) (*levelProbe, error) {
	s, err := resolveSchedule(scheduleName)
	if err != nil {
		return nil, err
	}
	v, err := stencilsched.ParseVariant(scheduleName)
	if err != nil {
		return nil, err
	}
	rho := servedRho(domainN)
	ld, err := solver.NewAdvectionState(domainN, boxN, u[0], u[1], u[2],
		func(p ivect.IntVect) float64 { return rho(float64(p[0])+0.5, float64(p[1])+0.5, float64(p[2])+0.5) }, threads)
	if err != nil {
		return nil, err
	}
	sol, err := solver.New(ld, solver.Config{Variant: v, Integrator: solver.Euler, Dt: dt, Threads: threads})
	if err != nil {
		return nil, err
	}
	lv := &level{n: boxN, valid: ld.Layout.Boxes, phi0: map[int][]*fab.FAB{1: ld.Fabs}}
	for _, b := range lv.valid {
		lv.phi1 = append(lv.phi1, fab.New(b, kernel.NComp))
	}
	return &levelProbe{
		step:          sol.Step,
		exchange:      func() { ld.Exchange(threads) },
		exchangeBytes: ld.Copier().ExchangeBytes(kernel.NComp),
		clearOutputs:  lv.clear,
		applyLevel:    func() error { return lv.apply(s, threads) },
	}, nil
}

// conformCheck sweeps the named schedules through the conformance
// harness (single-box and level cases) and fails on any divergence.
func conformCheck(names []string, seed int64) (checks int, err error) {
	var runners []conform.Runner
	for _, name := range names {
		s, err := resolveSchedule(name)
		if err != nil {
			return 0, err
		}
		runners = append(runners, s.runner)
	}
	rep, err := stencilsched.Conformance(context.Background(), stencilsched.ConformanceConfig{
		Seed: seed, DistCases: -1, Runners: runners,
	})
	if err != nil {
		return 0, err
	}
	if len(rep.Divergences) > 0 {
		return rep.Checks, fmt.Errorf("bench: conformance: %d divergences, first: %+v", len(rep.Divergences), rep.Divergences[0])
	}
	return rep.Checks, nil
}

// jobsNoopRoundtrips submits n empty jobs to a fresh queue, one at a
// time, and returns each submit-to-terminal time in seconds: the clock
// stops when the queue reports the job done, not when its func starts.
func jobsNoopRoundtrips(n int) ([]float64, error) {
	q := jobs.New(2, 16, 2)
	defer q.Drain(context.Background())
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		ran := make(chan struct{})
		start := time.Now()
		snap, err := q.Submit("noop", 1, 0, func(context.Context) (any, error) {
			close(ran)
			return nil, nil
		})
		if err != nil {
			return nil, err
		}
		<-ran
		for id := snap.ID; !snap.Status.Terminal(); {
			runtime.Gosched()
			var ok bool
			if snap, ok = q.Get(id); !ok {
				return nil, fmt.Errorf("bench: queue lost job %s", id)
			}
		}
		if snap.Status != jobs.StatusDone {
			return nil, fmt.Errorf("bench: noop job ended %s", snap.Status)
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}

// tunecacheTimes puts and then gets n small entries in a cache rooted at
// dir, returning per-call nanoseconds.
func tunecacheTimes(dir string, n int) (getNs, putNs []float64, err error) {
	c, err := tunecache.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	type row struct {
		Variant string  `json:"variant"`
		Seconds float64 `json:"seconds"`
	}
	value := []row{{"Baseline-CLO: P>=Box", 0.01}, {"Shift-Fuse-CLO: P>=Box", 0.02}}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = tunecache.Key("bench", tunecache.Fingerprint(), fmt.Sprint(i))
		start := time.Now()
		if err := c.Put(keys[i], value); err != nil {
			return nil, nil, err
		}
		putNs = append(putNs, float64(time.Since(start).Nanoseconds()))
	}
	for _, k := range keys {
		var got []row
		start := time.Now()
		ok, err := c.Get(k, &got)
		if err != nil || !ok {
			return nil, nil, fmt.Errorf("bench: tunecache get %q: ok=%v err=%v", k, ok, err)
		}
		getNs = append(getNs, float64(time.Since(start).Nanoseconds()))
	}
	return getNs, putNs, nil
}

// buildServer compiles cmd/stencilserved from the checkout at root.
func buildServer(root, out string) error {
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", out, "./cmd/stencilserved")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("bench: go build ./cmd/stencilserved: %v\n%s", err, b)
	}
	return nil
}
