package main

import (
	"fmt"
	"math"
	"math/rand"
)

const (
	smallBoxSchedule = "Baseline: P>=Box"
	smallBoxN        = 16
	// smallBoxSteps is the operator applications per op: Advance(4) Euler,
	// Advance(1) RK4 (four stages) and a 4-step distributed solve all
	// deliver four updates per cell.
	smallBoxSteps = 4
	smallBoxRanks = 2
	smallBoxDt    = 0.05
)

var smallBoxU = [3]float64{0.5, 0.25, 0.125}

// distHalo maps the distributed op classes to their deep-halo factor.
var distHalo = map[string]int{"dist_halo1": 1, "dist_halo2": 2, "dist_halo4": 4}

func smallBoxLevel(toy bool) *workload {
	w := &workload{
		Name: "small_box_level",
		// One block is 20 ops, 0.6 s on the quiet host. Sorted by cost the
		// class boundaries fall at 20, 70, 80 and 95 percent: p50 sits in
		// the middle of the RK4 ops and p90 inside the halo-2 solves, each
		// at least 5 points from a boundary.
		Mix: []classShare{
			{"euler4", 4, 0.015}, {"rk4x1", 10, 0.017},
			{"dist_halo1", 2, 0.047}, {"dist_halo2", 3, 0.058}, {"dist_halo4", 1, 0.098},
		},
		param: func(*rand.Rand, string, int, int) int { return 0 },
	}
	w.block = blockOf(w.Mix)
	if toy {
		w.block = []string{"euler4", "euler4", "rk4x1", "dist_halo1", "dist_halo2", "dist_halo4"}
	}
	w.setup = func(e *env, warm []opSpec) (instance, error) {
		x := &smallBox{w: w, domainN: 32, counts: map[int]distOutcome{}}
		if toy {
			x.domainN = 16
			x.boxN = 8
		} else {
			x.boxN = smallBoxN
		}
		var err error
		if x.euler, err = newAdvection(smallBoxSchedule, x.domainN, x.boxN, smallBoxU, smallBoxDt, false, computeThreads); err != nil {
			return nil, err
		}
		if x.rk4, err = newAdvection(smallBoxSchedule, x.domainN, x.boxN, smallBoxU, smallBoxDt, true, computeThreads); err != nil {
			return nil, err
		}
		// The message, byte and recompute counts of a distributed solve
		// are exact functions of the decomposition: record them once and
		// hold every op of the window to them.
		for _, k := range distHalo {
			out, err := solveDist(smallBoxSchedule, x.domainN, x.boxN, smallBoxRanks, k, smallBoxSteps, 1)
			if err != nil {
				return nil, err
			}
			x.counts[k] = out
		}
		if x.counts[4].Recomputed <= x.counts[1].Recomputed || x.counts[4].Messages >= x.counts[1].Messages {
			return nil, fmt.Errorf("bench: deep halo did not trade messages for recomputation: %+v", x.counts)
		}
		if err := warmUp(w, x, warm); err != nil {
			return nil, err
		}
		return x, x.verify()
	}
	return w
}

type smallBox struct {
	w             *workload
	domainN, boxN int
	euler, rk4    *advection
	counts        map[int]distOutcome // by halo factor, recorded at set-up
}

func (x *smallBox) cells() int64 { return int64(x.domainN) * int64(x.domainN) * int64(x.domainN) }

func (x *smallBox) exec(_ int, spec opSpec, sp *spanRef) opResult {
	r := opResult{Class: spec.Class, CellUpdates: x.cells() * smallBoxSteps}
	var err error
	switch spec.Class {
	case "euler4", "rk4x1":
		a, steps := x.euler, smallBoxSteps
		if spec.Class == "rk4x1" {
			a, steps = x.rk4, 1
		}
		timed(&r, func() {
			c := sp.child("solver.Advance")
			a.advance(steps)
			c.end()
		})
		err = conservedTotals(a.totals(), x.domainN, smallBoxU)
	default:
		k := distHalo[spec.Class]
		var out distOutcome
		timed(&r, func() {
			c := sp.child("dist.SolveDistributed")
			out, err = solveDist(smallBoxSchedule, x.domainN, x.boxN, smallBoxRanks, k, smallBoxSteps, 1)
			c.end()
		})
		want := x.counts[k]
		if err == nil && (out.Messages != want.Messages || out.Bytes != want.Bytes || out.Recomputed != want.Recomputed) {
			err = fmt.Errorf("halo %d sent %d messages / %d bytes and recomputed %d cells; set-up recorded %d / %d / %d",
				k, out.Messages, out.Bytes, out.Recomputed, want.Messages, want.Bytes, want.Recomputed)
		}
		r.fact("dist.seconds", out.Seconds)
		r.fact("dist.overlap", out.Overlap)
		r.fact("dist.retries", float64(out.Retries))
	}
	if err != nil {
		r.Err, r.CellUpdates = err.Error(), 0
	} else {
		r.OK = true
	}
	return r
}

func (x *smallBox) pids() []int { return nil }
func (x *smallBox) close()      { x.euler, x.rk4 = nil, nil }

func (x *smallBox) counters() (map[string]float64, error) { return nil, nil }

// verify holds both solves to conservation and to the exactly advected
// profile: RK4 stays within 1e-4 of it, first-order Euler within 1e-2.
func (x *smallBox) verify() error {
	for _, s := range []struct {
		name string
		a    *advection
		tol  float64
	}{{"euler", x.euler, 1e-2}, {"rk4", x.rk4, 1e-4}} {
		if err := conservedTotals(s.a.totals(), x.domainN, smallBoxU); err != nil {
			return fmt.Errorf("bench: %s solve: %v", s.name, err)
		}
		if e := s.a.densityError(); !(e < s.tol) {
			return fmt.Errorf("bench: %s solve: density error %g exceeds %g", s.name, e, s.tol)
		}
	}
	return nil
}

func (x *smallBox) layers(in layerInput) (map[string]float64, error) {
	name := x.w.Name
	res := in.Window.Results
	advance := func(class string) float64 {
		return median(spanSeconds(in.Spans, spanFilter{Workload: name, Name: "solver.Advance", Class: class}))
	}
	eulerStep := advance("euler4") / smallBoxSteps
	m := map[string]float64{
		"solver.advance_s_per_step_euler": eulerStep,
		"solver.advance_s_per_stage_rk4":  advance("rk4x1") / 4,
	}

	// What a step is made of: a whole Euler step, the exchange alone and
	// the bare level application alone, called in turn on one state of
	// the window's layout, so the three times of a round are taken under
	// the same host conditions and the shares are shares of that step.
	probe, err := newLevelProbe(smallBoxSchedule, x.domainN, x.boxN, smallBoxU, smallBoxDt, computeThreads)
	if err != nil {
		return nil, err
	}
	var exch, exchShare, overhead []float64
	for round := 0; round < 20; round++ {
		step, _ := probeSeconds(in.Tracer, name, "solver.Step", func() error { probe.step(); return nil })
		ex, _ := probeSeconds(in.Tracer, name, "layout.Exchange", func() error { probe.exchange(); return nil })
		probe.clearOutputs()
		apply, err := probeSeconds(in.Tracer, name, "variants.Exec[level]", probe.applyLevel)
		if err != nil {
			return nil, err
		}
		exch = append(exch, ex)
		exchShare = append(exchShare, ex/step)
		overhead = append(overhead, (step-ex-apply)/step)
	}
	m["ghost.exchange_s_per_step"] = median(exch)
	m["ghost.exchange_share"] = median(exchShare)
	m["ghost.bytes_per_step"] = float64(probe.exchangeBytes)
	// A step also zeroes, scales and adds its stage: the share cannot be
	// negative, and a negative reading is a failed measurement.
	if m["solver.overhead_share"] = median(overhead); m["solver.overhead_share"] < 0 {
		return nil, fmt.Errorf("bench: solver.overhead_share measured %g: a step took less than its parts", m["solver.overhead_share"])
	}

	steps := float64(smallBoxSteps)
	for class, k := range distHalo {
		m[fmt.Sprintf("dist.step_s_halo%d", k)] = median(facts(res, class, "dist.seconds")) / steps
	}
	h1, h4 := x.counts[1], x.counts[4]
	m["dist.msgs_per_step_halo1"] = float64(h1.Messages) / steps
	m["dist.bytes_per_step_halo1"] = float64(h1.Bytes) / steps
	m["dist.bytes_per_step_halo4"] = float64(h4.Bytes) / steps
	owned := float64(x.cells()) * steps
	m["dist.recomputed_cell_share_halo4"] = float64(h4.Recomputed) / (owned + float64(h4.Recomputed))
	m["dist.overlap_ratio_halo1"] = median(facts(res, "dist_halo1", "dist.overlap"))
	m["dist.retries"] = sum(facts(res, "", "dist.retries"))
	// Set-up of a distributed solve: the caller's wait minus the time the
	// runtime reports for the solve itself.
	var setup []float64
	for _, r := range res {
		if s, ok := r.Facts["dist.seconds"]; ok {
			setup = append(setup, r.Latency-s)
		}
	}
	m["dist.setup_s"] = median(setup)
	m["dist.vs_solver_ratio"] = m["dist.step_s_halo1"] / eulerStep
	pred, err := predictDistStep(smallBoxSchedule, x.domainN, x.boxN, smallBoxRanks, 1, smallBoxSteps, 1)
	if err != nil {
		return nil, err
	}
	m["perfmodel.dist_step_rel_err"] = math.Abs(pred-m["dist.step_s_halo1"]) / m["dist.step_s_halo1"]
	return m, nil
}
