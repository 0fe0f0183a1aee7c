package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
)

// largeBoxSchedules are the five schedules large_box_sweep holds side by
// side, by registry name: P>=Box beside P<Box and hand-written beside
// generated, so a gain for one that costs another shows. The class names
// are what the spans and the per-layer metrics call them.
var largeBoxSchedules = []struct{ Class, Name string }{
	{"baseline", "Baseline: P>=Box"},
	{"series_generated", "CodeGen series (generated)"},
	{"temporal_k2_ot32_generated", "Temporal K2 OT-32 (generated)"},
	{"shiftfuse_ot16", "Shift-Fuse OT-16: P<Box"},
	{"blockedwf16", "Blocked WF-CLO-16: P<Box"},
}

func largeBoxSweep(toy bool) *workload {
	w := &workload{
		Name: "large_box_sweep",
		// One block is one round of seven in seeded order, 0.45 s on the
		// quiet host: the P>=Box and temporal schedules once, the two P<Box
		// schedules twice. Sorted by cost the class boundaries fall at 14,
		// 29, 43 and 71 percent, so p50 and p90 both lie in the P<Box
		// schedules, the classes the host's state moves least (1.25x
		// between a quiet and a busy host, against 1.6x for the others).
		Mix: []classShare{
			{"baseline", 1, 0.017}, {"series_generated", 1, 0.017}, {"temporal_k2_ot32_generated", 1, 0.05},
			{"blockedwf16", 2, 0.088}, {"shiftfuse_ot16", 2, 0.092},
		},
		param: func(*rand.Rand, string, int, int) int { return 0 },
	}
	w.block = blockOf(w.Mix)
	w.setup = func(e *env, warm []opSpec) (instance, error) {
		n := 48
		if toy {
			n = 16
		}
		x := &largeBox{w: w, n: n, scheds: map[string]schedule{}, want: map[string]uint64{}}
		var ks []int
		for _, s := range largeBoxSchedules {
			sch, err := resolveSchedule(s.Name)
			if err != nil {
				return nil, err
			}
			x.scheds[s.Class] = sch
			ks = append(ks, sch.K)
		}
		x.lv = newLevel(n, 2, ks)
		// Output check: every schedule bitwise equal to its oracle on box
		// 0, every other box bitwise equal to box 0; the checksum recorded
		// here is what every op of the window must reproduce. The oracle
		// outputs are the benchmark's, not the program's, set-up: the first
		// set-up of a run computes them on every processor and the later
		// ones reuse them, so the median set-up does not hold that time.
		for _, s := range largeBoxSchedules {
			sch := x.scheds[s.Class]
			x.lv.clear()
			if err := x.lv.apply(sch, computeThreads); err != nil {
				return nil, err
			}
			if d := x.lv.referenceDiff(sch, e.nproc); d != 0 {
				return nil, fmt.Errorf("bench: %s differs from its reference by %g", sch.Name, d)
			}
			if !x.lv.boxesAgree() {
				return nil, fmt.Errorf("bench: %s: boxes with identical input differ", sch.Name)
			}
			x.want[s.Class] = x.lv.checksum()
		}
		return x, warmUp(w, x, warm)
	}
	return w
}

type largeBox struct {
	w      *workload
	n      int
	lv     *level
	scheds map[string]schedule
	want   map[string]uint64 // checksum of a correct application
}

// scheduleLayer names the layer a schedule executes in, for its spans.
func scheduleLayer(s schedule) string {
	if strings.Contains(s.Name, "(generated)") {
		return "generated.Run"
	}
	return "variants.Exec"
}

// exec is one level application. Zeroing the output before and folding
// its checksum after are the benchmark's own work: inside the window,
// outside the op's latency.
func (x *largeBox) exec(_ int, spec opSpec, sp *spanRef) opResult {
	r := opResult{Class: spec.Class}
	sch := x.scheds[spec.Class]
	x.lv.clear()
	var err error
	timed(&r, func() {
		c := sp.child(scheduleLayer(sch))
		err = x.lv.apply(sch, computeThreads)
		c.end()
	})
	switch {
	case err != nil:
		r.Err = err.Error()
	case x.lv.checksum() != x.want[spec.Class]:
		r.Err = "output checksum differs from the verified application"
	default:
		r.OK = true
		r.CellUpdates = x.lv.cells() * int64(sch.K)
	}
	return r
}

func (x *largeBox) pids() []int   { return nil }
func (x *largeBox) verify() error { return nil } // every op is checked as it runs
func (x *largeBox) close()        { x.lv = nil }

func (x *largeBox) counters() (map[string]float64, error) {
	hits, misses, _ := scratchCounters()
	return map[string]float64{"scratch.hits": float64(hits), "scratch.misses": float64(misses)}, nil
}

func (x *largeBox) layers(in layerInput) (map[string]float64, error) {
	cells := float64(x.lv.cells())
	nsPerCell := func(class string) float64 {
		sch := x.scheds[class]
		d := spanSeconds(in.Spans, spanFilter{Workload: x.w.Name, Name: scheduleLayer(sch), Class: class})
		return median(d) * 1e9 / (cells * float64(sch.K))
	}
	m := map[string]float64{
		"variants.baseline_ns_per_cell":               nsPerCell("baseline"),
		"variants.shiftfuse_ot16_ns_per_cell":         nsPerCell("shiftfuse_ot16"),
		"variants.blockedwf16_ns_per_cell":            nsPerCell("blockedwf16"),
		"generated.series_ns_per_cell":                nsPerCell("series_generated"),
		"generated.temporal_k2_ot32_ns_per_cell_step": nsPerCell("temporal_k2_ot32_generated"),
	}
	m["generated.vs_handwritten_ratio"] = m["generated.series_ns_per_cell"] / m["variants.baseline_ns_per_cell"]
	// Computed, not measured, traffic: a cell update must read phi0 and
	// read and write phi1, 3 x 5 components x 8 bytes = 120 B. The arrays
	// are far below four times this host's 260 MiB L3, so this is an
	// effective rate and no roofline fraction is claimed.
	m["generated.t_eff_gbps_series"] = 3 * nComp * 8 / m["generated.series_ns_per_cell"]

	// Exact accounting from the executors themselves.
	recompute, _, _, err := scheduleAccounting("Shift-Fuse OT-16: P<Box", x.n, 2, computeThreads)
	if err != nil {
		return nil, err
	}
	_, tempBytes, _, err := scheduleAccounting("Baseline: P>=Box", x.n, 2, computeThreads)
	if err != nil {
		return nil, err
	}
	// A wavefront's efficiency is a count of how evenly its fronts fill
	// the threads: 1 by definition on one thread, so it is taken for two.
	_, _, wfEff, err := scheduleAccounting("Blocked WF-CLO-16: P<Box", x.n, 2, 2)
	if err != nil {
		return nil, err
	}
	m["variants.recompute_factor_ot16"] = recompute
	m["variants.temp_bytes_baseline"] = float64(tempBytes)
	m["wavefront.efficiency_blockedwf16"] = wfEff

	// The window is the plain single-threaded run of the level; the same
	// level on two threads, probed here, gives the two speed-ups.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(2, in.E.nproc)))
	for class, name := range map[string]string{"shiftfuse_ot16": "parallel.p_lt_box_speedup", "baseline": "parallel.p_ge_box_speedup"} {
		sch := x.scheds[class]
		var parallel []float64
		for rep := 0; rep < 5; rep++ {
			x.lv.clear()
			d, err := probeSeconds(in.Tracer, x.w.Name, scheduleLayer(sch)+"[2 threads]", func() error { return x.lv.apply(sch, min(2, in.E.nproc)) })
			if err != nil {
				return nil, err
			}
			parallel = append(parallel, d)
		}
		m[name] = (nsPerCell(class) * cells / 1e9) / median(parallel)
	}

	_, _, retained := scratchCounters()
	c := in.Window.Counters
	m["scratch.checkout_miss_share"] = c["scratch.misses"] / (c["scratch.hits"] + c["scratch.misses"])
	m["scratch.bytes_retained_mb"] = float64(retained) / 1e6
	m["scratch.allocs_per_op"] = float64(in.Window.Mallocs) / float64(in.Window.Tally.Ops)
	return m, nil
}
