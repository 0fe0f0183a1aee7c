// Command bench is the repository's benchmark: three workloads, five
// end-to-end metrics each, and a traced run that times the layers from
// the outside in. See README.md; BENCHMARK.json at the repository root is
// the contract the driver holds it to.
//
//	bash bench/run.sh --workload large_box_sweep --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh --workload small_box_level --seed 1 --seconds 30 --trace 1
//	bash bench/run.sh                      # every workload, untraced
//	bash bench/run.sh --selfcheck          # two sets of runs, the noise table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// setupRepeats is the least number of times the whole set-up is executed
// (torn down and rebuilt) in an untraced run: set-ups go on until they
// have taken a quarter of the window's length, 5 to 11 of them. setup_s is
// taken from the quiet part of the run like the window metrics: the
// quietShare quantile, which is the fastest of up to ten set-ups and the
// second fastest of more. The first set-up, which also builds the server
// or computes the oracles, never is that.
const setupRepeats = 5

// selfcheckPasses is the number of runs per set and workload of the noise
// self-check.
const selfcheckPasses = 5

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name      = flag.String("workload", "", "workload to run (all of them, untraced, when empty)")
		seed      = flag.Int64("seed", 1, "workload seed: same seed, same inputs")
		seconds   = flag.Float64("seconds", 0, "length of the measured window on the reference host (BENCHMARK.json's run_seconds when 0)")
		trace     = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
		selfcheck = flag.Bool("selfcheck", false, "run two sets of 5 untraced runs of every workload and print the noise table")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		return 2
	}
	// One busy thread at a time, in this process too: the ranks of a
	// distributed solve take turns on it.
	runtime.GOMAXPROCS(computeThreads)
	ws := workloads(false)
	var selected []*workload
	for _, w := range ws {
		if *name == "" || w.Name == *name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || (*trace == 1 && len(selected) != 1) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q, or -trace 1 without one\n", *name)
		return 2
	}
	e, err := newEnv(runtime.NumCPU())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer e.close()
	// Servers must not outlive the benchmark on any exit path.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.close()
		os.Exit(130)
	}()
	if *seconds == 0 {
		*seconds = float64(e.spec.RunSeconds)
	}
	if *selfcheck {
		if err := selfCheck(e.spec, ws, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}
	fmt.Printf("# nproc=%d threads=%d connections=%d seed=%d seconds=%g\n", runtime.NumCPU(), computeThreads, computeThreads, *seed, *seconds)
	for _, w := range selected {
		var res result
		var measuredOn map[string]string
		if *trace == 1 {
			res, measuredOn, err = runTraced(e, layerGroups(false), w, *seed, *seconds)
		} else {
			res, err = runUntraced(e, w, *seed, *seconds)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
			return 1
		}
		report(e.spec, w, res, measuredOn)
	}
	return 0
}

// report writes every metric by name with its unit, each line led by the
// workload it was measured on, then the result object as the last line.
func report(spec *benchSpec, w *workload, res result, measuredOn map[string]string) {
	fmt.Printf("# %s: ops=%d failed_ops=%d correct=%v\n", w.Name, res.Attempted, res.Failed, res.Correct)
	for _, defs := range [][]metricDef{spec.EndToEnd, spec.PerLayer} {
		for _, d := range defs {
			if v, ok := res.Metrics[d.Name]; ok {
				on := w.Name
				if measuredOn[d.Name] != "" {
					on = measuredOn[d.Name]
				}
				fmt.Printf("%-20s %-46s %.6g %s\n", on, d.Name, v.Value, v.Unit)
			}
		}
	}
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
}

// pack builds the result object from measured values, refusing any
// that is missing, not finite, or undeclared.
func pack(defs []metricDef, values map[string]float64, correct bool, t tally) (result, error) {
	res := result{Correct: correct, Attempted: t.Ops, Failed: t.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s was not measured (%v)", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		return result{}, fmt.Errorf("%d values for %d declared metrics", len(values), len(defs))
	}
	return res, nil
}

// runUntraced produces the end-to-end metrics: the set-up executed
// setupRepeats times or more, then one window with tracing off.
func runUntraced(e *env, w *workload, seed int64, seconds float64) (result, error) {
	pl := w.planner(seed)
	warm := pl.block()
	var inst instance
	var setups []float64
	for first := time.Now(); len(setups) < setupRepeats || time.Since(first).Seconds() < seconds/4; {
		if inst != nil {
			inst.close()
			release()
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(e, warm); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()
	win, err := measure(w, inst, pl, seconds, w.MinOps, nil)
	if err != nil {
		return result{}, err
	}
	correct := win.Tally.Failed == 0
	if err := inst.verify(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: output check after the window: %v\n", w.Name, err)
		correct = false
	}
	if win.Tally.Failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: %d failed ops, first: %s\n", w.Name, win.Tally.Failed, win.Tally.FirstErr)
	}
	values := win.endToEnd()
	values["setup_s"] = quantile(setups, quietShare)
	fmt.Printf("# %s: window %.2f s, set-ups %.3g s\n", w.Name, win.WallSec, setups)
	fmt.Printf("# %s: %d blocks, ms:", w.Name, len(win.Blocks))
	for _, b := range win.Blocks {
		fmt.Printf(" %.0f", 1e3*b.WallSec)
	}
	fmt.Println()
	for _, m := range w.Mix {
		lat := latencies(win.Results, m.Class)
		fmt.Printf("# %s: class %-28s ops=%-4d latency p10=%.4f p50=%.4f p90=%.4f s\n", w.Name, m.Class, len(lat), quantile(lat, 0.1), median(lat), quantile(lat, 0.9))
	}
	return pack(e.spec.EndToEnd, values, correct, win.Tally)
}

// runTraced produces the per-layer metrics. The driver expects every one
// of them from a traced run of any workload, so each layer group is
// measured on its own traced window, of the same length whichever workload
// was selected: a fifth of an untraced run's window (and two blocks at
// least), because five windows share the run. The selected workload also
// runs that window untraced, on a fresh set-up: the two throughputs give
// the tracing overhead. measuredOn names the group behind each metric.
func runTraced(e *env, groups []*workload, selected *workload, seed int64, seconds float64) (res result, measuredOn map[string]string, err error) {
	tr := newTracer()
	values := map[string]float64{}
	measuredOn = map[string]string{}
	correct := true
	var selectedTally tally
	runWindow := func(w *workload, tr *tracer) (window, error) {
		pl := w.planner(seed)
		inst, err := w.setup(e, pl.block())
		if err != nil {
			return window{}, err
		}
		defer func() {
			inst.close()
			release()
		}()
		win, err := measure(w, inst, pl, seconds/5, len(w.block)+1, tr)
		if err != nil {
			return window{}, err
		}
		if win.Tally.Failed > 0 || inst.verify() != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %d failed ops (%s) or failed output check\n", w.Name, win.Tally.Failed, win.Tally.FirstErr)
			correct = false
		}
		if tr == nil {
			return win, nil
		}
		layers, err := inst.layers(layerInput{Spans: tr.snapshot(), Window: win, E: e, Tracer: tr})
		for k, v := range layers {
			values[k] = v
			measuredOn[k] = w.Name
		}
		return win, err
	}
	for _, w := range groups {
		var untraced window
		if w.Name == selected.Name {
			if untraced, err = runWindow(w, nil); err != nil {
				return result{}, nil, err
			}
		}
		traced, err := runWindow(w, tr)
		if err != nil {
			return result{}, nil, err
		}
		if w.Name == selected.Name {
			values["trace.overhead_share"] = 1 - traced.endToEnd()["cell_updates_per_s"]/untraced.endToEnd()["cell_updates_per_s"]
			// CPU of the benchmark process and its servers over the whole
			// traced window. No end-to-end metric: in process it is the
			// inverse of the throughput, and the served solves' CPU time
			// moves by a quarter with the host between runs of identical code.
			values["proc.cpu_s_per_mcell"] = traced.CPUSec / (float64(traced.Tally.CellUpdates) / 1e6)
			selectedTally = traced.Tally
		}
	}
	if err := writeSpans(filepath.Join(e.root, "bench", "out", "trace-"+selected.Name+".json"), tr.finish()); err != nil {
		return result{}, nil, err
	}
	res, err = pack(e.spec.PerLayer, values, correct, selectedTally)
	return res, measuredOn, err
}
