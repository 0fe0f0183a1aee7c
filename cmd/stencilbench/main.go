// Command stencilbench runs the study's scheduling variants: list them,
// verify them against the reference kernel, execute them on the host with
// real goroutine parallelism, model them on the paper's machines, or run
// them distributed across ranks (in-process loopback, or one rank of a
// real TCP mesh). Three modes measure schedule sets through the autotuner
// and print one table each: compare (generated vs hand-written),
// temporal (the compiled (tile, K) points with their wall-time and
// traffic verdicts) and fft (the spectral K ladder and its crossover
// against the K4 temporal schedule). Every mode prints; none writes a
// file.
//
// Usage examples:
//
//	stencilbench -list
//	stencilbench -verify -n 16
//	stencilbench -variant "Shift-Fuse OT-8: P<Box" -n 64 -boxes 4 -threads 8 -reps 3
//	stencilbench -variant "Baseline: P>=Box" -mode modeled -machine Magny -n 128
//	stencilbench -variant "Baseline: P>=Box" -mode sweep -machine Atlantis -n 128
//	stencilbench -variant "Baseline-CLO: P>=Box" -mode dist -domain 32 -n 16 -ranks 4 -halo 2 -steps 8
//	stencilbench -variant "Baseline-CLO: P>=Box" -mode dist -domain 32 -n 16 -ranks 2 -halo 2 -steps 8 \
//	    -dist-rank 0 -dist-addrs host0:9000,host1:9000
//	stencilbench -mode compare -n 32 -reps 3
//	stencilbench -mode temporal -n 64 -boxes 2 -threads 4 -reps 3
//	stencilbench -mode fft -n 64 -boxes 1 -threads 4 -reps 3
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"stencilsched"
	"stencilsched/internal/perfmodel"
	"stencilsched/internal/report"
)

// options collects every knob of a stencilbench invocation; the flag set
// maps onto it one to one, and tests drive run directly.
type options struct {
	list, verify bool
	name         string
	mode         string // measured | modeled | sweep | dist | compare | temporal | fft
	mach         string
	n            int // box size
	boxes        int // box count (measured mode)
	threads      int
	reps         int

	// Distributed mode.
	domain    int    // global cubic domain edge
	ranks     int    // peer count
	haloK     int    // deep-halo superstep factor
	steps     int    // time steps
	distRank  int    // >= 0: run this one rank of a TCP mesh
	distAddrs string // comma-separated host:port list, rank order

	out io.Writer
}

func main() {
	var o options
	flag.BoolVar(&o.list, "list", false, "list the studied variants and exit")
	flag.BoolVar(&o.verify, "verify", false, "verify every variant against the reference kernel and exit")
	flag.StringVar(&o.name, "variant", "", "variant name (paper legend style)")
	flag.StringVar(&o.mode, "mode", "measured", "measured | modeled | sweep | dist | compare | temporal | fft")
	flag.StringVar(&o.mach, "machine", "Magny", "machine key for modeled runs (Magny, Atlantis, Sandy, desktop)")
	flag.IntVar(&o.n, "n", 32, "box size N (box is N^3)")
	flag.IntVar(&o.boxes, "boxes", 2, "number of boxes (measured mode)")
	flag.IntVar(&o.threads, "threads", 4, "thread count (per rank in dist mode)")
	flag.IntVar(&o.reps, "reps", 3, "repetitions (minimum reported)")
	flag.IntVar(&o.domain, "domain", 32, "global cubic domain edge (dist mode)")
	flag.IntVar(&o.ranks, "ranks", 1, "rank count (dist mode)")
	flag.IntVar(&o.haloK, "halo", 1, "deep-halo superstep factor K: exchange every K steps (dist mode)")
	flag.IntVar(&o.steps, "steps", 4, "time steps (dist mode)")
	flag.IntVar(&o.distRank, "dist-rank", -1, "run this one rank of a TCP mesh (requires -dist-addrs)")
	flag.StringVar(&o.distAddrs, "dist-addrs", "", "comma-separated host:port per rank, rank order (TCP mesh)")
	flag.Parse()
	o.out = os.Stdout
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "stencilbench:", err)
		os.Exit(1)
	}
}

// tunedModes are the modes that measure a schedule set through the
// autotuner and answer one table.
var tunedModes = map[string]func(options) (*report.Table, error){
	"compare":  compareTable,
	"temporal": temporalTable,
	"fft":      fftTable,
}

func run(o options) error {
	if o.out == nil {
		o.out = os.Stdout
	}
	if o.list {
		for _, v := range stencilsched.Variants() {
			fmt.Fprintln(o.out, v.Name())
		}
		return nil
	}
	if o.verify {
		if err := stencilsched.VerifyAll(o.n, o.threads); err != nil {
			return err
		}
		fmt.Fprintf(o.out, "all %d variants bit-identical to the reference on a %d^3 box\n",
			len(stencilsched.Variants()), o.n)
		return nil
	}
	if table, ok := tunedModes[o.mode]; ok {
		t, err := table(o)
		if err != nil {
			return err
		}
		return t.Render(o.out)
	}
	if o.name == "" {
		return fmt.Errorf("need -variant, -list or -verify")
	}
	v, err := stencilsched.VariantByName(o.name)
	if err != nil {
		// Fall back to the extended space (rectangular tile shapes).
		v, err = stencilsched.ParseVariant(o.name)
		if err != nil {
			return err
		}
	}
	switch o.mode {
	case "measured":
		return runMeasured(o, v)
	case "dist":
		return runDist(o, v)
	case "modeled":
		m, err := stencilsched.MachineByName(o.mach)
		if err != nil {
			return err
		}
		b := stencilsched.Model(perfmodel.Config{
			Machine: m, Variant: v, BoxN: o.n,
			NumBoxes: perfmodel.PaperNumBoxes(o.n), Threads: o.threads,
		})
		fmt.Fprintf(o.out, "%s on %s, N=%d, %d threads (modeled)\n", v.Name(), m.Name, o.n, o.threads)
		fmt.Fprintf(o.out, "  total %.3fs  (compute %.3fs, memory %.3fs, regions %.3fs)\n",
			b.TotalSec, b.ComputeSec, b.MemorySec, b.RegionSec)
		fmt.Fprintf(o.out, "  speedup %.1f, bandwidth %.1f GB/s, cache-fit=%v\n", b.Speedup, b.BWGBs, b.Fits)
		return nil
	case "sweep":
		m, err := stencilsched.MachineByName(o.mach)
		if err != nil {
			return err
		}
		ts := m.ThreadSweep()
		curve := stencilsched.ModelCurve(m, v, o.n, ts)
		t := &report.Table{
			Title:  fmt.Sprintf("%s, N=%d on %s (modeled)", v.Name(), o.n, m.Name),
			Header: []string{"threads", "time (s)", "speedup"},
		}
		for i, p := range ts {
			t.Add(p, curve[i], curve[0]/curve[i])
		}
		return t.Render(o.out)
	default:
		return fmt.Errorf("unknown mode %q", o.mode)
	}
}

func runMeasured(o options, v stencilsched.Variant) error {
	p := stencilsched.Problem{BoxN: o.n, NumBoxes: o.boxes, Threads: o.threads}
	res, err := stencilsched.RunMeasured(v, p, o.reps)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.out, "%s\n", v.Name())
	fmt.Fprintf(o.out, "  problem:    %d boxes of %d^3 (%d cells), %d threads, %d reps\n",
		o.boxes, o.n, res.Problem.Cells(), o.threads, o.reps)
	fmt.Fprintf(o.out, "  time:       %.6fs min (mean %.6fs ± %.6fs)\n",
		res.Seconds, res.Timing.Mean, res.Timing.StdDev)
	fmt.Fprintf(o.out, "  throughput: %.2f Mcells/s\n", res.MCellsPerSec)
	fmt.Fprintf(o.out, "  temps:      flux %d B, velocity %d B; recompute factor %.3f\n",
		res.Stats.TempFluxBytes, res.Stats.TempVelBytes, res.Stats.RecomputeFactor())
	if res.Stats.Wavefront.Items > 0 {
		fmt.Fprintf(o.out, "  wavefront:  %d items in %d fronts, efficiency %.2f at %d threads\n",
			res.Stats.Wavefront.Items, res.Stats.Wavefront.Wavefronts,
			res.Stats.Wavefront.Efficiency(o.threads), o.threads)
	}
	return nil
}

func runDist(o options, v stencilsched.Variant) error {
	p := stencilsched.DistProblem{
		DomainN:  o.domain,
		BoxN:     o.n,
		Periodic: [3]bool{true, true, true},
		Ranks:    o.ranks,
		HaloK:    o.haloK,
		Steps:    o.steps,
		Threads:  o.threads,
	}
	if o.distRank >= 0 {
		// One rank of a real multi-process TCP mesh.
		addrs := strings.Split(o.distAddrs, ",")
		if o.distAddrs == "" || len(addrs) != o.ranks {
			return fmt.Errorf("-dist-rank needs -dist-addrs with exactly %d comma-separated host:port entries", o.ranks)
		}
		rr, err := stencilsched.SolveDistributedRankTCP(context.Background(), v, p, o.distRank, addrs)
		if err != nil {
			return err
		}
		fmt.Fprintf(o.out, "%s (TCP rank %d/%d)\n", v.Name(), rr.Rank, o.ranks)
		fmt.Fprintf(o.out, "  problem:  %d^3 domain, %d^3 boxes, halo K=%d, %d steps, %d threads\n",
			o.domain, o.n, o.haloK, o.steps, o.threads)
		fmt.Fprintf(o.out, "  rank:     %d boxes in %.4fs\n", rr.Boxes, rr.Seconds)
		fmt.Fprintf(o.out, "  exchange: %d msgs, %d B sent, %d retries, overlap %.2f\n",
			rr.Messages, rr.Bytes, rr.Retries, rr.OverlapRatio)
		return nil
	}
	res, err := stencilsched.SolveDistributed(v, p)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.out, "%s (loopback, %d ranks)\n", v.Name(), o.ranks)
	fmt.Fprintf(o.out, "  problem:   %d^3 domain, %d^3 boxes, halo K=%d, %d steps, %d threads/rank\n",
		o.domain, o.n, o.haloK, o.steps, o.threads)
	fmt.Fprintf(o.out, "  time:      %.4fs (%.4fs/step), %.2f Mcells/s\n",
		res.Seconds, res.MeasuredStepSec, res.MCellsPerSec)
	fmt.Fprintf(o.out, "  exchange:  %d msgs, %d B, %d retries, overlap %.2f\n",
		res.Messages, res.Bytes, res.Retries, res.OverlapRatio)
	fmt.Fprintf(o.out, "  recompute: %d ghost-shell cell updates\n", res.RecomputedCells)
	// The cluster model's prediction next to the measurement, on the
	// first study machine over Gemini — a fixed reference point, so runs
	// compare across commits.
	if pred, err := stencilsched.PredictDistributedStep(v, p, stencilsched.Machines()[0], stencilsched.CrayGemini()); err == nil {
		fmt.Fprintf(o.out, "  model:     %.4fs/step predicted (%s over %s)\n",
			pred.StepSec, stencilsched.Machines()[0].Name, stencilsched.CrayGemini().Name)
	}
	return nil
}
