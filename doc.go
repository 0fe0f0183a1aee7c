// Package stencilsched reproduces "A Study on Balancing Parallelism, Data
// Locality, and Recomputation in Existing PDE Solvers" (Olschanowsky,
// Strout, Guzik, Loffeld, Hittinger — SC 2014): ~30 inter-loop scheduling
// variants of a Chombo-style finite-volume CFD flux kernel, the mini
// framework they run on (boxes, FArrayBoxes, disjoint layouts, ghost
// exchange), the CodeGen+-style What/When/Where machinery used to build
// them, and the performance substrate (machine models, a cache simulator,
// and a roofline/bandwidth-contention model) that regenerates every figure
// and table of the paper's evaluation.
//
// # Quick start
//
//	v, _ := stencilsched.VariantByName("Shift-Fuse OT-8: P<Box")
//	res := stencilsched.RunMeasured(v, stencilsched.Problem{BoxN: 32, NumBoxes: 4, Threads: 4}, 3)
//	fmt.Printf("%.1f Mcells/s\n", res.MCellsPerSec)
//
// Every variant computes bit-for-bit the same result as the Figure 6
// reference kernel; Verify checks that on demand.
//
// A Schedule is the one handle for anything that applies the operator to
// a box — a studied variant, a schedc-compiled runner, an FFT backend —
// and Autotune ranks them per Euler step on this host:
//
//	best, _ := stencilsched.Autotune(ctx, stencilsched.Problem{BoxN: 32, NumBoxes: 4, Threads: 4}, 3, nil)
//	fmt.Println(best[0].Schedule.Name, best[0].StepSeconds)
//
// # Measured vs modeled
//
// RunMeasured executes the real goroutine-parallel kernels on the host.
// The paper's scaling figures, however, are properties of specific 2014
// HPC nodes; ModelCurve and the Figure* experiment drivers regenerate
// their shapes from the calibrated machine models in internal/machine and
// internal/perfmodel (see DESIGN.md for the substitution argument and
// EXPERIMENTS.md for paper-vs-reproduction records).
//
// # Service layer
//
// Long-running workloads go through cmd/stencilserved, an HTTP service
// that queues solves and measured tuning sweeps on a bounded worker pool
// (internal/jobs), caches autotune results per host/problem/candidate
// set (internal/tunecache), and exposes Prometheus metrics
// (internal/metrics). RunMeasuredContext and Autotune take a context for
// it — and for any caller that needs to cancel a long measurement.
package stencilsched
