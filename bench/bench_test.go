package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

func TestTallyAccountsForEveryOp(t *testing.T) {
	plan := make([]opSpec, 103)
	for i := range plan {
		plan[i] = opSpec{Class: "a", Param: i}
	}
	// Every seventh op fails its check and every eleventh is throttled
	// once before succeeding.
	results := runOps(once(plan), func(i int, spec opSpec) opResult {
		r := opResult{Class: spec.Class, OK: spec.Param%7 != 0, CellUpdates: 10}
		if spec.Param%11 == 0 {
			r.Throttled = 1
		}
		return r
	})
	got := tallyOf(results)
	wantFailed := 0
	for i := range plan {
		if i%7 == 0 || i%11 == 0 {
			wantFailed++
		}
	}
	if got.Ops != len(plan) || got.Ops != got.OK+got.Failed || got.Failed != wantFailed {
		t.Fatalf("tally %+v: want ops %d = ok + failed, failed %d", got, len(plan), wantFailed)
	}
	if got.CellUpdates != int64(10*got.OK) {
		t.Fatalf("cell updates %d counted for %d ok ops: failed ops must deliver none", got.CellUpdates, got.OK)
	}
	for i, r := range results {
		if r.OK != (i%7 != 0) {
			t.Fatalf("result %d does not belong to plan entry %d", i, i)
		}
	}
}

func TestWindowIsWholeBlocks(t *testing.T) {
	block := []opSpec{{Class: "a"}, {Class: "a"}, {Class: "b"}, {Class: "a"}, {Class: "b"}}
	// The source stops dealing once 12 ops are out: the window must still
	// finish the block it is in, and every op handed out must be run.
	results := runOps(func(taken int) []opSpec {
		if taken >= 12 {
			return nil
		}
		return block
	}, func(i int, spec opSpec) opResult { return opResult{Class: spec.Class, OK: true} })
	if got := tallyOf(results); got.Ops != 15 || got.OK != 15 {
		t.Fatalf("tally %+v: want three whole blocks, 15 ops, all run", got)
	}
	if a, b := len(latencies(results, "a")), len(latencies(results, "b")); a != 9 || b != 6 {
		t.Errorf("classes a=%d b=%d, want the blocks' 9 and 6", a, b)
	}
}

func TestEndToEndComesFromTheQuietBlocks(t *testing.T) {
	// Twenty blocks of two ops, ten cell updates an op; block b takes
	// b+1 seconds except blocks 7 and 12, the fastest two: the quiet tenth.
	win := window{PeakRSSMB: 7}
	for b := 0; b < 20; b++ {
		wall := float64(b + 1)
		switch b {
		case 7:
			wall = 0.5
		case 12:
			wall = 0.25
		}
		win.Blocks = append(win.Blocks, blockStat{From: 2 * b, To: 2*b + 2, WallSec: wall})
		win.Results = append(win.Results,
			opResult{OK: true, CellUpdates: 10, Latency: 0.4 * wall}, opResult{OK: true, CellUpdates: 10, Latency: 0.6 * wall})
	}
	got := win.endToEnd()
	want := map[string]float64{
		"cell_updates_per_s": 40 / 0.75, // 40 updates in 0.5+0.25 s
		"op_latency_p50_s":   0.15,      // their ops waited 0.1, 0.15, 0.2, 0.3 s
		"op_latency_p90_s":   0.3,
		"peak_rss_mb":        7,
	}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9*w {
			t.Errorf("%s = %g, want %g", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d metrics, want %d", len(got), len(want))
	}
}

func TestQuantileIsExactNearestRank(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10} // 1..10 shuffled
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.91, 10}, {0, 1}, {1, 10}, {0.1, 1}, {0.11, 2}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 9 {
		t.Error("quantile must not reorder its argument")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples must be NaN")
	}
	// 200 samples leave 20 beyond p90.
	big := make([]float64, 200)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := quantile(big, 0.9); got != 180 {
		t.Errorf("p90 of 1..200 = %g, want 180", got)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %g, want %g", got, want)
	}
}

func TestEveryMixObeysThePercentileRule(t *testing.T) {
	for _, w := range workloads(false) {
		if c := percentileRuleViolation(w.Mix); c != "" {
			t.Errorf("%s: class boundary after %s lies within 5 points of p50 or p90", w.Name, c)
		}
		if w.MinOps < 120 {
			t.Errorf("%s: a window may be as short as %d ops", w.Name, w.MinOps)
		}
	}
	// The rule must reject what it exists to reject: a 50/50 bimodal mix.
	if percentileRuleViolation([]classShare{{"fast", 1, 0.1}, {"slow", 1, 1}}) == "" {
		t.Error("a 50/50 bimodal mix passed the percentile rule")
	}
	if percentileRuleViolation([]classShare{{"slow", 3, 1}, {"fast", 22, 0.1}}) == "" {
		t.Error("a class boundary at 88% passed the percentile rule")
	}
}

func TestSelfTimeIsSpanMinusChildCover(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2: union is [10,50)
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to the parent: [90,100)
		{ID: 5, Parent: 3, Start: 25, End: 45},
	}
	fillSelfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 20, 4: 30, 5: 20}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d self = %d, want %d", s.ID, s.Self, want[s.ID])
		}
	}
	// A nil tracer records nothing and costs nothing.
	var tr *tracer
	sp := tr.root("w", 0, "c", "op")
	sp.child("x").end()
	sp.end()
	if tr.finish() != nil {
		t.Error("nil tracer produced spans")
	}
}

func planHash(ops []opSpec) uint64 {
	h := fnv.New64a()
	for _, o := range ops {
		fmt.Fprintf(h, "%s/%d;", o.Class, o.Param)
	}
	return h.Sum64()
}

func TestSeedFixesTheOpSequence(t *testing.T) {
	for _, w := range workloads(false) {
		const n = 8
		deal := func(seed int64) []opSpec {
			var ops []opSpec
			for pl, blk := w.planner(seed), 0; blk < n; blk++ {
				ops = append(ops, pl.block()...)
			}
			return ops
		}
		a, b, c := deal(7), deal(7), deal(8)
		if planHash(a) != planHash(b) {
			t.Errorf("%s: the same seed gave two op sequences", w.Name)
		}
		if planHash(a) == planHash(c) {
			t.Errorf("%s: another seed gave the same op sequence", w.Name)
		}
		// Another seed reorders and redraws, but every block still holds
		// the same classes: total work does not depend on the seed.
		for blk := 0; blk < n; blk++ {
			count := func(ops []opSpec) map[string]int {
				m := map[string]int{}
				for _, o := range ops[blk*len(w.block) : (blk+1)*len(w.block)] {
					m[o.Class]++
				}
				return m
			}
			if !reflect.DeepEqual(count(a), count(c)) {
				t.Errorf("%s: block %d has different class counts under seeds 7 and 8", w.Name, blk)
			}
		}
	}
}

func TestProcParsing(t *testing.T) {
	stat := []byte("4242 (a (weird) name) S 1 4242 4242 0 -1 4194560 1203 0 0 0 250 50 0 0 20 0 9 0 100 1000 200 18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0")
	if got, err := parseStatCPU(stat); err != nil || got != 3.0 {
		t.Errorf("parseStatCPU = %g, %v; want 3.0 (250+50 ticks)", got, err)
	}
	if got, err := parseVmHWM([]byte("Name:\tx\nVmPeak:\t  9 kB\nVmHWM:\t    2000 kB\nVmRSS:\t 1 kB\n")); err != nil || math.Abs(got-2.048) > 1e-12 {
		t.Errorf("parseVmHWM = %g, %v; want 2.048 MB", got, err)
	}
	// The real files of this process must parse too.
	if _, err := cpuSeconds(os.Getpid()); err != nil {
		t.Error(err)
	}
	if _, err := peakRSSMB(os.Getpid()); err != nil {
		t.Error(err)
	}
}

// TestBenchmarkJSONNamesTheWorkloads holds BENCHMARK.json to the
// workloads the benchmark runs. Metric names need no such test: a run
// fails unless it measured exactly the metrics that file declares (pack).
func TestBenchmarkJSONNamesTheWorkloads(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	ws := workloads(false)
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, spec.Workloads[i].Name, w.Name)
		}
	}
	for _, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("bound of %s is %g, outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

func TestPackRefusesWhatWasNotDeclaredOrMeasured(t *testing.T) {
	defs := []metricDef{{Name: "a", Unit: "s"}, {Name: "b", Unit: "s"}}
	if _, err := pack(defs, map[string]float64{"a": 1, "b": 2}, true, tally{Ops: 1}); err != nil {
		t.Errorf("complete values refused: %v", err)
	}
	for name, values := range map[string]map[string]float64{
		"missing":    {"a": 1},
		"undeclared": {"a": 1, "b": 2, "c": 3},
		"not finite": {"a": 1, "b": math.NaN()},
	} {
		if _, err := pack(defs, values, true, tally{Ops: 1}); err == nil {
			t.Errorf("%s values were packed", name)
		}
	}
}

// TestSmoke runs every workload end to end at toy size: the set-ups with
// their output checks, one window, and the traced run that derives every
// per-layer metric. It spawns real stencilserved processes.
func TestSmoke(t *testing.T) {
	e, err := newEnv(runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	ws := workloads(true)
	for _, w := range ws {
		res, err := runUntraced(e, w, 3, 1e-9)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted != len(w.block) || res.Attempted > 10 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d, want a clean window of %d ops", w.Name, res.Correct, res.Failed, res.Attempted, len(w.block))
		}
		if len(res.Metrics) != len(e.spec.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.Name, len(res.Metrics), len(e.spec.EndToEnd))
		}
	}
	if testing.Short() {
		return
	}
	groups := layerGroups(true)
	res, measuredOn, err := runTraced(e, groups, ws[2], 3, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(e.spec.PerLayer) {
		t.Errorf("traced run: correct=%v with %d per-layer metrics, want %d", res.Correct, len(res.Metrics), len(e.spec.PerLayer))
	}
	if measuredOn["variants.baseline_ns_per_cell"] != ws[0].Name || measuredOn["tunecache.hit_share"] != groups[3].Name {
		t.Errorf("layer metrics are not labelled with the workload they were measured on: %v", measuredOn)
	}
	if _, err := os.Stat(filepath.Join(e.root, "bench", "out", "trace-"+ws[2].Name+".json")); err != nil {
		t.Errorf("traced run left no span file: %v", err)
	}
	if len(children.procs) != 0 {
		t.Errorf("%d server processes still running", len(children.procs))
	}
}
