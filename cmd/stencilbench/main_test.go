package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// testOpts returns options with the shared defaults of the tests:
// discarded output and the small geometry the suite runs everywhere.
func testOpts() options {
	return options{
		mode: "measured", n: 8, boxes: 1, threads: 1, reps: 1,
		domain: 8, ranks: 1, haloK: 1, steps: 2, distRank: -1,
		out: &bytes.Buffer{},
	}
}

func TestRunList(t *testing.T) {
	o := testOpts()
	o.list = true
	buf := &bytes.Buffer{}
	o.out = buf
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if n := len(strings.Split(strings.TrimSpace(buf.String()), "\n")); n != 32 {
		t.Fatalf("listed %d variants, want 32", n)
	}
}

func TestRunVerify(t *testing.T) {
	o := testOpts()
	o.verify = true
	o.threads = 2
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunMeasured(t *testing.T) {
	o := testOpts()
	o.name = "Shift-Fuse OT-4: P<Box"
	o.threads = 2
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunModeledAndSweep(t *testing.T) {
	o := testOpts()
	o.name = "Baseline: P>=Box"
	o.mode = "modeled"
	o.mach = "Magny"
	o.n = 32
	o.threads = 4
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	o.mode = "sweep"
	o.mach = "Sandy"
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	mod := func(f func(*options)) options {
		o := testOpts()
		f(&o)
		return o
	}
	cases := []struct {
		name string
		o    options
	}{
		{"no variant", mod(func(o *options) {})},
		{"bad variant", mod(func(o *options) { o.name = "Nope: P<Box" })},
		{"bad mode", mod(func(o *options) { o.name = "Baseline: P>=Box"; o.mode = "teleport" })},
		{"bad machine", mod(func(o *options) { o.name = "Baseline: P>=Box"; o.mode = "modeled"; o.mach = "PDP-11" })},
		{"dist bad ranks", mod(func(o *options) {
			o.name = "Baseline-CLO: P>=Box"
			o.mode = "dist"
			o.n = 4
			o.ranks = 99 // 8 boxes cannot feed 99 ranks
		})},
		{"dist rank without addrs", mod(func(o *options) {
			o.name = "Baseline-CLO: P>=Box"
			o.mode = "dist"
			o.distRank = 0
		})},
		{"dist rank out of range", mod(func(o *options) {
			o.name = "Baseline-CLO: P>=Box"
			o.mode = "dist"
			o.n = 4
			o.ranks = 2
			o.distRank = 5
			o.distAddrs = "a:1,b:2"
		})},
	}
	for _, c := range cases {
		if err := run(c.o); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestRunMeasuredRectVariant(t *testing.T) {
	o := testOpts()
	o.name = "Shift-Fuse OT-8x4x4: P<Box"
	o.threads = 2
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunDistLoopback(t *testing.T) {
	o := testOpts()
	o.name = "Baseline-CLO: P>=Box"
	o.mode = "dist"
	o.n = 4
	o.ranks = 4
	o.haloK = 2
	o.steps = 3
	buf := &bytes.Buffer{}
	o.out = buf
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"loopback, 4 ranks", "exchange:", "recompute:", "predicted"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestRunDistJSONRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_dist.json")
	o := testOpts()
	o.name = "Shift-Fuse-CLO: P>=Box"
	o.mode = "dist"
	o.n = 4
	o.ranks = 2
	o.haloK = 2
	o.steps = 2
	o.jsonPath = path
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec benchRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("record is not valid JSON: %v\n%s", err, data)
	}
	if rec.Variant != o.name || rec.Mode != "dist" || rec.Ranks != 2 || rec.HaloK != 2 {
		t.Fatalf("record misdescribes the run: %+v", rec)
	}
	if rec.Seconds <= 0 || rec.NsPerCell <= 0 || rec.MCellsPerSec <= 0 {
		t.Fatalf("record missing perf figures: %+v", rec)
	}
	if rec.Messages == 0 || rec.PredictedStepSec <= 0 {
		t.Fatalf("record missing distributed figures: %+v", rec)
	}
}

func TestRunMeasuredJSONRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_measured.json")
	o := testOpts()
	o.name = "Baseline-CLO: P>=Box"
	o.jsonPath = path
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	var rec benchRecord
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Mode != "measured" || rec.NsPerCell <= 0 {
		t.Fatalf("bad measured record: %+v", rec)
	}
}

// TestRunDistTCPPair runs a real 2-rank TCP mesh through the CLI path:
// two run() invocations with -dist-rank on pre-bound localhost ports.
func TestRunDistTCPPair(t *testing.T) {
	// Reserve two ports, then release them for the ranks to bind.
	addrs := make([]string, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := testOpts()
			o.name = "Baseline-CLO: P>=Box"
			o.mode = "dist"
			o.n = 4
			o.ranks = 2
			o.haloK = 1
			o.steps = 2
			o.distRank = r
			o.distAddrs = strings.Join(addrs, ",")
			errs[r] = run(o)
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestRunTemporalJSONRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_temporal.json")
	o := testOpts()
	o.mode = "temporal"
	o.mach = "desktop"
	o.jsonPath = path
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	var rec temporalRecord
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("record is not valid JSON: %v\n%s", err, data)
	}
	if rec.Mode != "temporal" || rec.BoxN != o.n {
		t.Fatalf("record misdescribes the run: %+v", rec)
	}
	// The grid must span the compiled K axis with a K=1 baseline and
	// per-point figures in both currencies.
	ks := map[int]bool{}
	for _, pt := range rec.Points {
		ks[pt.K] = true
		if pt.StepSeconds <= 0 || pt.SweepSeconds < pt.StepSeconds {
			t.Fatalf("bad timing in point %+v", pt)
		}
		if pt.ModelBytesPerCellStep <= 0 {
			t.Fatalf("missing traffic model in point %+v", pt)
		}
	}
	for _, k := range []int{1, 2, 4} {
		if !ks[k] {
			t.Fatalf("grid misses K=%d: %+v", k, rec.Points)
		}
	}
	if rec.BestK1 == "" || rec.Best == "" || rec.DeepSpeedup <= 0 {
		t.Fatalf("missing wall-time verdict: %+v", rec)
	}
	if rec.BestTraffic == "" || rec.TrafficDeepAdvantage <= 0 {
		t.Fatalf("missing traffic verdict: %+v", rec)
	}
}

// TestRunFFTJSONRecord smoke-tests the spectral crossover mode on a
// tiny box: the record must span the spectral K ladder, carry a K4
// temporal baseline, and model predictions on every point. (On an 8^3
// box the measured crossover may land anywhere; N in {64, 96} is where
// the verdict matters, see EXPERIMENTS.md.)
func TestRunFFTJSONRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_fft.json")
	o := testOpts()
	o.mode = "fft"
	o.mach = "desktop"
	o.jsonPath = path
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	var rec fftRecord
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("record is not valid JSON: %v\n%s", err, data)
	}
	if rec.Mode != "fft" || rec.BoxN != o.n {
		t.Fatalf("record misdescribes the run: %+v", rec)
	}
	ks := map[int]bool{}
	for _, pt := range rec.Points {
		ks[pt.K] = true
		if pt.StepSeconds <= 0 || pt.SweepSeconds < pt.StepSeconds {
			t.Fatalf("bad timing in point %+v", pt)
		}
		if pt.ModelStepSeconds <= 0 {
			t.Fatalf("missing model prediction in point %+v", pt)
		}
	}
	for _, k := range []int{1, 2, 4, 8, 16} {
		if !ks[k] {
			t.Fatalf("spectral ladder misses K=%d: %+v", k, rec.Points)
		}
	}
	if rec.BestTemporal == "" || rec.BestTemporalStepSec <= 0 {
		t.Fatalf("missing K4 temporal baseline: %+v", rec)
	}
	if rec.ModelMachine == "" {
		t.Fatalf("missing model machine: %+v", rec)
	}
}
