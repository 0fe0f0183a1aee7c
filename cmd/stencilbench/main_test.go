package main

import (
	"bytes"
	"math"
	"net"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"stencilsched"
	"stencilsched/internal/report"
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

// figure returns the number the first match of pattern's one group
// captures in out, failing the test when there is none.
func figure(t *testing.T, out, pattern string) float64 {
	t.Helper()
	m := regexp.MustCompile(pattern).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("output has no %q:\n%s", pattern, out)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestRunMeasured(t *testing.T) {
	o := testOpts()
	o.name = "Shift-Fuse OT-4: P<Box"
	o.threads = 2
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

// TestRunMeasuredJSONRecord checks the measured record, now the printed
// summary: the variant line and a positive time and throughput.
func TestRunMeasuredJSONRecord(t *testing.T) {
	o := testOpts()
	o.name = "Baseline-CLO: P>=Box"
	buf := &bytes.Buffer{}
	o.out = buf
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, o.name+"\n") {
		t.Fatalf("output misnames the variant:\n%s", out)
	}
	if figure(t, out, `time: +([0-9.]+)s min`) <= 0 || figure(t, out, `throughput: ([0-9.]+) Mcells/s`) <= 0 {
		t.Fatalf("no time or throughput:\n%s", out)
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

// TestRunDistJSONRecord checks the dist record, now the printed summary:
// the run's description, its perf figures, and the distributed figures
// (messages sent and the model's per-step prediction).
func TestRunDistJSONRecord(t *testing.T) {
	o := testOpts()
	o.name = "Shift-Fuse-CLO: P>=Box"
	o.mode = "dist"
	o.n = 4
	o.ranks = 2
	o.haloK = 2
	o.steps = 2
	buf := &bytes.Buffer{}
	o.out = buf
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, o.name+" (loopback, 2 ranks)") || !strings.Contains(out, "halo K=2") {
		t.Fatalf("output misdescribes the run:\n%s", out)
	}
	if figure(t, out, `time: +([0-9.]+)s`) <= 0 || figure(t, out, `([0-9.]+) Mcells/s`) <= 0 {
		t.Fatalf("missing perf figures:\n%s", out)
	}
	if figure(t, out, `exchange: +([0-9]+) msgs`) == 0 || figure(t, out, `model: +([0-9.e-]+)s/step predicted`) <= 0 {
		t.Fatalf("missing distributed figures:\n%s", out)
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

// column returns column i of tb's rows, parsed as numbers; "-" is NaN.
func column(t *testing.T, tb *report.Table, i int) []float64 {
	t.Helper()
	out := make([]float64, len(tb.Rows))
	for r, row := range tb.Rows {
		if row[i] == "-" {
			out[r] = math.NaN()
			continue
		}
		v, err := strconv.ParseFloat(row[i], 64)
		if err != nil {
			t.Fatalf("row %v, column %q: %v", row, tb.Header[i], err)
		}
		out[r] = v
	}
	return out
}

// checkSweep checks the table of a K sweep: every row has a per-step
// time, a sweep no shorter than it, and the K set includes want.
func checkSweep(t *testing.T, tb *report.Table, want []int) (ks []int) {
	t.Helper()
	sweep, step := column(t, tb, 2), column(t, tb, 3)
	seen := map[int]bool{}
	for i, k := range column(t, tb, 1) {
		if step[i] <= 0 || sweep[i] < step[i] {
			t.Fatalf("bad timing in row %v", tb.Rows[i])
		}
		seen[int(k)] = true
		ks = append(ks, int(k))
	}
	for _, k := range want {
		if !seen[k] {
			t.Fatalf("sweep misses K=%d:\n%s", k, tb)
		}
	}
	return ks
}

func TestRunTemporalTable(t *testing.T) {
	o := testOpts()
	o.mode = "temporal"
	o.mach = "desktop"
	tb, err := temporalTable(o)
	if err != nil {
		t.Fatal(err)
	}
	// The grid spans every compiled K whose tiles fit the box, with a K=1
	// baseline and per-row figures in both currencies, wall time and
	// modeled traffic.
	var ks []int
	for _, s := range stencilsched.Schedules() {
		if s.Generated && s.TemporalK > 0 && s.TileEdge <= o.n && !slices.Contains(ks, s.TemporalK) {
			ks = append(ks, s.TemporalK)
		}
	}
	checkSweep(t, tb, ks)
	for i, b := range column(t, tb, 5) {
		if !(b > 0) {
			t.Fatalf("missing traffic model in row %v", tb.Rows[i])
		}
	}
	if figure(t, tb.Note, `deep speedup ([0-9.]+)x`) <= 0 || figure(t, tb.Note, `([0-9.]+)x under best K1`) <= 0 {
		t.Fatalf("missing verdicts: %s", tb.Note)
	}
	for _, want := range []string{"best: ", "best K1: ", "traffic: "} {
		if !strings.Contains(tb.Note, want) {
			t.Fatalf("note misses %q: %s", want, tb.Note)
		}
	}
}

// TestRunFFTTable smoke-tests the spectral crossover mode on a tiny box:
// the table must span the spectral K ladder, carry a K4 temporal
// baseline, and a model prediction on every spectral row. (On an 8^3
// box the measured crossover may land anywhere; N in {64, 96} is where
// the verdict matters, see EXPERIMENTS.md.)
func TestRunFFTTable(t *testing.T) {
	o := testOpts()
	o.mode = "fft"
	o.mach = "desktop"
	tb, err := fftTable(o)
	if err != nil {
		t.Fatal(err)
	}
	ks := checkSweep(t, tb, []int{1, 2, 4, 8, 16})
	model := column(t, tb, 5)
	for i, row := range tb.Rows {
		spectral := strings.Contains(row[0], "spectral")
		if spectral != (model[i] > 0) || (!spectral && ks[i] != 4) {
			t.Fatalf("row %v: want a model s/step on spectral rows only, K4 on the others", row)
		}
	}
	if !strings.Contains(tb.Note, "baseline: Temporal K4") || figure(t, tb.Note, `\(([0-9.e-]+) s/step\)`) <= 0 ||
		!strings.Contains(tb.Note, "crossover: ") || !strings.Contains(tb.Note, "model on ") {
		t.Fatalf("note misses the baseline or crossover: %s", tb.Note)
	}
}

// TestRunCompareTable runs the compare mode end to end: at N=16 every
// compiled family's tile fits and each row has a generated time, plus a
// hand-written time and ratio where a studied counterpart exists; at
// N=8 the table still has every row, and the OT-16 pair, whose tile does
// not fit, prints "-".
func TestRunCompareTable(t *testing.T) {
	for _, n := range []int{16, 8} {
		o := testOpts()
		o.mode = "compare"
		o.n = n
		buf := &bytes.Buffer{}
		o.out = buf
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		for _, pr := range comparePairs() {
			row := regexp.MustCompile(`(?m)^` + pr.family + ` .*$`).FindString(buf.String())
			f := strings.Fields(row)
			if len(f) != 4 {
				t.Fatalf("N=%d: no %s row of 4 columns:\n%s", n, pr.family, buf)
			}
			measured := n >= 16 || pr.family != "ot-16"
			if (f[1] != "-") != measured || (f[2] != "-") != (measured && pr.handWritten != "") {
				t.Errorf("N=%d: %s row %q", n, pr.family, row)
			}
		}
	}
}
