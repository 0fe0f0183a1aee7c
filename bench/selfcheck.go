package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
)

// selfCheck measures the benchmark's own noise the way its driver does:
// two sets of selfcheckPasses untraced runs of every workload on identical
// code, each run a fresh process with its own seed. Per workload and
// metric it prints both medians, their relative difference, the quartile
// spread over all runs as a share of their median, the metric's bound from
// BENCHMARK.json, and whether the pair stayed within it, as a Markdown
// table (NOISE.md). A pair whose difference or spread exceeds the bound
// (for setup_s, whose difference does) is unresolved: a comparison of two commits cannot be read off it on
// this host.
func selfCheck(spec *benchSpec, ws []*workload, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for set := range sets {
		for pass := 0; pass < selfcheckPasses; pass++ {
			seed := set*selfcheckPasses + pass + 1
			for _, w := range ws {
				cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("bench: selfcheck run %s seed %d: %v", w.Name, seed, err)
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					return err
				}
				if !res.Correct || res.Failed > 0 {
					return fmt.Errorf("bench: selfcheck run %s seed %d: correct=%v failed=%d", w.Name, seed, res.Correct, res.Failed)
				}
				for name, v := range res.Metrics {
					sets[set][key{w.Name, name}] = append(sets[set][key{w.Name, name}], v.Value)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: set %d seed %d %s done\n", set+1, seed, w.Name)
			}
		}
	}
	fmt.Printf("| workload | metric | median set 1 | median set 2 | difference | quartile spread | bound | verdict |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|\n")
	unresolved := 0
	for _, w := range ws {
		for _, d := range spec.EndToEnd {
			a, b := sets[0][key{w.Name, d.Name}], sets[1][key{w.Name, d.Name}]
			fmt.Fprintf(os.Stderr, "selfcheck: raw %s %s set1=%v set2=%v\n", w.Name, d.Name, a, b)
			ma, mb := exactMedian(a), exactMedian(b)
			diff := math.Abs(mb-ma) / ma
			spread := quartileSpread(append(append([]float64(nil), a...), b...))
			verdict := "within"
			// The driver holds the spread of setup_s to no bound, only its
			// set medians.
			if diff > d.Bound || (spread > d.Bound && d.Name != "setup_s") {
				verdict = "unresolved"
				unresolved++
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %.2f%% | %.2f%% | %.0f%% | %s |\n", w.Name, d.Name, ma, mb,
				100*diff, 100*spread, 100*d.Bound, verdict)
		}
	}
	fmt.Printf("\n%d of %d pairs unresolved.\n", unresolved, len(ws)*len(spec.EndToEnd))
	return nil
}

// exactMedian is the statistical median (mean of the middle pair for an
// even count), as the driver computes it.
func exactMedian(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartileSpread is the distance between the first and third quartile of
// xs as a share of their median, with the quartiles of Python's
// statistics.quantiles(xs, n=4) (the exclusive method).
func quartileSpread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN()
	}
	q := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / exactMedian(s)
}
