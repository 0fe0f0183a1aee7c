package main

import (
	"math"
	"sort"
	"time"
)

// opSpec is one generated input: which class of op to run and the seeded
// parameter draw it carries. What Param means is up to the workload
// (schedule index, velocity-table index, halo depth, autotune key).
type opSpec struct {
	Class string
	Param int
}

// opResult is everything one op reports. The generator never counts ops
// on the side: the window's tallies are computed from the returned
// results after every client has stopped, so ops == ok + failed holds by
// construction and no op can be half counted.
type opResult struct {
	Class       string
	Latency     float64 // seconds the caller waited for its reply
	OK          bool    // reply arrived and passed its output check
	Throttled   int     // 429/503 answers met on the way
	CellUpdates int64   // owned-cell operator applications delivered
	Err         string  // why OK is false
	// Facts are named per-op observations the layer metrics are derived
	// from (server-reported seconds, exact counts, poll counts).
	Facts map[string]float64
}

func (r *opResult) fact(name string, v float64) {
	if r.Facts == nil {
		r.Facts = map[string]float64{}
	}
	r.Facts[name] = v
}

// runOps executes ops in a closed loop of one caller: it takes the next
// op, waits for its reply, and only then takes another. One caller is all
// this host can carry: its two processors share physical cores with each
// other or with neighbours, so two busy threads slow each other by up to
// 2x for seconds at a time (README.md, "One busy thread"). Ops come a
// block at a time: when every op handed out so far has been answered,
// nextBlock is asked for more, with the number of ops taken so far, and no
// answer ends the run. exec measures an op and returns its result; the
// i-th result belongs to the i-th op taken, so the results account for
// exactly the ops that ran.
func runOps(nextBlock func(taken int) []opSpec, exec func(i int, spec opSpec) opResult) []opResult {
	var results []opResult
	for block := nextBlock(0); len(block) > 0; block = nextBlock(len(results)) {
		for _, spec := range block {
			results = append(results, exec(len(results), spec))
		}
	}
	return results
}

// once hands ops to runOps as its only block.
func once(ops []opSpec) func(int) []opSpec {
	return func(taken int) []opSpec {
		if taken > 0 {
			return nil
		}
		return ops
	}
}

// timed runs fn and stores how long it took as the op's latency.
func timed(r *opResult, fn func()) {
	start := time.Now()
	fn()
	r.Latency = time.Since(start).Seconds()
}

// tally is the exact account of a window.
type tally struct {
	Ops, OK, Failed int
	Throttled       int
	CellUpdates     int64
	FirstErr        string
}

func tallyOf(results []opResult) tally {
	var t tally
	for _, r := range results {
		t.Ops++
		t.Throttled += r.Throttled
		// A refused or throttled op is a failed op even if a retry got it
		// through: the caller was made to wait beyond its first attempt.
		if r.OK && r.Throttled == 0 {
			t.OK++
			t.CellUpdates += r.CellUpdates
			continue
		}
		t.Failed++
		if t.FirstErr == "" {
			t.FirstErr = r.Class + ": " + r.Err
			if r.Err == "" {
				t.FirstErr = r.Class + ": throttled"
			}
		}
	}
	return t
}

// quantile returns the exact nearest-rank q-quantile of xs: the smallest
// sample with at least a share q of the samples at or below it. It is NaN
// for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latencies returns the latency of every op of class (all when empty).
func latencies(results []opResult, class string) []float64 {
	var out []float64
	for _, r := range results {
		if class == "" || r.Class == class {
			out = append(out, r.Latency)
		}
	}
	return out
}

// facts returns the named fact of every op of class that carries it.
func facts(results []opResult, class, name string) []float64 {
	var out []float64
	for _, r := range results {
		if v, ok := r.Facts[name]; ok && (class == "" || r.Class == class) {
			out = append(out, v)
		}
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// classShare is one op class of a mix: how many of a block's ops it is
// and its cost on the reference host, which fixes where it sits when the
// ops are sorted by latency.
type classShare struct {
	Class      string
	PerBlock   int
	NominalSec float64
}

// percentileRuleViolation reports the first class boundary of mix, sorted
// by cost, that lies within 5 percentile points of p50 or p90 (or "" when
// the mix obeys the rule). A boundary that close makes the percentile flip
// between two cost modes from run to run.
func percentileRuleViolation(mix []classShare) string {
	s := append([]classShare(nil), mix...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].NominalSec < s[j].NominalSec })
	total := 0
	for _, c := range s {
		total += c.PerBlock
	}
	cum := 0.0
	for _, c := range s[:len(s)-1] {
		cum += 100 * float64(c.PerBlock) / float64(total)
		for _, p := range []float64{50, 90} {
			if math.Abs(cum-p) < 5 {
				return c.Class
			}
		}
	}
	return ""
}
