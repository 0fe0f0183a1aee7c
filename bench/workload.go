package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// workload is one set of inputs the benchmark runs. Ops come in blocks:
// a block is the smallest run of ops that holds every class in exactly
// its share of the mix, so a window of whole blocks has the same
// composition whatever its length and whatever the seed. The seed only
// reorders ops inside a block and draws their parameters.
type workload struct {
	Name string
	// Mix gives every class's share and reference cost; block is the op
	// classes of one block, in canonical order.
	Mix   []classShare
	block []string
	// MinOps is the least an untraced window may hold, whatever the time
	// asked for: 120 at full size, one block at toy size.
	MinOps int
	// param draws the seeded parameter of the i-th op of class; rotation
	// is one draw made per plan, for parameters that cycle through a
	// fixed set from a seeded starting point.
	param func(rng *rand.Rand, class string, i, rotation int) int
	// setup builds the state or boots the servers, checks outputs, and
	// runs warm (one full block) as a discarded warm-up.
	setup func(e *env, warm []opSpec) (instance, error)
}

// workloads returns the three workloads BENCHMARK.json names, at full size
// or at the toy size the smoke test runs (8^3 to 16^3 boxes, blocks of a
// few ops).
func workloads(toy bool) []*workload {
	ws := []*workload{largeBoxSweep(toy), smallBoxLevel(toy), fleetSmallSolves(toy)}
	for _, w := range ws {
		if !toy {
			w.MinOps = 120
		}
	}
	return ws
}

// layerGroups returns what a traced run measures: the workloads, and the
// served mix, which is no workload of its own (the driver's time budget
// has room for three at this run length) but is where the fft, tunecache
// and conformance layers are exercised through the service.
func layerGroups(toy bool) []*workload {
	return append(workloads(toy), serveHeavyMix(toy))
}

// instance is a workload that has been set up.
type instance interface {
	// exec runs one op, waits for its reply and checks its output. sp is
	// the op's root span (nil untraced).
	exec(i int, spec opSpec, sp *spanRef) opResult
	// pids lists the server processes to account beside the benchmark.
	pids() []int
	// verify re-checks outputs after the window.
	verify() error
	// counters snapshots named monotonic counts; the traced run reports
	// their change over the window.
	counters() (map[string]float64, error)
	// layers derives this workload's per-layer metrics from a traced
	// window, running its direct probes as needed.
	layers(in layerInput) (map[string]float64, error)
	close()
}

// planner deals a workload's ops from a seed, a block at a time. Each
// block is a seeded shuffle of the canonical block, so class counts are
// exact per block and the order differs from seed to seed; the same seed
// deals the same sequence however many blocks are drawn.
type planner struct {
	w        *workload
	rng      *rand.Rand
	rotation int
	perClass map[string]int
}

func (w *workload) planner(seed int64) *planner {
	rng := rand.New(rand.NewSource(seed))
	return &planner{w: w, rng: rng, rotation: rng.Intn(1 << 16), perClass: map[string]int{}}
}

func (p *planner) block() []opSpec {
	ops := make([]opSpec, 0, len(p.w.block))
	for _, j := range p.rng.Perm(len(p.w.block)) {
		class := p.w.block[j]
		ops = append(ops, opSpec{Class: class, Param: p.w.param(p.rng, class, p.perClass[class], p.rotation)})
		p.perClass[class]++
	}
	return ops
}

// blockOf builds the canonical block of a mix: every class as many times
// as the mix gives it.
func blockOf(mix []classShare) []string {
	var out []string
	for _, m := range mix {
		for n := 0; n < m.PerBlock; n++ {
			out = append(out, m.Class)
		}
	}
	return out
}

// blockStat is the account of one block of a window.
type blockStat struct {
	From, To int // its ops are Results[From:To]
	WallSec  float64
}

// window is one measured run of a plan.
type window struct {
	Results []opResult
	Blocks  []blockStat
	Tally   tally
	WallSec float64
	// CPUSec and PeakRSSMB cover the benchmark process and its servers;
	// CPUByPid splits the CPU time, keyed as in pids (0 is the benchmark).
	CPUSec    float64
	PeakRSSMB float64
	CPUByPid  []float64
	Mallocs   uint64
	Counters  map[string]float64 // change over the window (traced only)
}

// measure runs a window against inst in the closed loop and accounts for
// it, block by block. The window is whole blocks dealt by pl, so it has
// the mix's exact composition: blocks start until seconds have passed and
// minOps ops have been taken, and every op taken is waited for.
func measure(w *workload, inst instance, pl *planner, seconds float64, minOps int, tr *tracer) (window, error) {
	pids := append([]int{os.Getpid()}, inst.pids()...)
	var before map[string]float64
	if tr != nil {
		var err error
		if before, err = inst.counters(); err != nil {
			return window{}, err
		}
	}
	runtime.GC()
	resetOwnPeakRSS()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := make([]float64, len(pids))
	for i, pid := range pids {
		c, err := cpuSeconds(pid)
		if err != nil {
			return window{}, err
		}
		cpu0[i] = c
	}
	var win window
	start := time.Now()
	last := start
	win.Results = runOps(func(taken int) []opSpec {
		// Every op handed out has been answered: the block is over.
		if now := time.Now(); taken > 0 {
			from := 0
			if n := len(win.Blocks); n > 0 {
				from = win.Blocks[n-1].To
			}
			win.Blocks = append(win.Blocks, blockStat{From: from, To: taken, WallSec: now.Sub(last).Seconds()})
			last = now
		}
		if taken >= max(1, minOps) && time.Since(start).Seconds() >= seconds {
			return nil
		}
		return pl.block()
	}, func(i int, spec opSpec) opResult {
		sp := tr.root(w.Name, i, spec.Class, "op")
		r := inst.exec(i, spec, sp)
		sp.end()
		return r
	})
	win.WallSec = time.Since(start).Seconds()
	win.Tally = tallyOf(win.Results)
	for i, pid := range pids {
		c, err := cpuSeconds(pid)
		if err != nil {
			return window{}, err
		}
		rss, err := peakRSSMB(pid)
		if err != nil {
			return window{}, err
		}
		win.CPUByPid = append(win.CPUByPid, c-cpu0[i])
		win.CPUSec += c - cpu0[i]
		win.PeakRSSMB += rss
	}
	runtime.ReadMemStats(&ms1)
	win.Mallocs = ms1.Mallocs - ms0.Mallocs
	if tr != nil {
		after, err := inst.counters()
		if err != nil {
			return window{}, err
		}
		win.Counters = map[string]float64{}
		for k, v := range after {
			win.Counters[k] = v - before[k]
		}
	}
	return win, nil
}

// quietShare is the share of a window's blocks the timed end-to-end
// metrics are computed from: the tenth that ran fastest. The host's
// processors share physical cores with neighbours, and a busy neighbour
// slows a throughput-bound op by up to 2x for seconds to minutes at a
// time; which state a run meets is the host's doing, so means and medians
// over a whole window differ by a quarter between runs of identical code,
// while the fastest tenth of 30 s of blocks repeats within a few percent
// (NOISE.md). Every block holds the same ops, so the choice is by time
// alone and is the same choice on both sides of a comparison.
const quietShare = 0.1

// quietBlocks returns the quietShare of blocks with the least wall time,
// at least one.
func (win window) quietBlocks() []blockStat {
	bs := append([]blockStat(nil), win.Blocks...)
	sort.SliceStable(bs, func(i, j int) bool { return bs[i].WallSec < bs[j].WallSec })
	return bs[:max(1, int(math.Ceil(quietShare*float64(len(bs)))))]
}

// endToEnd computes the four window metrics every workload reports (the
// fifth, setup_s, comes from the set-ups). Throughput and the latency
// percentiles are taken over the quiet blocks; the memory peak is the whole
// window's.
func (win window) endToEnd() map[string]float64 {
	var lat []float64
	var cells int64
	var wall float64
	for _, b := range win.quietBlocks() {
		ops := win.Results[b.From:b.To]
		lat = append(lat, latencies(ops, "")...)
		cells += tallyOf(ops).CellUpdates
		wall += b.WallSec
	}
	return map[string]float64{
		"cell_updates_per_s": float64(cells) / wall,
		"op_latency_p50_s":   quantile(lat, 0.50),
		"op_latency_p90_s":   quantile(lat, 0.90),
		"peak_rss_mb":        win.PeakRSSMB,
	}
}

// release drops a torn-down set-up's memory before the next one is
// built, so neither its garbage nor its pages count against the next.
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}

// warmUp runs the discarded warm-up block and fails set-up if any op of
// it fails: a workload whose ops fail must not be measured.
func warmUp(w *workload, inst instance, warm []opSpec) error {
	if t := tallyOf(runOps(once(warm), func(i int, spec opSpec) opResult { return inst.exec(-1-i, spec, nil) })); t.Failed > 0 {
		return fmt.Errorf("bench: %s: %d of %d warm-up ops failed, first: %s", w.Name, t.Failed, t.Ops, t.FirstErr)
	}
	return nil
}

// layerInput is what a workload derives its per-layer metrics from.
type layerInput struct {
	Spans  []span
	Window window
	E      *env
	Tracer *tracer // for the spans of direct probes
}

// probeSeconds times one direct call into a layer under a probe span
// named name and returns how long it took.
func probeSeconds(tr *tracer, workload, name string, fn func() error) (float64, error) {
	sp := tr.root(workload, -1, "probe", name)
	start := time.Now()
	err := fn()
	d := time.Since(start).Seconds()
	sp.end()
	return d, err
}
