package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"
)

const (
	serveDomainN      = 32
	serveBoxN         = 16
	serveStencilSteps = 3 // RK4: four operator applications each
	serveDistSteps    = 8
	serveDistHaloK    = 2
	serveFFTSteps     = 64
	serveTuneKeys     = 4 // autotune problems cycled through: box_n 8..11
)

// serveSchedules are the schedules the served solves run (stencilserved's
// default and the distributed solves' own), conformance-checked in set-up.
var serveSchedules = []string{"Shift-Fuse: P>=Box", "Baseline: P>=Box"}

func serveHeavyMix(toy bool) *workload {
	tuneKeys := serveTuneKeys
	w := &workload{
		Name: "serve_heavy_mix",
		// A layer group of the traced run, not a workload of its own (see
		// layerGroups): 10 % autotune, 10 % fft, 60 % stencil and 20 %
		// distributed solves.
		Mix: []classShare{
			{"autotune", 2, 0.005}, {"fft", 2, 0.02}, {"stencil", 12, 0.2}, {"dist", 4, 0.3},
		},
		param: func(rng *rand.Rand, class string, i, rotation int) int {
			if class == "autotune" {
				// Keys cycle from a seeded start, so each is a miss at first
				// sight and a hit afterwards, whatever the seed: the warm-up
				// block and the first block of a window miss, the rest hit.
				return (rotation + i) % tuneKeys
			}
			return rng.Intn(64)
		},
	}
	w.block = blockOf(w.Mix)
	if toy {
		// Three autotune ops over four keys: the warm-up block misses on
		// three, the window misses on the fourth and hits on two.
		w.block = []string{"stencil", "stencil", "dist", "fft", "autotune", "autotune", "autotune"}
		tuneKeys = 4
	}
	w.setup = func(e *env, warm []opSpec) (instance, error) {
		x := &serve{w: w, e: e, stencilSteps: serveStencilSteps, distSteps: serveDistSteps, fftSteps: serveFFTSteps,
			domainN: serveDomainN, boxN: serveBoxN, tuned: map[int]bool{}}
		if toy {
			x.stencilSteps, x.distSteps, x.fftSteps, x.domainN, x.boxN = 1, 2, 4, 16, 8
		}
		start := time.Now()
		if _, err := conformCheck(serveSchedules, 2014); err != nil {
			return nil, err
		}
		x.checkSec = time.Since(start).Seconds()
		var err error
		if x.node, err = e.bootNode("node", 0, "-workers", "2", "-max-threads", fmt.Sprint(computeThreads)); err != nil {
			return nil, err
		}
		x.c = newClient(x.node.url)
		return x, warmUp(w, x, warm)
	}
	return w
}

type serve struct {
	w                                 *workload
	e                                 *env
	node                              *node
	c                                 *client
	domainN, boxN                     int
	stencilSteps, distSteps, fftSteps int
	checkSec                          float64 // conformance check of set-up

	tuned        map[int]bool // autotune keys already answered once
	distMessages int64        // exact per decomposition; first answer records it
}

func (x *serve) close() {
	if x.node != nil {
		children.kill(x.node.cmd)
		x.c.close()
		x.node = nil
	}
}

func (x *serve) pids() []int   { return []int{x.node.cmd.Process.Pid} }
func (x *serve) verify() error { return nil } // every answer is checked as it arrives

func (x *serve) cells() int64 { return int64(x.domainN) * int64(x.domainN) * int64(x.domainN) }

func (x *serve) exec(i int, spec opSpec, sp *spanRef) opResult {
	r := opResult{Class: spec.Class}
	u := velocity(spec.Param)
	path := "/v1/solve"
	var body any
	switch spec.Class {
	case "stencil":
		body = solveBody{DomainN: x.domainN, BoxN: x.boxN, U: u, Dt: smallBoxDt, Steps: x.stencilSteps, Integrator: "rk4", Threads: 1}
	case "dist":
		body = solveBody{DomainN: x.domainN, BoxN: x.boxN, U: u, Dt: 1.0 / 64, Steps: x.distSteps, Integrator: "euler",
			Threads: 1, Ranks: 2, HaloK: serveDistHaloK}
	case "fft":
		body = solveBody{DomainN: x.domainN, BoxN: x.domainN, U: u, Dt: smallBoxDt, Steps: x.fftSteps, Integrator: "euler",
			Threads: 1, Backend: "fft"}
	case "autotune":
		path = "/v1/autotune"
		body = map[string]any{"box_n": 8 + spec.Param, "num_boxes": 2, "threads": 1, "reps": 1,
			"candidates": []string{"Baseline: P>=Box", "Shift-Fuse: P>=Box"}}
	}
	b, _ := json.Marshal(body)
	var rep reply
	var err error
	timed(&r, func() { rep, err = x.c.call(sp, i, path, b, &r) })
	if err == nil {
		err = x.check(spec, u, rep, &r)
	}
	if err != nil {
		r.Err, r.CellUpdates = err.Error(), 0
	} else {
		r.OK = true
	}
	return r
}

// check holds one answer to its request and sets the op's cell updates.
func (x *serve) check(spec opSpec, u [3]float64, rep reply, r *opResult) error {
	if spec.Class == "autotune" {
		var p struct {
			Source  string            `json:"source"`
			Results []json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(rep.Payload, &p); err != nil {
			return err
		}
		seen := x.tuned[spec.Param]
		x.tuned[spec.Param] = true
		if len(p.Results) != 2 || rep.Sync != seen || (p.Source == "cache") != seen {
			return fmt.Errorf("autotune key %d seen=%v answered sync=%v source=%q with %d rows", spec.Param, seen, rep.Sync, p.Source, len(p.Results))
		}
		return nil
	}
	var p solvePayload
	if err := json.Unmarshal(rep.Payload, &p); err != nil {
		return err
	}
	r.fact("elapsed_s", p.ElapsedSec)
	boxesPerEdge := x.domainN / x.boxN
	switch spec.Class {
	case "stencil":
		if p.Steps != x.stencilSteps || p.NumBoxes != boxesPerEdge*boxesPerEdge*boxesPerEdge || p.Totals == nil {
			return fmt.Errorf("answer does not echo the request: %s", rep.Payload)
		}
		r.CellUpdates = x.cells() * int64(x.stencilSteps) * 4
		return conservedTotals(*p.Totals, x.domainN, u)
	case "fft":
		if p.K != x.fftSteps || p.DomainN != x.domainN || p.Totals == nil {
			return fmt.Errorf("answer does not echo the request: %s", rep.Payload)
		}
		r.CellUpdates = x.cells() * int64(x.fftSteps) // one spectral pass answers K steps
		return conservedTotals(*p.Totals, x.domainN, u)
	default:
		if x.distMessages == 0 {
			x.distMessages = p.Messages
		}
		want := x.distMessages
		if p.Steps != x.distSteps || p.HaloK != serveDistHaloK || p.Retries != 0 || p.Messages != want || p.Recomputed <= 0 {
			return fmt.Errorf("answer does not echo the request or its counts moved (want %d messages): %s", want, rep.Payload)
		}
		r.CellUpdates = x.cells() * int64(x.distSteps)
		return nil
	}
}

func (x *serve) counters() (map[string]float64, error) {
	out := map[string]float64{}
	for _, name := range []string{"stencilserved_tunecache_hits_total", "stencilserved_tunecache_misses_total"} {
		v, err := x.c.metricValue(name)
		if err != nil {
			return nil, err
		}
		out[name] = v
	}
	return out, nil
}

func (x *serve) layers(in layerInput) (map[string]float64, error) {
	res := in.Window.Results
	fft := median(facts(res, "fft", "elapsed_s"))
	stencil := median(facts(res, "stencil", "elapsed_s"))
	c := in.Window.Counters
	hits, misses := c["stencilserved_tunecache_hits_total"], c["stencilserved_tunecache_misses_total"]
	var hitLat, missLat []float64
	for _, r := range res {
		if r.Class == "autotune" {
			if r.Facts["sync"] == 1 {
				hitLat = append(hitLat, r.Latency)
			} else {
				missLat = append(missLat, r.Latency)
			}
		}
	}
	dir, err := in.E.scratchDir("tunecache-probe")
	if err != nil {
		return nil, err
	}
	getNs, putNs, err := tunecacheTimes(dir, 200)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"fft.solve_s": fft,
		// Per cell update: an RK4 step applies the operator four times.
		"fft.vs_stencil_ratio":         (fft / float64(x.fftSteps)) / (stencil / float64(4*x.stencilSteps)),
		"tunecache.hit_share":          hits / (hits + misses),
		"tunecache.hit_latency_p50_s":  median(hitLat),
		"tunecache.miss_latency_p50_s": median(missLat),
		"tunecache.get_ns":             median(getNs),
		"tunecache.put_ns":             median(putNs),
		"conform.check_s":              x.checkSec,
	}, nil
}
