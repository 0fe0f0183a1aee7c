package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// velocity is entry i of the 64-entry table of constant advection
// velocities (exact binary fractions, far inside the CFL limit). Every
// entry costs the same to solve; a different entry makes a different
// request body, which is what the fleet hashes for placement.
func velocity(i int) [3]float64 {
	i %= 64
	return [3]float64{0.25 + float64(i%8)/16, 0.125 + float64(i/8)/32, 0.125}
}

const (
	fleetDomainN = 16
	fleetSteps   = 50
	fleetPeers   = 2
	// fleetSchedule keeps the kernel cheap (the served default schedule is
	// several times slower), so that the service layers carry the latency.
	fleetSchedule = "Baseline: P>=Box"
)

func fleetSmallSolves(toy bool) *workload {
	w := &workload{
		Name: "fleet_small_solves",
		// One class, so any block length holds the mix: ten requests, 0.7 s.
		Mix:   []classShare{{"solve", 10, 0.066}},
		param: func(rng *rand.Rand, _ string, _, _ int) int { return rng.Intn(64) },
	}
	w.block = blockOf(w.Mix)
	if toy {
		w.block = []string{"solve", "solve", "solve", "solve"}
	}
	w.setup = func(e *env, warm []opSpec) (instance, error) {
		x := &fleet{w: w, e: e, steps: fleetSteps}
		if toy {
			x.steps = 5
		}
		var err error
		for attempt := 0; attempt < 3; attempt++ {
			if err = x.boot(); err == nil {
				break
			}
			x.close()
		}
		if err != nil {
			return nil, err
		}
		// Output check: the served answer must carry the totals the
		// library computes for the same problem.
		lib, err := newAdvection(fleetSchedule, fleetDomainN, fleetDomainN, velocity(0), smallBoxDt, false, 1)
		if err != nil {
			return nil, err
		}
		lib.advance(x.steps)
		first, served := x.solveVia(x.c, -1, opSpec{Class: "solve", Param: 0}, nil)
		if !first.OK {
			return nil, fmt.Errorf("bench: fleet check solve failed: %s", first.Err)
		}
		for c, want := range lib.totals() {
			if got := served.Totals[c]; math.Abs(got-want) > 1e-12*math.Abs(want) {
				return nil, fmt.Errorf("bench: served totals[%d] = %.17g, library computes %.17g", c, got, want)
			}
		}
		return x, warmUp(w, x, warm)
	}
	return w
}

type fleet struct {
	w      *workload
	e      *env
	steps  int
	coord  *node
	peers  []*node
	c      *client            // the measured path: through the coordinator
	direct map[string]*client // by peer name, for probes and job lookups
	index  map[string]int     // peer name to position in peers
}

func (x *fleet) boot() error {
	coordPort, err := freePort()
	if err != nil {
		return err
	}
	coordURL := fmt.Sprintf("http://127.0.0.1:%d", coordPort)
	x.direct, x.index = map[string]*client{}, map[string]int{}
	var spec []string
	for i := 0; i < fleetPeers; i++ {
		name := fmt.Sprintf("p%d", i)
		n, err := x.e.bootNode(name, 0, "-workers", "2", "-max-threads", fmt.Sprint(computeThreads), "-fleet-cache", coordURL)
		if err != nil {
			return err
		}
		x.index[name] = len(x.peers)
		x.peers = append(x.peers, n)
		x.direct[name] = newClient(n.url)
		spec = append(spec, name+"="+n.url)
	}
	x.coord, err = x.e.bootNode("coordinator", coordPort, "-workers", "16", "-queue", "64",
		"-peers", strings.Join(spec, ","), "-probe-interval", "250ms")
	if err != nil {
		return err
	}
	x.c = newClient(x.coord.url)
	return nil
}

func (x *fleet) close() {
	for _, n := range append(x.peers, x.coord) {
		if n != nil {
			children.kill(n.cmd)
		}
	}
	for _, c := range x.direct {
		c.close()
	}
	if x.c != nil {
		x.c.close()
	}
	x.peers, x.coord, x.direct, x.c = nil, nil, nil, nil
}

func (x *fleet) pids() []int {
	pids := []int{x.coord.cmd.Process.Pid}
	for _, n := range x.peers {
		pids = append(pids, n.cmd.Process.Pid)
	}
	return pids
}

func (x *fleet) body(param int) []byte {
	b, _ := json.Marshal(solveBody{
		DomainN: fleetDomainN, BoxN: fleetDomainN, Variant: fleetSchedule, U: velocity(param), Dt: smallBoxDt,
		Steps: x.steps, Integrator: "euler", Threads: 1,
	})
	return b
}

func (x *fleet) exec(i int, spec opSpec, sp *spanRef) opResult {
	r, _ := x.solveVia(x.c, i, spec, sp)
	return r
}

// solveVia sends the op's request to c (the coordinator, or a peer for
// the direct probe) and checks the answer.
func (x *fleet) solveVia(c *client, i int, spec opSpec, sp *spanRef) (r opResult, p solvePayload) {
	r = opResult{Class: spec.Class}
	var rep reply
	var err error
	timed(&r, func() { rep, err = c.call(sp, i, "/v1/solve", x.body(spec.Param), &r) })
	if err == nil {
		err = json.Unmarshal(rep.Payload, &p)
	}
	switch {
	case err != nil:
	case c == x.c && rep.Placed == nil:
		err = fmt.Errorf("answer did not come through a placement")
	case p.Steps != x.steps || p.NumBoxes != 1 || p.DomainN != fleetDomainN || p.Totals == nil:
		err = fmt.Errorf("answer does not echo the request: %s", rep.Payload)
	default:
		err = conservedTotals(*p.Totals, fleetDomainN, velocity(spec.Param))
	}
	if err != nil {
		r.Err = err.Error()
		return r, p
	}
	r.OK = true
	r.CellUpdates = int64(fleetDomainN*fleetDomainN*fleetDomainN) * int64(x.steps)
	r.fact("elapsed_s", p.ElapsedSec)
	if rep.Placed != nil {
		r.fact("peer", float64(x.index[rep.Placed.Peer]))
		if sp != nil {
			// Outside the op's latency: ask the peer how long its own job
			// waited and ran. Only the traced run pays for this look.
			var job jobSnapshot
			if err := x.direct[rep.Placed.Peer].getJSON("/v1/jobs/"+rep.Placed.RemoteID, &job); err == nil {
				job.queueFacts(&r)
			}
		}
	}
	return r, p
}

func (x *fleet) verify() error { return nil } // every answer is checked as it arrives

func (x *fleet) counters() (map[string]float64, error) { return nil, nil }

func (x *fleet) layers(in layerInput) (map[string]float64, error) {
	name := x.w.Name
	res := in.Window.Results
	ops := float64(in.Window.Tally.Ops)
	spanP50 := func(n string) float64 {
		return median(spanSeconds(in.Spans, spanFilter{Workload: name, Name: n}))
	}
	boots := []float64{x.coord.bootSec}
	for _, n := range x.peers {
		boots = append(boots, n.bootSec)
	}
	var share []float64
	onPeer := make([]float64, fleetPeers)
	for _, r := range res {
		if e, ok := r.Facts["elapsed_s"]; ok {
			share = append(share, e/r.Latency)
		}
		if p, ok := r.Facts["peer"]; ok {
			onPeer[int(p)]++
		}
	}
	m := map[string]float64{
		"stencilserved.boot_s":           median(boots),
		"stencilserved.submit_rtt_p50_s": spanP50("stencilserved.submit"),
		"stencilserved.poll_rtt_p50_s":   spanP50("stencilserved.poll"),
		"stencilserved.polls_per_op":     sum(facts(res, "", "polls")) / ops,
		"stencilserved.poll_lag_p50_s":   median(facts(res, "", "poll_lag_s")),
		"stencilserved.solve_share":      median(share),
		"stencilserved.throttled_share":  float64(in.Window.Tally.Throttled) / (ops + float64(in.Window.Tally.Throttled)),
		"jobs.queue_wait_p50_s":          median(facts(res, "", "jobs.queue_wait_s")),
		"jobs.queue_wait_p90_s":          quantile(facts(res, "", "jobs.queue_wait_s"), 0.9),
		"jobs.run_p50_s":                 median(facts(res, "", "jobs.run_s")),
		"fleet.peer_balance":             min(onPeer[0], onPeer[1]) / max(onPeer[0], onPeer[1]),
		"fleet.replacements":             sum(facts(res, "", "replacements")),
		"fleet.sync_answer_share":        sum(facts(res, "", "sync")) / ops,
		"fleet.coordinator_cpu_share":    in.Window.CPUByPid[1] / in.Window.CPUSec,
	}
	noop, err := jobsNoopRoundtrips(200)
	if err != nil {
		return nil, err
	}
	m["jobs.noop_roundtrip_s"] = median(noop)

	// The coordinator's view of a placement, from the timestamps of its
	// own placement job. /v1/fleet reports a p50 too, but as a histogram
	// estimate over decade-wide buckets: it reads the same whatever the
	// latency does inside a bucket, so it cannot serve as a measurement.
	m["fleet.placement_p50_s"] = median(facts(res, "", "fleet.placement_s"))

	// The same requests sent straight to the peers: what is left of the
	// latency without the coordinator.
	direct := runOps(once(x.w.planner(1).block()), func(i int, spec opSpec) opResult {
		sp := in.Tracer.root(name, -1, "probe", "direct")
		defer sp.end()
		r, _ := x.solveVia(x.direct[x.peers[i%fleetPeers].name], i, spec, sp)
		return r
	})
	if t := tallyOf(direct); t.Failed > 0 {
		return nil, fmt.Errorf("bench: direct probe: %s", t.FirstErr)
	}
	m["fleet.added_latency_p50_s"] = median(latencies(res, "")) - median(latencies(direct, ""))
	return m, nil
}
