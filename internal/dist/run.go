package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"stencilsched/internal/cluster"
	"stencilsched/internal/fab"
)

// validate normalizes cfg and builds its plan.
func (c Config) plan() (*Plan, error) {
	if c.Layout == nil {
		return nil, fmt.Errorf("dist: nil layout")
	}
	if c.Ranks < 1 {
		return nil, fmt.Errorf("dist: %d ranks", c.Ranks)
	}
	if c.Steps < 1 {
		return nil, fmt.Errorf("dist: %d steps", c.Steps)
	}
	if c.Threads < 1 {
		return nil, fmt.Errorf("dist: %d threads per rank", c.Threads)
	}
	if err := c.Variant.Validate(); err != nil {
		return nil, err
	}
	var a *cluster.Assignment
	if c.Assign == nil {
		var err error
		a, err = cluster.Assign(c.Layout, c.Ranks)
		if err != nil {
			return nil, err
		}
	} else {
		if len(c.Assign) != c.Layout.NumBoxes() {
			return nil, fmt.Errorf("dist: assignment covers %d of %d boxes", len(c.Assign), c.Layout.NumBoxes())
		}
		a = &cluster.Assignment{Layout: c.Layout, Ranks: c.Ranks, Of: c.Assign}
	}
	return NewPlan(c.Layout, a, c.HaloK)
}

// Plan exposes the exchange plan a config would run under (for sizing,
// prediction, and tests).
func (c Config) Plan() (*Plan, error) { return c.plan() }

// RunLoopback executes the whole solve in-process: one goroutine per
// rank over a loopback hub sized for the plan. It is the test and
// conformance entry point, and the single-host path of
// stencilsched.SolveDistributed.
func RunLoopback(ctx context.Context, cfg Config) (*Result, error) {
	plan, err := cfg.plan()
	if err != nil {
		return nil, err
	}
	hub := NewHub(len(plan.Ranks), 2*plan.MaxRecvs()+8, plan.MaxFrameValues)
	defer hub.Close()
	return RunLoopbackHub(ctx, cfg, plan, hub)
}

// RunLoopbackHub is RunLoopback against a caller-built hub, the seam
// failure-injection tests use (install a FaultHook, or Kill a rank
// mid-run). The first rank failure cancels the remaining ranks; the
// returned error is the root-cause *RankError, not a secondary
// cancellation. All rank goroutines have exited by return, and on
// failure every rank's state is back in the pool. A successful result
// holds the ranks' state until its Release.
func RunLoopbackHub(ctx context.Context, cfg Config, plan *Plan, hub *Hub) (*Result, error) {
	ranks := len(plan.Ranks)
	start := time.Now()
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]*RankResult, ranks)
	errs := make([]error, ranks)
	done := make(chan int, ranks)
	for r := 0; r < ranks; r++ {
		r := r
		go func() {
			results[r], errs[r] = RunRank(rctx, cfg, plan, hub.Transport(r))
			if errs[r] != nil {
				cancel() // fail fast: unblock peers waiting on this rank
			}
			done <- r
		}()
	}
	for i := 0; i < ranks; i++ {
		<-done
	}

	if err := firstError(errs); err != nil {
		for _, rr := range results {
			if rr != nil {
				rr.Release()
			}
		}
		return nil, err
	}
	res := &Result{Plan: plan, PerRank: make([]RankResult, ranks), WallSec: time.Since(start).Seconds()}
	res.Fabs = make([]*fab.FAB, plan.Layout.NumBoxes())
	for r, rr := range results {
		res.PerRank[r] = *rr
		res.Stats.Add(rr.Stats)
		for i, bi := range rr.Boxes {
			res.Fabs[bi] = rr.Fabs[i]
		}
	}
	return res, nil
}

// firstError picks the root cause: the lowest-ranked failure that is
// not a secondary cancellation, falling back to any failure at all.
func firstError(errs []error) error {
	var fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if fallback == nil {
			fallback = err
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
	}
	return fallback
}

// RunTCP executes one rank of a multi-process solve over TCP: it joins
// the mesh (ln must already listen on addrs[rank]) and runs its share
// of the plan. All processes must be launched with identical configs;
// the hello handshake cross-checks the mesh size. The transport is torn
// down before return, whatever happens.
func RunTCP(ctx context.Context, cfg Config, rank int, ln net.Listener, addrs []string) (*RankResult, error) {
	plan, err := cfg.plan()
	if err != nil {
		return nil, err
	}
	if len(addrs) != len(plan.Ranks) {
		return nil, fmt.Errorf("dist: %d addresses for %d ranks", len(addrs), len(plan.Ranks))
	}
	tr, err := ConnectTCP(ctx, rank, ln, addrs, plan.MaxFrameValues)
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	res, err := RunRank(ctx, cfg, plan, tr)
	if err == nil {
		tr.sayBye(ctx)
	}
	return res, err
}
