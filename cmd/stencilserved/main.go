// Command stencilserved is the long-running scheduling service: the
// one-shot CLIs re-measure from scratch on every invocation, while this
// server amortizes tuning across requests with a persistent autotune
// cache, bounds concurrent measured work with a job queue and a
// goroutine-thread budget (so benchmarks stay meaningful under load),
// and exposes Prometheus metrics.
//
// Endpoints:
//
//	POST   /v1/solve      queue an advection solve (async; 202 + job)
//	POST   /v1/autotune   queue a measured tuning sweep; identical repeats
//	                      are answered from the cache (200, source=cache)
//	POST   /v1/conformance queue a differential + metamorphic self-check of
//	                      every registered schedule against the reference
//	                      (results also on stencilserved_conform_* metrics)
//	POST   /v1/model      modeled execution time on a paper machine (sync)
//	GET    /v1/variants   the studied scheduling variants (JSON or ?format=text)
//	GET    /v1/jobs       list jobs;  GET /v1/jobs/{id} one job
//	                      (?wait=2s holds the answer until the job settles)
//	DELETE /v1/jobs/{id}  cancel a job
//	GET    /metrics       Prometheus text format
//	GET    /healthz       liveness + queue stats
//
// SIGINT/SIGTERM drains gracefully: intake stops, queued jobs cancel,
// running jobs finish (up to -drain-timeout), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"stencilsched/internal/fleet"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8754", "listen address")
		workers = flag.Int("workers", 2, "concurrent jobs")
		depth   = flag.Int("queue", 64, "pending-job queue depth")
		threads = flag.Int("max-threads", runtime.NumCPU(),
			"total goroutine-thread budget across concurrent measured jobs")
		cacheDir = flag.String("cache-dir", defaultCacheDir(),
			"autotune cache directory (empty disables caching)")
		jobTimeout   = flag.Duration("job-timeout", 15*time.Minute, "per-job ceiling (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", time.Minute, "graceful-shutdown budget")
		jobHistory   = flag.Int("job-history", 0,
			"terminal jobs retained for listing (0 = default 1024)")
		tenantQuota = flag.Int("tenant-quota", 0,
			"max live jobs per X-Tenant value (0 = unlimited)")
		peers = flag.String("peers", "",
			"comma-separated name=url peer list; non-empty switches this node to coordinator mode")
		probeInterval = flag.Duration("probe-interval", 0,
			"coordinator peer health-probe cadence (0 = default 1s, negative disables)")
		fleetCache = flag.String("fleet-cache", "",
			"coordinator base URL for tunecache read-through replication (peer mode only)")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	nc := nodeConfig{
		workers: *workers, queueDepth: *depth,
		jobTimeout: *jobTimeout, drainTimeout: *drainTimeout,
		cacheDir: *cacheDir, jobHistory: *jobHistory, tenantQuota: *tenantQuota,
	}
	var svc service
	var err error
	if *peers != "" {
		var fp []fleet.Peer
		fp, err = parsePeers(*peers)
		if err == nil {
			svc, err = newCoordinator(coordConfig{nodeConfig: nc, peers: fp, probeInterval: *probeInterval})
		}
	} else {
		svc, err = newServer(config{nodeConfig: nc, maxThreads: *threads, fleetCache: *fleetCache})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stencilserved:", err)
		os.Exit(1)
	}
	if err := run(ctx, *addr, svc, nil); err != nil {
		fmt.Fprintln(os.Stderr, "stencilserved:", err)
		os.Exit(1)
	}
}

// parsePeers parses "a=http://host:port,b=http://host2:port" into a
// fleet peer list, rejecting malformed entries up front — a typo'd peer
// flag must refuse to start, not coordinate a partial fleet.
func parsePeers(spec string) ([]fleet.Peer, error) {
	var out []fleet.Peer
	for _, ent := range strings.Split(spec, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		name, url, ok := strings.Cut(ent, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want name=url)", ent)
		}
		out = append(out, fleet.Peer{Name: name, URL: url})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-peers %q names no peers", spec)
	}
	return out, nil
}

// defaultCacheDir places the tunecache under the user cache directory,
// falling back to the system temp dir.
func defaultCacheDir() string {
	if dir, err := os.UserCacheDir(); err == nil {
		return filepath.Join(dir, "stencilserved", "tunecache")
	}
	return filepath.Join(os.TempDir(), "stencilserved-tunecache")
}

// service is what run needs from either role: the node skeleton gives
// both the handler and the shutdown lifecycle; they differ in the banner
// and in what else must be torn down at exit.
type service interface {
	http.Handler
	banner(addr net.Addr) string
	drainBudget() time.Duration
	endWaits()
	drain(ctx context.Context) error
}

// run serves until ctx is canceled (SIGINT/SIGTERM in production; the
// drain test cancels it directly), then shuts down gracefully: stop
// accepting connections, answer every waiting job GET with its current
// snapshot, finish the requests in flight, drain in-flight jobs, exit.
// ready, when non-nil, receives the bound address once the listener is
// up.
func run(ctx context.Context, addr string, svc service, ready func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: svc}
	hs.RegisterOnShutdown(svc.endWaits)
	log.Print(svc.banner(ln.Addr()))
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	if ready != nil {
		ready(ln.Addr())
	}
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("stencilserved: shutting down, draining jobs (budget %s)", svc.drainBudget())
	dctx, cancel := context.WithTimeout(context.Background(), svc.drainBudget())
	defer cancel()
	serr := hs.Shutdown(dctx)
	derr := svc.drain(dctx)
	if derr != nil {
		derr = fmt.Errorf("drain: %w", derr)
	}
	log.Printf("stencilserved: drained, exiting")
	return errors.Join(serr, derr)
}
