package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"stencilsched/internal/fleet"
	"stencilsched/internal/jobs"
	"stencilsched/internal/metrics"
)

// coordConfig sizes a coordinator: the shared node plus the fleet it
// places onto.
type coordConfig struct {
	nodeConfig
	peers         []fleet.Peer  // the fleet this coordinator places onto
	probeInterval time.Duration // peer health probe cadence (0 = default, <0 disables)
}

// coordServer is stencilserved in coordinator mode: it owns no solver
// and measures nothing — every /v1/solve and /v1/autotune request is
// placed onto a peer by consistent hash of its problem fingerprint and
// driven to completion by a local placement job, so admission control,
// tenancy quotas, job listing, cancellation, and drain are the node
// skeleton peers run too. Its tunecache is the fleet's shared cache
// authority, served over the node's /v1/cache/{get,put}.
type coordServer struct {
	*node
	co *fleet.Coordinator

	placements   *metrics.Counter
	syncAnswers  *metrics.Counter
	replacements *metrics.Counter
	rejected     *metrics.Counter
	jobSeconds   *metrics.Histogram
	attemptsHist *metrics.Histogram
}

func newCoordinator(cfg coordConfig) (*coordServer, error) {
	if cfg.workers < 1 {
		cfg.workers = 16 // placements wait, they do not compute; be generous
	}
	co, err := fleet.New(fleet.Config{
		Peers:         cfg.peers,
		ProbeInterval: cfg.probeInterval,
	})
	if err != nil {
		return nil, err
	}
	// Thread budget: placement jobs hold no compute threads, so the
	// budget equals the worker count — one token per in-flight wait.
	n, err := newNode(cfg.nodeConfig, cfg.workers)
	if err != nil {
		return nil, err
	}
	s := &coordServer{node: n, co: co}
	n.peers = co.Peers
	s.placements = s.reg.Counter("stencilserved_fleet_placements_total",
		"requests placed onto the fleet")
	s.syncAnswers = s.reg.Counter("stencilserved_fleet_sync_answers_total",
		"placements answered synchronously by a peer (cache hits)")
	s.replacements = s.reg.Counter("stencilserved_fleet_replacements_total",
		"jobs re-placed after their peer died mid-run")
	s.rejected = s.reg.Counter("stencilserved_fleet_rejected_total",
		"requests rejected before placement (quota, queue full, no live peer)")
	s.jobSeconds = s.reg.Histogram("stencilserved_fleet_job_seconds",
		"end-to-end placement latency, submit to terminal", nil)
	s.attemptsHist = s.reg.Histogram("stencilserved_fleet_place_attempts",
		"submission attempts per placement", []float64{1, 2, 3, 5, 8, 13})

	s.handle("POST /v1/solve", s.place)
	s.handle("POST /v1/autotune", s.place)
	s.handle("GET /v1/fleet", s.handleFleet)
	s.handle("GET /metrics", s.handleMetrics)
	co.Start()
	return s, nil
}

func (s *coordServer) banner(addr net.Addr) string {
	peers := s.co.Peers()
	names := make([]string, len(peers))
	for i, p := range peers {
		names[i] = p.Name
	}
	return fmt.Sprintf("stencilserved: coordinating %d peers [%s] on http://%s (workers=%d, cache=%s)",
		len(peers), strings.Join(names, " "), addr, s.workers, s.cacheDir)
}

// drain shadows the node's: the probe loop stops once the queue has.
func (s *coordServer) drain(ctx context.Context) error {
	err := s.node.drain(ctx)
	s.co.Close()
	return err
}

// fleetJobResult is what a completed placement job reports: the peer's
// result payload plus the placement's provenance, so a client can see
// where its job ran and whether it survived a re-placement.
type fleetJobResult struct {
	Peer         string          `json:"peer"`
	RemoteID     string          `json:"remote_id,omitempty"`
	Attempts     int             `json:"attempts"`
	Replacements int             `json:"replacements"`
	Result       json.RawMessage `json:"result"`
}

// place is the coordinator hot path: read the body, submit it to the
// ring synchronously under the path it arrived on (so peer cache hits
// and 4xx rejections relay inline), then hand the long poll to a local
// placement job.
func (s *coordServer) place(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		s.rejected.Inc()
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	tenant := r.Header.Get(tenantHeader)
	// Quota pre-check before spending a remote submission. admit below is
	// the authoritative gate; this only avoids the common waste.
	if s.tenantQuota > 0 && tenant != "" && s.queue.TenantLive(tenant) >= s.tenantQuota {
		s.rejected.Inc()
		s.refuseTenant(w, tenant)
		return
	}
	start := time.Now()
	pl, err := s.co.Submit(r.Context(), path, body)
	if err != nil {
		s.rejected.Inc()
		var reqErr *fleet.RequestError
		switch {
		case errors.As(err, &reqErr):
			// The peer rejected the request as invalid; relay its answer
			// verbatim (it is already a JSON error body).
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(reqErr.Status)
			_, _ = io.WriteString(w, reqErr.Body)
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// The client went away mid-submit; nothing useful to answer.
			httpError(w, http.StatusServiceUnavailable, "client canceled during placement")
		default:
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, "no live peer: %v", err)
		}
		return
	}
	s.placements.Inc()
	res := pl.Result()
	s.attemptsHist.Observe(float64(res.Attempts))
	if res.Sync {
		// A peer answered inline (autotune cache hit): relay it now, no job.
		s.syncAnswers.Inc()
		s.jobSeconds.ObserveSince(start)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(res.Result)
		return
	}
	kind := "fleet-" + strings.TrimPrefix(path, "/v1/")
	admitted := s.admit(w, r, kind, 1, func(ctx context.Context) (any, error) {
		out, err := pl.Await(ctx)
		s.jobSeconds.ObserveSince(start)
		s.replacements.Add(uint64(out.Replacements))
		if err != nil {
			return nil, err
		}
		return fleetJobResult{
			Peer: out.Peer, RemoteID: out.RemoteID,
			Attempts: out.Attempts, Replacements: out.Replacements,
			Result: out.Result,
		}, nil
	})
	if !admitted {
		// The remote job is already queued on its peer; do not orphan it.
		pl.Abandon()
		s.rejected.Inc()
	}
}

// ---- GET /v1/fleet -------------------------------------------------------

type fleetStatusResponse struct {
	Peers    []fleet.PeerStatus `json:"peers"`
	Queue    jobs.Stats         `json:"queue"`
	Requests fleetRequestStats  `json:"requests"`
}

type fleetRequestStats struct {
	Placements   uint64  `json:"placements"`
	SyncAnswers  uint64  `json:"sync_answers"`
	Replacements uint64  `json:"replacements"`
	Rejected     uint64  `json:"rejected"`
	LatencyCount uint64  `json:"latency_count"`
	LatencyP50   float64 `json:"latency_p50_sec"`
	LatencyP99   float64 `json:"latency_p99_sec"`
}

func (s *coordServer) handleFleet(w http.ResponseWriter, r *http.Request) {
	st := fleetRequestStats{
		Placements:   s.placements.Value(),
		SyncAnswers:  s.syncAnswers.Value(),
		Replacements: s.replacements.Value(),
		Rejected:     s.rejected.Value(),
		LatencyCount: s.jobSeconds.Count(),
	}
	if st.LatencyCount > 0 { // Quantile is NaN on empty, which JSON cannot carry
		st.LatencyP50 = s.jobSeconds.Quantile(0.50)
		st.LatencyP99 = s.jobSeconds.Quantile(0.99)
	}
	writeJSON(w, http.StatusOK, fleetStatusResponse{
		Peers:    s.co.Peers(),
		Queue:    s.queue.Stats(),
		Requests: st,
	})
}

// ---- GET /metrics -------------------------------------------------------

func (s *coordServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	for _, p := range s.co.Peers() {
		lbl := metrics.Label{Key: "peer", Value: p.Name}
		h := 0.0
		if p.Healthy {
			h = 1
		}
		s.reg.Gauge("stencilserved_fleet_peer_healthy",
			"peer liveness from the last probe (1 = healthy)", lbl).Set(h)
		s.reg.Gauge("stencilserved_fleet_peer_placed",
			"submission attempts placed on this peer", lbl).Set(float64(p.Placed))
		s.reg.Gauge("stencilserved_fleet_peer_failures",
			"typed transport failures observed on this peer", lbl).Set(float64(p.Failures))
	}
	s.writeMetrics(w)
}
