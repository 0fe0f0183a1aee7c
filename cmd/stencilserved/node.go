package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"stencilsched/internal/fleet"
	"stencilsched/internal/jobs"
	"stencilsched/internal/metrics"
	"stencilsched/internal/tunecache"
)

// nodeConfig sizes what a peer and a coordinator both run: the job queue,
// its limits, and the tunecache.
type nodeConfig struct {
	workers      int           // concurrent jobs
	queueDepth   int           // pending jobs before 503
	jobTimeout   time.Duration // per-job ceiling (0 = none)
	drainTimeout time.Duration // graceful-shutdown budget
	cacheDir     string        // tunecache directory ("" disables caching)
	jobHistory   int           // terminal jobs retained (0 = jobs.DefaultHistoryLimit)
	tenantQuota  int           // live jobs per tenant (0 = unlimited)
}

// node is the skeleton under both roles: the queue with its admission
// control, the tunecache and its replication endpoints, the instrumented
// router, job listing, waiting and cancellation, /healthz, and the
// metrics write-out. server and coordServer embed it and add only what
// is theirs; only /healthz asks which role it serves, through peers.
type node struct {
	nodeConfig
	queue *jobs.Queue
	cache *tunecache.Cache
	reg   *metrics.Registry
	mux   *http.ServeMux
	start time.Time
	// closing ends when shutdown begins; every GET /v1/jobs/{id}?wait=
	// still waiting then answers at once (see endWaits).
	closing  context.Context
	shutdown context.CancelFunc
	// peers lists the fleet a coordinator places onto; nil on a peer.
	peers func() []fleet.PeerStatus
}

// newNode builds the queue (threadBudget tokens shared by running jobs),
// opens the tunecache, and registers the routes every role serves.
func newNode(cfg nodeConfig, threadBudget int) (*node, error) {
	if cfg.queueDepth < 1 {
		cfg.queueDepth = 64
	}
	n := &node{
		nodeConfig: cfg,
		queue:      jobs.New(cfg.workers, cfg.queueDepth, threadBudget),
		reg:        metrics.NewRegistry(),
		mux:        http.NewServeMux(),
		start:      time.Now(),
	}
	n.closing, n.shutdown = context.WithCancel(context.Background())
	if cfg.jobHistory > 0 {
		n.queue.SetHistoryLimit(cfg.jobHistory)
	}
	if cfg.tenantQuota > 0 {
		n.queue.SetTenantLimit(cfg.tenantQuota)
	}
	if cfg.cacheDir != "" {
		c, err := tunecache.Open(cfg.cacheDir)
		if err != nil {
			return nil, err
		}
		n.cache = c
	}
	n.handle("GET /v1/jobs", n.handleJobList)
	n.handle("GET /v1/jobs/{id}", n.handleJobGet)
	n.handle("DELETE /v1/jobs/{id}", n.handleJobCancel)
	n.handle("POST /v1/cache/get", n.handleCacheGet)
	n.handle("POST /v1/cache/put", n.handleCachePut)
	n.handle("GET /healthz", n.handleHealthz)
	return n, nil
}

// ServeHTTP gives every request an id — the caller's X-Request-Id, or
// one minted here — before routing it. The id is echoed on the response
// (whatever answers it, the mux's own 404 and 405 included), stamped on
// any job the request queues, and carried by the request's context to the
// peer a coordinator places it on.
func (n *node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(requestIDHeader)
	if id == "" || len(id) > maxRequestIDLen {
		id = newRequestID()
	}
	w.Header().Set(requestIDHeader, id)
	n.mux.ServeHTTP(w, r.WithContext(fleet.WithRequestID(r.Context(), id)))
}

// drainBudget, endWaits and drain are the shutdown half of the service
// interface run uses; a role with more to tear down shadows drain.
// endWaits runs first, when shutdown begins: the HTTP server waits for
// every in-flight request before drain starts, and a long poll on a job
// only drain would settle (a pending one) would otherwise hold shutdown
// for the whole wait.
func (n *node) drainBudget() time.Duration { return n.drainTimeout }

func (n *node) endWaits() { n.shutdown() }

func (n *node) drain(ctx context.Context) error { return n.queue.Drain(ctx) }

// requestIDHeader names one client request across the nodes it touches
// (see ServeHTTP).
const requestIDHeader = fleet.RequestIDHeader

// maxRequestIDLen bounds a client-chosen request id; a longer one is
// replaced, since the id is echoed and stored on jobs.
const maxRequestIDLen = 64

// newRequestID mints an id for a request that arrived without one.
func newRequestID() string {
	var b [8]byte
	_, _ = rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// handle registers a route instrumented with a per-route latency
// histogram and a per-route/status response counter. The route label is
// the mux pattern, not the raw URL, so job IDs do not explode metric
// cardinality.
func (n *node) handle(pattern string, h http.HandlerFunc) {
	route := metrics.Label{Key: "route", Value: pattern}
	hist := n.reg.Histogram("stencilserved_request_seconds",
		"request latency by route", nil, route)
	n.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer hist.ObserveSince(time.Now())
		h(sw, r)
		n.reg.Counter("stencilserved_responses_total", "responses by route and status",
			route, metrics.Label{Key: "code", Value: fmt.Sprintf("%d", sw.code)}).Inc()
	})
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type errorResponse struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxRequestBytes bounds request bodies: every legitimate request to
// this API is well under a kilobyte of JSON, so a megabyte is generous,
// and an unbounded body would let one client exhaust server memory.
const maxRequestBytes = 1 << 20

// decodeJSON decodes a request body strictly, answering 400 itself and
// reporting false when it cannot: the body is capped at maxRequestBytes
// and unknown fields are an error, because a misspelled tuning parameter
// silently falling back to a default is exactly the failure mode this
// service exists to avoid.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		err = fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
	}
	return err == nil
}

// tenantHeader carries the requesting tenant through the coordinator to
// the peers; an empty value is the anonymous tenant (never quota-bound).
const tenantHeader = "X-Tenant"

// admit queues fn under the request's tenant and answers 202 with the
// job snapshot, or refuses: queue saturation is a 503 (with Retry-After)
// and a tenant over its quota a 429, so both global and per-tenant load
// shedding are visible to clients. It reports whether the job was
// accepted; either way the response is written.
func (n *node) admit(w http.ResponseWriter, r *http.Request, kind string, threads int, fn jobs.Func) bool {
	tenant := r.Header.Get(tenantHeader)
	tag := jobs.Tag{Tenant: tenant, RequestID: fleet.RequestID(r.Context())}
	snap, err := n.queue.SubmitTagged(kind, tag, threads, n.jobTimeout, fn)
	switch err {
	case nil:
		writeJSON(w, http.StatusAccepted, snap)
	case jobs.ErrQueueFull:
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "job queue full")
	case jobs.ErrDraining:
		httpError(w, http.StatusServiceUnavailable, "shutting down")
	case jobs.ErrTenantLimit:
		n.refuseTenant(w, tenant)
	default:
		httpError(w, http.StatusInternalServerError, "%v", err)
	}
	return err == nil
}

// refuseTenant answers a request from a tenant at its live-job quota.
func (n *node) refuseTenant(w http.ResponseWriter, tenant string) {
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusTooManyRequests,
		"tenant %q at its live-job quota (%d)", tenant, n.tenantQuota)
}

// ---- /v1/jobs ------------------------------------------------------------

func (n *node) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, n.queue.List())
}

// maxJobWait caps ?wait= on GET /v1/jobs/{id}: long enough that a
// waiting client looks about once per job, short enough to stay under
// the idle timeouts of whatever sits between client and node.
const maxJobWait = 30 * time.Second

// handleJobGet answers the job's snapshot. With ?wait=<Go duration> it
// first holds the answer until the job settles, the wait (capped at
// maxJobWait) passes, the client leaves, or shutdown begins — whichever
// comes first — so a client learns of completion the moment it happens
// instead of on its next poll.
func (n *node) handleJobGet(w http.ResponseWriter, r *http.Request) {
	wait, err := jobWait(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if wait == 0 {
		n.answerJob(w, r, n.queue.Get)
		return
	}
	n.answerJob(w, r, func(id string) (jobs.Snapshot, bool) {
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		defer cancel()
		defer context.AfterFunc(n.closing, cancel)()
		return n.queue.Wait(ctx, id)
	})
}

// jobWait reads ?wait=: absent or zero asks for an immediate answer, a
// longer wait than maxJobWait is clamped to it, and anything that is not
// a non-negative Go duration is refused.
func jobWait(r *http.Request) (time.Duration, error) {
	v := r.URL.Query().Get("wait")
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("bad wait %q: want a non-negative Go duration such as 2s", v)
	}
	return min(d, maxJobWait), nil
}

func (n *node) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	n.answerJob(w, r, n.queue.Cancel)
}

// answerJob writes the snapshot op returns for the path's job id, or 404.
func (n *node) answerJob(w http.ResponseWriter, r *http.Request, op func(id string) (jobs.Snapshot, bool)) {
	snap, ok := op(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// ---- POST /v1/cache/{get,put} -------------------------------------------

// handleCacheGet serves one tunecache entry by opaque key — the fleet
// cache-replication read path. Every node answers from its own store:
// the coordinator's is the fleet's authority, and a standalone node's
// doubles as one, which is what lets any node be promoted to coordinator
// without a data migration.
func (n *node) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	if n.cache == nil {
		httpError(w, http.StatusServiceUnavailable, "no tunecache configured")
		return
	}
	var req fleet.CacheGetRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Key == "" {
		httpError(w, http.StatusBadRequest, "empty cache key")
		return
	}
	v, ok := n.cache.GetRaw(req.Key)
	if ok {
		n.reg.Counter("stencilserved_cache_repl_get_hits_total",
			"replication reads answered from this node's cache").Inc()
	} else {
		n.reg.Counter("stencilserved_cache_repl_get_misses_total",
			"replication reads this node could not answer").Inc()
	}
	writeJSON(w, http.StatusOK, fleet.CacheGetResponse{Found: ok, Value: v})
}

// handleCachePut stores one tunecache entry pushed by a peer that just
// measured it. PutRaw deliberately does not re-replicate: an upstream
// echo would bounce entries between coordinator and peers forever.
func (n *node) handleCachePut(w http.ResponseWriter, r *http.Request) {
	if n.cache == nil {
		httpError(w, http.StatusServiceUnavailable, "no tunecache configured")
		return
	}
	var req fleet.CachePutRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Key == "" || len(req.Value) == 0 {
		httpError(w, http.StatusBadRequest, "cache put needs both key and value")
		return
	}
	if err := n.cache.PutRaw(req.Key, req.Value); err != nil {
		httpError(w, http.StatusInternalServerError, "cache put: %v", err)
		return
	}
	n.reg.Counter("stencilserved_cache_repl_puts_total",
		"replication writes accepted by this node").Inc()
	writeJSON(w, http.StatusOK, struct {
		OK bool `json:"ok"`
	}{true})
}

// ---- GET /healthz --------------------------------------------------------

// healthResponse is the /healthz body of both roles. Its status code is
// always 200: the fleet prober and the benchmark harness read only that,
// the body is for people.
type healthResponse struct {
	Status       string     `json:"status"`
	Role         string     `json:"role"` // peer | coordinator
	UptimeSec    float64    `json:"uptime_sec"`
	Queue        jobs.Stats `json:"queue"`
	CacheEntries int        `json:"cache_entries"`
	CacheDir     string     `json:"cache_dir,omitempty"`
	// Coordinator only: the peers its last probe found healthy, of all.
	PeersHealthy *int `json:"peers_healthy,omitempty"`
	PeersTotal   *int `json:"peers_total,omitempty"`
}

func (n *node) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := healthResponse{
		Status:    "ok",
		Role:      "peer",
		UptimeSec: time.Since(n.start).Seconds(),
		Queue:     n.queue.Stats(),
	}
	if n.cache != nil {
		h.CacheEntries = n.cache.Len()
		h.CacheDir = n.cache.Dir()
	}
	if n.peers != nil {
		peers := n.peers()
		healthy := 0
		for _, p := range peers {
			if p.Healthy {
				healthy++
			}
		}
		total := len(peers)
		h.Role, h.PeersHealthy, h.PeersTotal = "coordinator", &healthy, &total
	}
	writeJSON(w, http.StatusOK, h)
}

// ---- GET /metrics --------------------------------------------------------

// writeMetrics refreshes the gauges every role reports — jobs by status,
// uptime, tunecache size — and writes the registry out. A role sets its
// own gauges first, then calls this.
func (n *node) writeMetrics(w http.ResponseWriter) {
	st := n.queue.Stats()
	for _, g := range []struct {
		status string
		n      int
	}{
		{"pending", st.Pending}, {"running", st.Running}, {"done", st.Done},
		{"failed", st.Failed}, {"canceled", st.Canceled},
	} {
		n.reg.Gauge("stencilserved_jobs", "jobs by lifecycle status",
			metrics.Label{Key: "status", Value: g.status}).Set(float64(g.n))
	}
	n.reg.Gauge("stencilserved_uptime_seconds", "seconds since start").Set(time.Since(n.start).Seconds())
	if n.cache != nil {
		n.reg.Gauge("stencilserved_tunecache_entries", "entry files in the tunecache").Set(float64(n.cache.Len()))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = n.reg.WritePrometheus(w)
}
