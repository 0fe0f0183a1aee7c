package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	"stencilsched"
	"stencilsched/internal/conform"
	"stencilsched/internal/dist"
	"stencilsched/internal/fleet"
	"stencilsched/internal/jobs"
	"stencilsched/internal/metrics"
	"stencilsched/internal/perfmodel"
	"stencilsched/internal/report"
	"stencilsched/internal/scratch"
	"stencilsched/internal/tunecache"
)

// config sizes a peer: the shared node plus what only a solving node has.
type config struct {
	nodeConfig
	maxThreads int    // total goroutine-thread budget across jobs
	fleetCache string // coordinator base URL for tunecache read-through ("" = standalone)
}

// server is stencilserved in peer mode: the node skeleton plus the
// endpoints that compute — solve, autotune, conformance, model, variants.
type server struct {
	*node

	cacheHits   *metrics.Counter
	cacheMisses *metrics.Counter

	conformSweeps      *metrics.Counter
	conformChecks      *metrics.Counter
	conformDivergences *metrics.Counter
	conformLastDiverg  *metrics.Gauge

	distSolves        *metrics.Counter
	distMessages      *metrics.Counter
	distBytes         *metrics.Counter
	distRetries       *metrics.Counter
	distOverlap       *metrics.Gauge
	distMeasuredStep  *metrics.Gauge
	distPredictedStep *metrics.Gauge
	distStepHist      *metrics.Histogram

	fftSolves    *metrics.Counter
	fftRejects   *metrics.Counter
	fftSolveHist *metrics.Histogram
}

func newServer(cfg config) (*server, error) {
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if cfg.maxThreads < 1 {
		cfg.maxThreads = 1
	}
	n, err := newNode(cfg.nodeConfig, cfg.maxThreads)
	if err != nil {
		return nil, err
	}
	s := &server{node: n}
	if s.cache != nil && cfg.fleetCache != "" {
		// Fleet member: a local miss reads through to the coordinator's
		// shared cache, and fresh local measurements are pushed up so
		// re-placements of this problem land warm anywhere.
		s.cache.SetReplicator(fleet.NewHTTPReplicator(cfg.fleetCache, 0))
	}
	// Register the cache counters up front so a scrape before any tuning
	// traffic still shows them at zero.
	s.cacheHits = s.reg.Counter("stencilserved_tunecache_hits_total",
		"autotune requests answered from the cache without re-measuring")
	s.cacheMisses = s.reg.Counter("stencilserved_tunecache_misses_total",
		"autotune requests that had to measure")
	// Conformance counters, also registered up front: a scrape must show
	// at zero that this node has never self-checked.
	s.conformSweeps = s.reg.Counter("stencilserved_conform_sweeps_total",
		"completed conformance sweeps")
	s.conformChecks = s.reg.Counter("stencilserved_conform_checks_total",
		"(runner, case) conformance checks executed")
	s.conformDivergences = s.reg.Counter("stencilserved_conform_divergences_total",
		"conformance divergences found across all sweeps")
	s.conformLastDiverg = s.reg.Gauge("stencilserved_conform_last_divergences",
		"divergences in the most recent completed sweep")
	// Distributed-solve metrics, registered up front like the rest.
	s.distSolves = s.reg.Counter("stencilserved_dist_solves_total",
		"completed distributed (multi-rank) solve jobs")
	s.distMessages = s.reg.Counter("stencilserved_dist_messages_total",
		"ghost frames sent across ranks by distributed solves")
	s.distBytes = s.reg.Counter("stencilserved_dist_bytes_total",
		"ghost bytes sent across ranks by distributed solves")
	s.distRetries = s.reg.Counter("stencilserved_dist_retries_total",
		"transient exchange retries across distributed solves")
	s.distOverlap = s.reg.Gauge("stencilserved_dist_overlap_ratio",
		"fraction of exchange time hidden behind interior compute, last solve")
	s.distMeasuredStep = s.reg.Gauge("stencilserved_dist_measured_step_seconds",
		"measured per-step wall time of the last distributed solve")
	s.distPredictedStep = s.reg.Gauge("stencilserved_dist_predicted_step_seconds",
		"cluster-model per-step prediction for the last distributed solve")
	s.distStepHist = s.reg.Histogram("stencilserved_dist_step_seconds",
		"per-step wall time of distributed solves",
		metrics.ExpBuckets(1e-5, 4, 12))
	// Spectral-backend metrics, registered up front like the rest: a
	// scrape must show at zero that this node has never run (or refused)
	// an fft-backend solve.
	s.fftSolves = s.reg.Counter("stencilserved_fft_solves_total",
		"completed spectral (fft backend) solve jobs")
	s.fftRejects = s.reg.Counter("stencilserved_fft_rejects_total",
		"fft-backend requests refused before queueing (non-periodic geometry or unsupported shape)")
	s.fftSolveHist = s.reg.Histogram("stencilserved_fft_solve_seconds",
		"wall time of spectral solves (one whole K-step pass)",
		metrics.ExpBuckets(1e-5, 4, 12))

	s.handle("POST /v1/solve", s.handleSolve)
	s.handle("POST /v1/autotune", s.handleAutotune)
	s.handle("POST /v1/conformance", s.handleConformance)
	s.handle("POST /v1/model", s.handleModel)
	s.handle("GET /v1/variants", s.handleVariants)
	s.handle("GET /metrics", s.handleMetrics)
	return s, nil
}

// banner is the peer's half of the service interface run uses; the node
// supplies the rest.
func (s *server) banner(addr net.Addr) string {
	return fmt.Sprintf("stencilserved: listening on http://%s (workers=%d, thread budget=%d, cache=%s)",
		addr, s.workers, s.queue.Stats().ThreadCap, s.cacheDir)
}

// submit admits fn as a job of the given kind and counts the accepted
// ones per kind.
func (s *server) submit(w http.ResponseWriter, r *http.Request, kind string, threads int, fn jobs.Func) {
	if s.admit(w, r, kind, threads, fn) {
		s.reg.Counter("stencilserved_jobs_submitted_total", "jobs accepted by kind",
			metrics.Label{Key: "kind", Value: kind}).Inc()
	}
}

// ---- POST /v1/solve ----------------------------------------------------

type solveRequest struct {
	DomainN    int        `json:"domain_n"`
	BoxN       int        `json:"box_n"`
	Variant    string     `json:"variant"`
	U          [3]float64 `json:"u"`
	Dt         float64    `json:"dt"`
	Steps      int        `json:"steps"`
	Integrator string     `json:"integrator"`
	Threads    int        `json:"threads"`
	// Ranks > 0 switches the job to the distributed multi-rank runtime
	// (in-process loopback peers; every ghost frame passes through the
	// wire codec). HaloK is its deep-halo superstep factor: exchange
	// HaloK-deep ghosts once, then run HaloK sub-steps (0 means 1).
	// Distributed solves integrate with explicit euler only.
	Ranks int `json:"ranks"`
	HaloK int `json:"halo_k"`
	// Backend selects the solve engine: "" or "stencil" runs the
	// scheduled stencil executor; "fft" answers all Steps in one
	// spectral pass over the frozen-velocity exemplar operator
	// (explicit euler only, single node, fully periodic only — the DFT
	// diagonalizes the stencil only on the torus).
	Backend string `json:"backend"`
	// Periodic optionally declares per-axis periodicity; nil means
	// fully periodic (the served benchmark domain — the only geometry
	// any backend serves). A non-periodic axis is a 400 on every
	// backend; on "fft" it carries the typed fft.ErrNotPeriodic.
	Periodic *[3]bool `json:"periodic"`
}

type solveResult struct {
	Variant     string     `json:"variant"`
	DomainN     int        `json:"domain_n"`
	BoxN        int        `json:"box_n"`
	NumBoxes    int        `json:"num_boxes"`
	Steps       int        `json:"steps"`
	SimTime     float64    `json:"sim_time"`
	Totals      [5]float64 `json:"totals"`
	DensityLinf float64    `json:"density_linf"`
	DensityL1   float64    `json:"density_l1"`
	ElapsedSec  float64    `json:"elapsed_sec"`
}

// distSolveResult is what a distributed solve job reports: the measured
// run next to the cluster model's per-step prediction for the same
// decomposition, so the predicted/measured gap is visible per job.
type distSolveResult struct {
	Variant          string  `json:"variant"`
	DomainN          int     `json:"domain_n"`
	BoxN             int     `json:"box_n"`
	Ranks            int     `json:"ranks"`
	HaloK            int     `json:"halo_k"`
	Steps            int     `json:"steps"`
	ElapsedSec       float64 `json:"elapsed_sec"`
	MeasuredStepSec  float64 `json:"measured_step_sec"`
	PredictedStepSec float64 `json:"predicted_step_sec"`
	MCellsPerSec     float64 `json:"mcells_per_sec"`
	Messages         int64   `json:"messages"`
	Bytes            int64   `json:"bytes"`
	Retries          int64   `json:"retries"`
	RecomputedCells  int64   `json:"recomputed_cells"`
	OverlapRatio     float64 `json:"overlap_ratio"`
}

// solveRho is the initial density served solves use: a smooth periodic
// profile whose exact advected image is known, so every job can report
// its density error. (Arbitrary client-supplied profiles would need a
// function over the wire; an expression language is future work.)
func solveRho(domainN int) func(x, y, z float64) float64 {
	k := 2 * math.Pi / float64(domainN)
	return func(x, y, z float64) float64 {
		return 1 + 0.25*math.Sin(k*x)*math.Sin(k*y)*math.Sin(k*z)
	}
}

func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) {
	req := solveRequest{
		Variant:    "Shift-Fuse: P>=Box",
		U:          [3]float64{0.5, 0.25, 0.125},
		Dt:         0.2,
		Steps:      1,
		Integrator: "rk4",
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.BoxN == 0 {
		req.BoxN = req.DomainN
	}
	v, err := stencilsched.ParseVariant(req.Variant)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var integ stencilsched.Integrator
	switch strings.ToLower(req.Integrator) {
	case "euler":
		integ = stencilsched.Euler
	case "rk2":
		integ = stencilsched.RK2
	case "", "rk4":
		integ = stencilsched.RK4
	default:
		httpError(w, http.StatusBadRequest, "unknown integrator %q (euler, rk2, rk4)", req.Integrator)
		return
	}
	switch {
	case req.DomainN < 4:
		httpError(w, http.StatusBadRequest, "domain_n %d too small (need >= 4)", req.DomainN)
		return
	case req.Threads < 1:
		httpError(w, http.StatusBadRequest, "threads %d invalid: must be >= 1 (the executor would silently clamp it to a serial run)", req.Threads)
		return
	case req.Steps < 1:
		httpError(w, http.StatusBadRequest, "steps %d invalid: must be >= 1", req.Steps)
		return
	case req.Dt <= 0:
		httpError(w, http.StatusBadRequest, "dt %g invalid: must be > 0", req.Dt)
		return
	case req.Ranks < 0:
		httpError(w, http.StatusBadRequest, "ranks %d invalid: must be >= 0 (0 = local solve)", req.Ranks)
		return
	}
	switch strings.ToLower(req.Backend) {
	case "", "stencil":
	case "fft":
		s.handleSolveFFT(w, r, req)
		return
	default:
		httpError(w, http.StatusBadRequest, "unknown backend %q (stencil, fft)", req.Backend)
		return
	}
	if req.Periodic != nil {
		for d, p := range req.Periodic {
			if !p {
				httpError(w, http.StatusBadRequest,
					"axis %d not periodic: stencil solves run the periodic benchmark domain", d)
				return
			}
		}
	}
	if req.Ranks > 0 {
		s.handleSolveDist(w, r, req, v)
		return
	}
	req2 := req // capture by value for the job closure
	s.submit(w, r, "solve", req.Threads, func(ctx context.Context) (any, error) {
		prob := stencilsched.AdvectionProblem{
			DomainN: req2.DomainN, BoxN: req2.BoxN,
			U: req2.U, Rho: solveRho(req2.DomainN), Dt: req2.Dt,
			Integrator: integ, Threads: req2.Threads,
		}
		adv, err := stencilsched.NewAdvection(prob, v)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		// Advance in short bursts so cancellation lands between steps.
		const burst = 4
		for done := 0; done < req2.Steps; {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			n := burst
			if rest := req2.Steps - done; rest < n {
				n = rest
			}
			adv.Advance(n)
			done += n
		}
		linf, l1 := adv.DensityError()
		return solveResult{
			Variant: v.Name(), DomainN: req2.DomainN, BoxN: req2.BoxN,
			NumBoxes: adv.NumBoxes(), Steps: req2.Steps, SimTime: adv.Time(),
			Totals: adv.Totals(), DensityLinf: linf, DensityL1: l1,
			ElapsedSec: time.Since(start).Seconds(),
		}, nil
	})
}

// handleSolveDist queues a multi-rank solve on the in-process loopback
// transport. All decomposition validation happens here: too many ranks
// for the box count or a halo deeper than the periodic domain must 400,
// not fail a queued job.
func (s *server) handleSolveDist(w http.ResponseWriter, r *http.Request, req solveRequest, v stencilsched.Variant) {
	if strings.ToLower(req.Integrator) != "euler" {
		httpError(w, http.StatusBadRequest,
			"distributed solves integrate with explicit euler only; got integrator %q", req.Integrator)
		return
	}
	p := stencilsched.DistProblem{
		DomainN: req.DomainN, BoxN: req.BoxN,
		// The served problem is the periodic benchmark domain, matching
		// the local solve path.
		Periodic: [3]bool{true, true, true},
		Ranks:    req.Ranks, HaloK: req.HaloK,
		Steps: req.Steps, Threads: req.Threads, Dt: req.Dt,
	}
	if err := stencilsched.ValidateDistributed(v, p); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The prediction is pure model, so compute it up front against a
	// fixed reference point (first studied machine on the Gemini torus):
	// the gauge stays comparable across jobs and across deployments.
	pred, err := stencilsched.PredictDistributedStep(v, p,
		stencilsched.Machines()[0], stencilsched.CrayGemini())
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Every rank runs its own executor, so the thread grant scales with
	// the rank count (the queue clamps it to the server budget).
	s.submit(w, r, "solve-dist", req.Ranks*req.Threads, func(ctx context.Context) (any, error) {
		res, err := stencilsched.SolveDistributedContext(ctx, v, p)
		if err != nil {
			return nil, err
		}
		s.distSolves.Inc()
		s.distMessages.Add(uint64(res.Messages))
		s.distBytes.Add(uint64(res.Bytes))
		s.distRetries.Add(uint64(res.Retries))
		s.distOverlap.Set(res.OverlapRatio)
		s.distMeasuredStep.Set(res.MeasuredStepSec)
		s.distPredictedStep.Set(pred.StepSec)
		s.distStepHist.Observe(res.MeasuredStepSec)
		return distSolveResult{
			Variant: v.Name(), DomainN: req.DomainN, BoxN: req.BoxN,
			Ranks: req.Ranks, HaloK: req.HaloK, Steps: req.Steps,
			ElapsedSec: res.Seconds, MeasuredStepSec: res.MeasuredStepSec,
			PredictedStepSec: pred.StepSec, MCellsPerSec: res.MCellsPerSec,
			Messages: res.Messages, Bytes: res.Bytes, Retries: res.Retries,
			RecomputedCells: res.RecomputedCells, OverlapRatio: res.OverlapRatio,
		}, nil
	})
}

// ---- POST /v1/autotune -------------------------------------------------

type autotuneRequest struct {
	BoxN       int      `json:"box_n"`
	NumBoxes   int      `json:"num_boxes"`
	Threads    int      `json:"threads"`
	Reps       int      `json:"reps"`
	Candidates []string `json:"candidates"`
}

type tuneRow struct {
	Variant string  `json:"variant"`
	Seconds float64 `json:"seconds"`
	// Steps is the Euler steps one sweep advances (1 for classic
	// schedules, K for temporal ones); StepSeconds is Seconds/Steps,
	// the cross-K ranking metric. MCellsPerSec counts cell-updates, so
	// it is per-step too.
	Steps        int     `json:"steps"`
	StepSeconds  float64 `json:"step_seconds"`
	MCellsPerSec float64 `json:"mcells_per_sec"`
}

type autotuneResult struct {
	Source   string    `json:"source"` // "measured" or "cache"
	BoxN     int       `json:"box_n"`
	NumBoxes int       `json:"num_boxes"`
	Threads  int       `json:"threads"`
	Reps     int       `json:"reps"`
	Results  []tuneRow `json:"results"` // fastest first
}

func (s *server) handleAutotune(w http.ResponseWriter, r *http.Request) {
	req := autotuneRequest{NumBoxes: 1, Reps: 3}
	if !decodeJSON(w, r, &req) {
		return
	}
	p := stencilsched.Problem{BoxN: req.BoxN, NumBoxes: req.NumBoxes, Threads: req.Threads}
	if err := p.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Reps < 1 {
		httpError(w, http.StatusBadRequest, "reps %d invalid: must be >= 1", req.Reps)
		return
	}
	// Resolve the candidate set up front: it is part of the cache key,
	// and a bad name or a tile larger than the box must 400 here, not
	// fail a queued job.
	cands, err := stencilsched.TuneCandidates(p, req.Candidates)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	key := s.tuneKey(p, req.Reps, cands)
	if s.cache != nil {
		var cached []tuneRow
		if ok, err := s.cache.Get(key, &cached); err == nil && ok {
			s.cacheHits.Inc()
			writeJSON(w, http.StatusOK, autotuneResult{
				Source: "cache", BoxN: p.BoxN, NumBoxes: p.NumBoxes,
				Threads: p.Threads, Reps: req.Reps, Results: cached,
			})
			return
		}
	}
	s.cacheMisses.Inc()
	s.submit(w, r, "autotune", p.Threads, func(ctx context.Context) (any, error) {
		results, err := stencilsched.Autotune(ctx, p, req.Reps, cands)
		if err != nil {
			return nil, err
		}
		// Fastest per Euler step first: a temporal sweep doing K steps is
		// comparable to a single-step schedule only after normalization.
		rows := make([]tuneRow, len(results))
		for i, t := range results {
			rows[i] = tuneRow{Variant: t.Schedule.Name, Seconds: t.Seconds,
				Steps: t.Schedule.Steps(), StepSeconds: t.StepSeconds, MCellsPerSec: t.MCellsPerSec}
		}
		if s.cache != nil {
			if err := s.cache.Put(key, rows); err != nil {
				// A broken cache must not fail a finished measurement.
				s.reg.Counter("stencilserved_tunecache_put_errors_total",
					"failed cache writes").Inc()
			}
		}
		return autotuneResult{
			Source: "measured", BoxN: p.BoxN, NumBoxes: p.NumBoxes,
			Threads: p.Threads, Reps: req.Reps, Results: rows,
		}, nil
	})
}

// tuneKeySchema versions the cached-row semantics. v4: every candidate
// is one schedule handle measured by one loop, and generated rows whose
// tile exceeds the box are no longer measured on a clamped tile; v3
// entries may hold such rows and must miss, not be replayed. (v3 added
// the spectral backends, v2 the temporal-K axis — steps, step_seconds —
// over v1's sweep-time ranking.)
const tuneKeySchema = "schema=4"

// tuneKey builds the cache key: schema version + host fingerprint +
// problem + reps + the exact candidate set (order-insensitive). Every
// candidate is labeled with its name and the contract the name alone
// does not fix — the steps one sweep advances and the backend — so a
// schedule that becomes temporal or spectral under an existing name
// changes the key, and widening the candidate set in any axis (new tile
// families, new K points) always does.
func (s *server) tuneKey(p stencilsched.Problem, reps int, cands []stencilsched.Schedule) string {
	names := make([]string, 0, len(cands))
	for _, sc := range cands {
		names = append(names, fmt.Sprintf("schedule=%s k=%d spectral=%t", sc.Name, sc.TemporalK, sc.Spectral))
	}
	sort.Strings(names)
	parts := append([]string{
		tuneKeySchema,
		tunecache.Fingerprint(),
		fmt.Sprintf("boxn=%d boxes=%d threads=%d reps=%d", p.BoxN, p.NumBoxes, p.Threads, reps),
	}, names...)
	return tunecache.Key(parts...)
}

// ---- POST /v1/conformance ----------------------------------------------

type conformanceRequest struct {
	Seed       int64  `json:"seed"`
	BoxCases   int    `json:"box_cases"`   // per runner; 0 = default
	LevelCases int    `json:"level_cases"` // per runner; 0 = default, -1 = skip
	DistCases  int    `json:"dist_cases"`  // multi-rank cases per runner; 0 = default, -1 = skip
	MaxULP     uint64 `json:"max_ulp"`
}

// maxConformCases bounds a requested sweep so one request cannot park a
// worker for hours; repeated sweeps with different seeds cover more.
const maxConformCases = 100

// handleConformance queues a differential + metamorphic conformance
// sweep over every registered schedule (see internal/conform) — the
// deployed node's self-check after autotune or an upgrade. Results
// surface on the job and as stencilserved_conform_* metrics.
func (s *server) handleConformance(w http.ResponseWriter, r *http.Request) {
	var req conformanceRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.BoxCases < 0 || req.BoxCases > maxConformCases {
		httpError(w, http.StatusBadRequest, "box_cases %d out of range (0..%d)", req.BoxCases, maxConformCases)
		return
	}
	if req.LevelCases < -1 || req.LevelCases > maxConformCases {
		httpError(w, http.StatusBadRequest, "level_cases %d out of range (-1..%d)", req.LevelCases, maxConformCases)
		return
	}
	if req.DistCases < -1 || req.DistCases > maxConformCases {
		httpError(w, http.StatusBadRequest, "dist_cases %d out of range (-1..%d)", req.DistCases, maxConformCases)
		return
	}
	req2 := req
	s.submit(w, r, "conformance", conform.MaxThreads, func(ctx context.Context) (any, error) {
		rep, err := stencilsched.Conformance(ctx, stencilsched.ConformanceConfig{
			Seed:       req2.Seed,
			BoxCases:   req2.BoxCases,
			LevelCases: req2.LevelCases,
			DistCases:  req2.DistCases,
			MaxULP:     req2.MaxULP,
		})
		if err != nil {
			return nil, err
		}
		s.conformSweeps.Inc()
		s.conformChecks.Add(uint64(rep.Checks))
		s.conformDivergences.Add(uint64(len(rep.Divergences)))
		s.conformLastDiverg.Set(float64(len(rep.Divergences)))
		return rep, nil
	})
}

// ---- POST /v1/model ----------------------------------------------------

type modelRequest struct {
	Machine   string `json:"machine"`
	Variant   string `json:"variant"`
	BoxN      int    `json:"box_n"`
	NumBoxes  int    `json:"num_boxes"`
	Threads   int    `json:"threads"`
	NUMAAware bool   `json:"numa_aware"`
}

type modelResult struct {
	Machine    string  `json:"machine"`
	Variant    string  `json:"variant"`
	BoxN       int     `json:"box_n"`
	NumBoxes   int     `json:"num_boxes"`
	Threads    int     `json:"threads"`
	TotalSec   float64 `json:"total_sec"`
	ComputeSec float64 `json:"compute_sec"`
	MemorySec  float64 `json:"memory_sec"`
	RegionSec  float64 `json:"region_sec"`
	Speedup    float64 `json:"speedup"`
	BWGBs      float64 `json:"bw_gbs"`
	Fits       bool    `json:"cache_fit"`
}

func (s *server) handleModel(w http.ResponseWriter, r *http.Request) {
	var req modelRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	m, err := stencilsched.MachineByName(req.Machine)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	v, err := stencilsched.ParseVariant(req.Variant)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.BoxN < 4 {
		httpError(w, http.StatusBadRequest, "box_n %d too small (need >= 4)", req.BoxN)
		return
	}
	if req.NumBoxes < 1 {
		req.NumBoxes = perfmodel.PaperNumBoxes(req.BoxN)
		if req.NumBoxes < 1 {
			req.NumBoxes = 1
		}
	}
	if req.Threads < 1 {
		req.Threads = m.Cores()
	}
	b := stencilsched.Model(stencilsched.ModelConfig{
		Machine: m, Variant: v, BoxN: req.BoxN, NumBoxes: req.NumBoxes,
		Threads: req.Threads, NUMAAware: req.NUMAAware,
	})
	writeJSON(w, http.StatusOK, modelResult{
		Machine: m.Name, Variant: v.Name(), BoxN: req.BoxN,
		NumBoxes: req.NumBoxes, Threads: req.Threads,
		TotalSec: b.TotalSec, ComputeSec: b.ComputeSec, MemorySec: b.MemorySec,
		RegionSec: b.RegionSec, Speedup: b.Speedup, BWGBs: b.BWGBs, Fits: b.Fits,
	})
}

// ---- GET /v1/variants --------------------------------------------------

func (s *server) handleVariants(w http.ResponseWriter, r *http.Request) {
	t := &report.Table{
		Title:  "Studied scheduling variants",
		Note:   "see internal/sched for the axes; schedc rows are compiled from internal/schedc schedule descriptions",
		Header: []string{"name", "family", "granularity", "comp loop", "tile", "intra-tile"},
	}
	for _, sc := range stencilsched.Schedules() {
		if sc.Generated || sc.Spectral {
			t.Add(sc.Name, "schedc", "P>=Box", "-", "-", "-")
			continue
		}
		v := sc.Variant
		tile := "-"
		if v.Tiled() {
			sh := v.TileShape()
			tile = fmt.Sprintf("%dx%dx%d", sh[0], sh[1], sh[2])
		}
		intra := "-"
		if v.Family.String() == "OT" {
			intra = v.Intra.String()
		}
		t.Add(v.Name(), v.Family.String(), v.Par.String(), v.Comp.String(), tile, intra)
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = t.Render(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = t.JSON(w)
}

// ---- GET /metrics ------------------------------------------------------

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.queue.Stats()
	s.reg.Gauge("stencilserved_threads_in_use", "thread-budget tokens held by running jobs").Set(float64(st.ThreadsInUse))
	s.reg.Gauge("stencilserved_thread_budget", "total thread-budget tokens").Set(float64(st.ThreadCap))
	sc := scratch.Default.Stats()
	s.reg.Gauge("stencilserved_scratch_arenas", "scratch arenas ever created by the pool").Set(float64(sc.Arenas))
	s.reg.Gauge("stencilserved_scratch_arenas_in_use", "scratch arenas currently checked out").Set(float64(sc.InUse))
	s.reg.Gauge("stencilserved_scratch_bytes_retained", "bytes of temporary storage retained across executions").Set(float64(sc.BytesRetained))
	s.reg.Gauge("stencilserved_scratch_checkout_hits", "arena checkouts served from the free list").Set(float64(sc.Hits))
	s.reg.Gauge("stencilserved_scratch_checkout_misses", "arena checkouts that created a new arena").Set(float64(sc.Misses))
	s.reg.Gauge("stencilserved_scratch_grows", "arena backing-store growths").Set(float64(sc.Grows))
	ds := dist.StatePoolStats()
	s.reg.Gauge("stencilserved_scratch_dist_arenas_in_use", "rank-state arenas held by running distributed solves").Set(float64(ds.InUse))
	s.reg.Gauge("stencilserved_scratch_dist_bytes_retained", "bytes of rank state retained for the next distributed solve").Set(float64(ds.BytesRetained))
	s.writeMetrics(w)
}
