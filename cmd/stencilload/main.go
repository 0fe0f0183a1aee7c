// Command stencilload drives a stencilserved node — standalone or fleet
// coordinator — with sustained solve or autotune traffic and reports
// throughput and latency percentiles. It exists to answer the question
// the fleet work raises: what does the service actually sustain, and
// what does a client see at the tail?
//
// Each worker submits a request, long-polls the job (GET
// /v1/jobs/{id}?wait=) until the server answers it terminal, and
// immediately submits the next one, so -concurrency is the number of
// in-flight requests, not an arrival rate. Distinct workers use
// distinct problem bodies, so a coordinator spreads them across its
// ring. 429 (tenant quota) and 503 (queue full) answers count as
// throttled, back off, and retry — they are the service working as
// designed, not errors.
//
// The run ends with one summary line — requests, errors, throttles,
// fleet re-placements, synchronous answers, throughput and latency
// percentiles — and exits non-zero if any request failed.
//
// Usage:
//
//	stencilload -url http://127.0.0.1:8754 -duration 10s -concurrency 8
//	stencilload -url http://127.0.0.1:8754 -kind autotune -tenants 4
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// options maps one to one onto the flag set; tests drive run directly.
type options struct {
	url         string
	kind        string // solve | autotune
	duration    time.Duration
	concurrency int
	tenants     int // distinct X-Tenant values (0 = anonymous)
	domainN     int
	steps       int
	threads     int
	out         io.Writer
}

func main() {
	var o options
	flag.StringVar(&o.url, "url", "http://127.0.0.1:8754", "stencilserved base URL")
	flag.StringVar(&o.kind, "kind", "solve", "request kind: solve or autotune")
	flag.DurationVar(&o.duration, "duration", 10*time.Second, "load duration")
	flag.IntVar(&o.concurrency, "concurrency", 4, "in-flight requests")
	flag.IntVar(&o.tenants, "tenants", 0, "distinct X-Tenant values (0 = anonymous)")
	flag.IntVar(&o.domainN, "n", 16, "solve domain edge")
	flag.IntVar(&o.steps, "steps", 50, "solve time steps")
	flag.IntVar(&o.threads, "threads", 1, "threads requested per job")
	flag.Parse()
	o.out = os.Stdout
	if _, err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "stencilload:", err)
		os.Exit(1)
	}
}

// tally is what one load run counted: the summary line prints it and
// run returns it.
type tally struct {
	requests, errors, throttled, replacements, syncAnswers int64
	rps, p50Sec, p99Sec                                    float64
}

// loadStats accumulates across workers.
type loadStats struct {
	mu        sync.Mutex
	latencies []float64

	requests     atomic.Int64
	errors       atomic.Int64
	throttled    atomic.Int64
	replacements atomic.Int64
	syncAnswers  atomic.Int64
}

func (st *loadStats) observe(sec float64) {
	st.mu.Lock()
	st.latencies = append(st.latencies, sec)
	st.mu.Unlock()
}

// quantile returns the exact q-th quantile of the sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func run(o options) (tally, error) {
	if o.concurrency < 1 {
		return tally{}, fmt.Errorf("concurrency %d invalid: must be >= 1", o.concurrency)
	}
	if o.kind != "solve" && o.kind != "autotune" {
		return tally{}, fmt.Errorf("unknown kind %q (solve, autotune)", o.kind)
	}
	base := strings.TrimRight(o.url, "/")
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: o.concurrency}}
	defer hc.CloseIdleConnections()

	st := &loadStats{}
	ctx, cancel := context.WithTimeout(context.Background(), o.duration)
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < o.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker(ctx, o, hc, base, w, st)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	lats := st.latencies // the workers are done
	sort.Float64s(lats)
	tl := tally{
		requests:     st.requests.Load(),
		errors:       st.errors.Load(),
		throttled:    st.throttled.Load(),
		replacements: st.replacements.Load(),
		syncAnswers:  st.syncAnswers.Load(),
		p50Sec:       quantile(lats, 0.50),
		p99Sec:       quantile(lats, 0.99),
	}
	if elapsed > 0 {
		tl.rps = float64(tl.requests) / elapsed
	}
	fmt.Fprintf(o.out, "stencilload: %s %s x%d for %.1fs: %d ok, %d errors, %d throttled, %d replacements, %d sync, %.1f req/s, p50 %.1fms, p99 %.1fms\n",
		o.kind, base, o.concurrency, elapsed, tl.requests, tl.errors, tl.throttled, tl.replacements, tl.syncAnswers,
		tl.rps, tl.p50Sec*1e3, tl.p99Sec*1e3)
	if tl.errors > 0 {
		// A load run that dropped requests must fail loudly: CI gates on
		// the exit code.
		return tl, fmt.Errorf("%d of %d requests failed", tl.errors, tl.errors+tl.requests)
	}
	return tl, nil
}

// worker submits and completes requests until ctx expires. The body is
// unique per worker (the velocity differs), so a fleet coordinator
// spreads the workers across its ring while each worker keeps hitting
// the same peer's warm caches.
func worker(ctx context.Context, o options, hc *http.Client, base string, w int, st *loadStats) {
	tenant := ""
	if o.tenants > 0 {
		tenant = fmt.Sprintf("tenant-%d", w%o.tenants)
	}
	path, body := requestFor(o, w)
	for seq := 0; ; seq++ {
		if ctx.Err() != nil {
			return
		}
		start := time.Now()
		res := oneRequest(ctx, hc, base, path, tenant, body)
		switch {
		case ctx.Err() != nil:
			return // interrupted mid-flight: not a service failure, and none of its tallies count
		case res.throttled:
			st.throttled.Add(1)
			select {
			case <-time.After(100 * time.Millisecond):
			case <-ctx.Done():
				return
			}
		case res.ok:
			st.requests.Add(1)
			st.replacements.Add(res.replacements)
			if res.syncAnswer {
				st.syncAnswers.Add(1)
			}
			st.observe(time.Since(start).Seconds())
		default:
			st.errors.Add(1)
			select { // do not hot-spin against a broken service
			case <-time.After(100 * time.Millisecond):
			case <-ctx.Done():
				return
			}
		}
	}
}

// requestFor builds the per-worker request body.
func requestFor(o options, w int) (path, body string) {
	switch o.kind {
	case "autotune":
		// Repeated identical sweeps per worker: the first measures, the
		// rest exercise the cache path (sync answers through a fleet).
		return "/v1/autotune", fmt.Sprintf(
			`{"box_n":%d,"num_boxes":1,"threads":%d,"reps":1,"candidates":["Shift-Fuse: P>=Box","Baseline: P>=Box"]}`,
			o.domainN, o.threads)
	default:
		return "/v1/solve", fmt.Sprintf(
			`{"domain_n":%d,"box_n":%d,"steps":%d,"integrator":"euler","threads":%d,"dt":0.05,"u":[%d,1,0]}`,
			o.domainN, o.domainN, o.steps, o.threads, 1+w)
	}
}

// jobView is the subset of a job snapshot the client needs.
type jobView struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

// placedResult is the fleet coordinator's result envelope; decoding it
// from a standalone node simply yields zero values.
type placedResult struct {
	Replacements int64 `json:"replacements"`
}

// outcome is what one request cycle returns. The tallies ride with it
// rather than going to the shared counters from inside the cycle: worker
// adds them only for a request it counts, so a request the deadline
// discards leaves no half of itself behind.
type outcome struct {
	ok           bool  // a successful terminal result
	throttled    bool  // a 429/503 shed
	syncAnswer   bool  // answered 200 at submit, no job
	replacements int64 // fleet re-placements the result reports
}

// jobWait is how long one look at a job asks the server to hold its
// answer; the server caps it at its own limit and answers sooner the
// moment the job settles.
const jobWait = 10 * time.Second

// oneRequest drives one submit-wait-complete cycle.
func oneRequest(ctx context.Context, hc *http.Client, base, path, tenant, body string) outcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, strings.NewReader(body))
	if err != nil {
		return outcome{}
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return outcome{}
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if err != nil {
		return outcome{}
	}
	switch resp.StatusCode {
	case http.StatusOK:
		// Synchronous answer: an autotune cache hit, here or on a peer.
		return outcome{ok: true, syncAnswer: true}
	case http.StatusAccepted:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return outcome{throttled: true}
	default:
		return outcome{}
	}
	var j jobView
	if err := json.Unmarshal(data, &j); err != nil || j.ID == "" {
		return outcome{}
	}
	id := j.ID
	for {
		switch j.Status {
		case "done":
			res := outcome{ok: true}
			var pr placedResult
			if json.Unmarshal(j.Result, &pr) == nil {
				res.replacements = pr.Replacements
			}
			return res
		case "failed", "canceled":
			return outcome{}
		}
		if ctx.Err() != nil {
			// Time is up with a job in flight; cancel it best-effort so the
			// server is not left measuring for a departed client.
			dreq, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
			if err == nil {
				if dresp, err := hc.Do(dreq); err == nil {
					dresp.Body.Close()
				}
			}
			return outcome{}
		}
		greq, err := http.NewRequestWithContext(ctx, http.MethodGet,
			base+"/v1/jobs/"+id+"?wait="+jobWait.String(), nil)
		if err != nil {
			return outcome{}
		}
		gresp, err := hc.Do(greq)
		if err != nil {
			if ctx.Err() != nil {
				continue // the loop's deadline check runs the cancel path
			}
			return outcome{}
		}
		gdata, err := io.ReadAll(io.LimitReader(gresp.Body, 1<<20))
		gresp.Body.Close()
		if err != nil || gresp.StatusCode != http.StatusOK {
			return outcome{}
		}
		j = jobView{}
		if err := json.Unmarshal(gdata, &j); err != nil {
			return outcome{}
		}
	}
}
