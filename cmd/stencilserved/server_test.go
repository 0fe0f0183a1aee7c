package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"testing"
	"time"

	"stencilsched"
	"stencilsched/internal/dist"
	"stencilsched/internal/jobs"
	"stencilsched/internal/scratch"
)

func newTestServer(t *testing.T, cfg config) (*server, *httptest.Server) {
	t.Helper()
	if cfg.workers == 0 {
		cfg.workers = 2
	}
	if cfg.queueDepth == 0 {
		cfg.queueDepth = 16
	}
	if cfg.maxThreads == 0 {
		cfg.maxThreads = 4
	}
	if cfg.cacheDir == "" {
		cfg.cacheDir = t.TempDir()
	}
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.queue.Drain(ctx)
	})
	return s, ts
}

// doJSON posts body (marshaled) and decodes the response into out (when
// non-nil), returning the status code.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

// awaitJob long-polls the job endpoint until the job is terminal.
func awaitJob(t *testing.T, baseURL, id string) jobs.Snapshot {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var snap jobs.Snapshot
		if code := doJSON(t, http.MethodGet, baseURL+"/v1/jobs/"+id+"?wait=10s", nil, &snap); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if snap.Status.Terminal() {
			return snap
		}
	}
	t.Fatalf("job %s never finished", id)
	return jobs.Snapshot{}
}

// waitUntil polls cond until it holds, failing the test naming what it
// waited for if 10 s pass first.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after 10s waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestVariantsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, config{})
	var table struct {
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/variants", nil, &table); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	compiled := 0
	for _, sc := range stencilsched.Schedules() {
		if sc.Generated || sc.Spectral {
			compiled++
		}
	}
	if want := 32 + compiled; len(table.Rows) != want || len(stencilsched.Schedules()) != want {
		t.Fatalf("rows = %d, want the 32 studied variants plus %d compiled schedules",
			len(table.Rows), compiled)
	}
	compiledRows := 0
	for i, row := range table.Rows {
		if row[1] == "schedc" {
			compiledRows++
		} else if i >= 32 {
			t.Fatalf("studied row %q after the first schedc row", row[0])
		}
	}
	if compiledRows != compiled {
		t.Fatalf("schedc rows = %d, want %d", compiledRows, compiled)
	}
	resp, err := http.Get(ts.URL + "/v1/variants?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), "== Studied scheduling variants ==") {
		t.Fatalf("text format missing title:\n%s", text)
	}
}

func TestModelEndpoint(t *testing.T) {
	_, ts := newTestServer(t, config{})
	var res modelResult
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/model",
		map[string]any{"machine": "Magny", "variant": "Baseline: P>=Box", "box_n": 128}, &res)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if res.TotalSec <= 0 || res.Threads < 1 || res.NumBoxes < 1 {
		t.Fatalf("bad model result %+v", res)
	}
	var e errorResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/model",
		map[string]any{"machine": "no-such-machine", "variant": "Baseline: P>=Box", "box_n": 128}, &e); code != http.StatusBadRequest {
		t.Fatalf("bad machine: status %d, want 400", code)
	}
}

func TestSolveJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, config{})
	var snap jobs.Snapshot
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/solve", map[string]any{
		"domain_n": 16, "box_n": 8, "steps": 2, "threads": 2, "dt": 0.2,
	}, &snap)
	if code != http.StatusAccepted {
		t.Fatalf("status %d, want 202", code)
	}
	if snap.Status != jobs.StatusPending || snap.ID == "" {
		t.Fatalf("bad submit snapshot %+v", snap)
	}
	got := awaitJob(t, ts.URL, snap.ID)
	if got.Status != jobs.StatusDone {
		t.Fatalf("job %s: %+v", snap.ID, got)
	}
	res, ok := got.Result.(map[string]any)
	if !ok {
		t.Fatalf("result type %T", got.Result)
	}
	if res["num_boxes"].(float64) != 8 { // 16^3 domain in 8^3 boxes
		t.Fatalf("num_boxes = %v, want 8", res["num_boxes"])
	}
	if res["density_linf"].(float64) > 0.05 {
		t.Fatalf("density error %v implausibly large", res["density_linf"])
	}
	// The job list shows it too.
	var list []jobs.Snapshot
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil, &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("job list: code %d, %d jobs", code, len(list))
	}
}

func TestSolveValidation(t *testing.T) {
	_, ts := newTestServer(t, config{})
	cases := []map[string]any{
		{"domain_n": 16, "steps": 2, "threads": 0},                     // bad threads -> 400, not silent serial
		{"domain_n": 16, "steps": 2, "threads": -2},                    // negative threads
		{"domain_n": 2, "steps": 2, "threads": 1},                      // domain too small
		{"domain_n": 16, "steps": 0, "threads": 1},                     // no steps
		{"domain_n": 16, "steps": 1, "threads": 1, "dt": -1},           // bad dt
		{"domain_n": 16, "steps": 1, "threads": 1, "variant": "bogus"}, // bad variant
		{"domain_n": 16, "steps": 1, "threads": 1, "thread": 4},        // misspelled field
	}
	for _, body := range cases {
		var e errorResponse
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/solve", body, &e); code != http.StatusBadRequest {
			t.Errorf("%v: status %d, want 400", body, code)
		} else if e.Error == "" {
			t.Errorf("%v: empty error message", body)
		}
	}
}

// TestSolveRejectsOverDeepHalo pins the /v1/solve halo_k validation at
// the k ~= n boundary: the per-box deep-halo model is only defined up
// to halo depth == box extent, so deeper requests 400 with a clear
// message instead of producing nonsense predictions, and the deepest
// valid k is accepted.
func TestSolveRejectsOverDeepHalo(t *testing.T) {
	_, ts := newTestServer(t, config{})
	cases := []struct {
		boxN, haloK int
		wantCode    int
	}{
		{boxN: 4, haloK: 2, wantCode: http.StatusAccepted}, // depth 4 == boxN: deepest valid
		{boxN: 4, haloK: 3, wantCode: http.StatusBadRequest},
		{boxN: 8, haloK: 4, wantCode: http.StatusAccepted}, // depth 8 == boxN
		{boxN: 8, haloK: 5, wantCode: http.StatusBadRequest},
	}
	for _, c := range cases {
		body := map[string]any{
			"domain_n": 16, "box_n": c.boxN, "ranks": 2, "integrator": "euler",
			"halo_k": c.haloK, "steps": 1, "threads": 1,
		}
		var raw json.RawMessage
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/solve", body, &raw)
		if code != c.wantCode {
			t.Errorf("box_n=%d halo_k=%d: code %d, want %d", c.boxN, c.haloK, code, c.wantCode)
			continue
		}
		if c.wantCode == http.StatusBadRequest {
			var e errorResponse
			if err := json.Unmarshal(raw, &e); err != nil || !strings.Contains(e.Error, "halo") {
				t.Errorf("box_n=%d halo_k=%d: error %q should mention the halo", c.boxN, c.haloK, e.Error)
			}
		}
	}
}

func TestSolveCancellation(t *testing.T) {
	_, ts := newTestServer(t, config{nodeConfig: nodeConfig{workers: 1}})
	var snap jobs.Snapshot
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/solve", map[string]any{
		"domain_n": 32, "box_n": 16, "steps": 1000000, "threads": 1,
	}, &snap)
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	var canceled jobs.Snapshot
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+snap.ID, nil, &canceled); code != http.StatusOK {
		t.Fatalf("DELETE status %d", code)
	}
	got := awaitJob(t, ts.URL, snap.ID)
	if got.Status != jobs.StatusCanceled {
		t.Fatalf("status = %s, want canceled", got.Status)
	}
}

func TestAutotuneCacheFlow(t *testing.T) {
	_, ts := newTestServer(t, config{})
	body := map[string]any{
		"box_n": 8, "num_boxes": 1, "threads": 2, "reps": 1,
		"candidates": []string{"Baseline: P>=Box", "Shift-Fuse: P>=Box"},
	}
	// First request: cache miss, measured asynchronously.
	var snap jobs.Snapshot
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/autotune", body, &snap); code != http.StatusAccepted {
		t.Fatalf("first autotune: status %d, want 202", code)
	}
	got := awaitJob(t, ts.URL, snap.ID)
	if got.Status != jobs.StatusDone {
		t.Fatalf("autotune job: %+v", got)
	}
	res := got.Result.(map[string]any)
	if res["source"] != "measured" {
		t.Fatalf("first source = %v, want measured", res["source"])
	}
	if n := len(res["results"].([]any)); n != 2 {
		t.Fatalf("results = %d rows, want 2", n)
	}
	// Identical repeat: answered synchronously from the cache.
	var hit autotuneResult
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/autotune", body, &hit); code != http.StatusOK {
		t.Fatalf("repeat autotune: status %d, want 200 (cache hit)", code)
	}
	if hit.Source != "cache" || len(hit.Results) != 2 {
		t.Fatalf("repeat = %+v, want cached 2 rows", hit)
	}
	if hit.Results[0].Seconds > hit.Results[1].Seconds {
		t.Fatalf("cached results not sorted fastest first: %+v", hit.Results)
	}
	// A different candidate order is the same tuning request.
	body["candidates"] = []string{"Shift-Fuse: P>=Box", "Baseline: P>=Box"}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/autotune", body, &hit); code != http.StatusOK || hit.Source != "cache" {
		t.Fatalf("reordered candidates missed the cache: %d %+v", code, hit)
	}
	// The hit is visible on /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsText, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"stencilserved_tunecache_hits_total 2",
		"stencilserved_tunecache_misses_total 1",
		`stencilserved_jobs{status="done"} `,
		"stencilserved_thread_budget 4",
		`stencilserved_responses_total{code="200",route="POST /v1/autotune"} 2`,
	} {
		if !strings.Contains(string(metricsText), want) {
			t.Errorf("/metrics missing %q:\n%s", want, metricsText)
		}
	}
}

func TestAutotuneValidation(t *testing.T) {
	_, ts := newTestServer(t, config{})
	var e errorResponse
	// Threads <= 0 must 400, not run serially.
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/autotune",
		map[string]any{"box_n": 8, "threads": 0}, &e)
	if code != http.StatusBadRequest || !strings.Contains(e.Error, "Threads") {
		t.Fatalf("threads=0: code %d err %q, want 400 mentioning Threads", code, e.Error)
	}
	code = doJSON(t, http.MethodPost, ts.URL+"/v1/autotune",
		map[string]any{"box_n": 8, "threads": 1, "candidates": []string{"not a variant"}}, &e)
	if code != http.StatusBadRequest {
		t.Fatalf("bad candidate: code %d, want 400", code)
	}
}

func TestQueueFullShedsLoad(t *testing.T) {
	_, ts := newTestServer(t, config{nodeConfig: nodeConfig{workers: 1, queueDepth: 1}})
	body := map[string]any{"domain_n": 32, "box_n": 16, "steps": 1000000, "threads": 1}
	codes := make(map[int]int)
	var ids []string
	for i := 0; i < 3; i++ {
		var snap jobs.Snapshot
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/solve", body, &snap)
		codes[code]++
		if snap.ID != "" {
			ids = append(ids, snap.ID)
		}
	}
	if codes[http.StatusServiceUnavailable] == 0 {
		t.Fatalf("no 503 from a full 1-worker/1-slot queue: %v", codes)
	}
	for _, id := range ids { // stop the long jobs
		doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil, nil)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, config{})
	var h healthResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if h.Status != "ok" || h.Queue.Workers != 2 || h.Queue.ThreadCap != 4 {
		t.Fatalf("bad health %+v", h)
	}
}

// TestRunDrainsInFlightJobsOnShutdown exercises the exact code path a
// SIGINT takes in main (signal.NotifyContext cancels run's context): the
// listener closes, queued jobs cancel, and the in-flight job finishes
// before run returns.
func TestRunDrainsInFlightJobsOnShutdown(t *testing.T) {
	s, err := newServer(config{
		nodeConfig: nodeConfig{
			workers: 1, queueDepth: 8,
			cacheDir: t.TempDir(), drainTimeout: 10 * time.Second,
		},
		maxThreads: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrc := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, "127.0.0.1:0", s, func(a net.Addr) { addrc <- a }) }()
	var addr net.Addr
	select {
	case addr = <-addrc:
	case err := <-done:
		t.Fatalf("run exited early: %v", err)
	}
	base := "http://" + addr.String()
	var h healthResponse
	if code := doJSON(t, http.MethodGet, base+"/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("healthz over run's listener: %d", code)
	}
	// One controllable in-flight job, one queued behind it.
	release := make(chan struct{})
	started := make(chan struct{})
	inflight, err := s.queue.Submit("test", 1, 0, func(ctx context.Context) (any, error) {
		close(started)
		<-release
		return "survived the drain", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.queue.Submit("test", 1, 0, func(ctx context.Context) (any, error) {
		return "should never run", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// A long poll on the queued job. Only drain settles that job, and
	// drain runs after the HTTP server has finished its requests, so
	// shutdown itself must end the wait with the job's current snapshot.
	wrote := make(chan struct{})
	polled := make(chan jobs.Snapshot, 1)
	go func() {
		var snap jobs.Snapshot
		defer func() { polled <- snap }()
		trace := &httptrace.ClientTrace{WroteRequest: func(httptrace.WroteRequestInfo) { close(wrote) }}
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace),
			http.MethodGet, base+"/v1/jobs/"+queued.ID+"?wait=30s", nil)
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("long poll across shutdown: %v", err)
			return
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("long poll across shutdown: status %d: %v", resp.StatusCode, err)
		}
	}()
	select {
	case <-wrote:
	case snap := <-polled:
		t.Fatalf("long poll ended before shutdown began: %+v", snap)
	}
	waitUntil(t, "the handler parks on the job", func() bool { return s.queue.Stats().Waiters == 1 })
	shutdown := time.Now()
	cancel() // the SIGINT stand-in
	// Release the in-flight job only once shutdown has ended the long
	// poll and drain has canceled the queued job; released earlier, the
	// worker would start the queued job before drain could cancel it.
	waitUntil(t, "drain cancels the queued job", func() bool {
		got, _ := s.queue.Get(queued.ID)
		return got.Status == jobs.StatusCanceled
	})
	close(release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want clean exit", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after drain")
	}
	if took := time.Since(shutdown); took > 5*time.Second {
		t.Fatalf("run took %s to shut down with a long poll in flight, want well inside its 10s budget", took)
	}
	if snap := <-polled; snap.ID != queued.ID || snap.Status != jobs.StatusPending {
		t.Fatalf("long poll answered %+v at shutdown, want the queued job still pending", snap)
	}
	if got, _ := s.queue.Get(inflight.ID); got.Status != jobs.StatusDone || got.Result != "survived the drain" {
		t.Fatalf("in-flight job after drain: %+v", got)
	}
	if got, _ := s.queue.Get(queued.ID); got.Status != jobs.StatusCanceled {
		t.Fatalf("queued job after drain: %+v", got)
	}
	if _, err := s.queue.Submit("late", 1, 0, func(ctx context.Context) (any, error) { return nil, nil }); err != jobs.ErrDraining {
		t.Fatalf("submit after drain: %v, want ErrDraining", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

func schedulesByName(t *testing.T, names ...string) []stencilsched.Schedule {
	t.Helper()
	out := make([]stencilsched.Schedule, len(names))
	for i, n := range names {
		sc, err := stencilsched.ScheduleByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = sc
	}
	return out
}

func TestTuneKeyStability(t *testing.T) {
	s, _ := newTestServer(t, config{})
	prob := stencilsched.Problem{BoxN: 8, NumBoxes: 1, Threads: 2}
	a := schedulesByName(t, "Baseline: P>=Box", "Shift-Fuse: P>=Box")
	b := schedulesByName(t, "Shift-Fuse: P>=Box", "Baseline: P>=Box")
	if s.tuneKey(prob, 1, a) != s.tuneKey(prob, 1, b) {
		t.Fatal("candidate order changed the cache key")
	}
	if s.tuneKey(prob, 1, a) == s.tuneKey(prob, 2, a) {
		t.Fatal("reps not part of the cache key")
	}
	other := stencilsched.Problem{BoxN: 16, NumBoxes: 1, Threads: 2}
	if s.tuneKey(other, 1, a) == s.tuneKey(prob, 1, a) {
		t.Fatal("problem not part of the cache key")
	}
	if s.tuneKey(prob, 1, stencilsched.Schedules()) == s.tuneKey(prob, 1, a) {
		t.Fatal("compiled candidates not part of the cache key")
	}
}

// TestTuneCacheMissOnWidenedCandidateSet is the regression test for the
// candidate-axis cache-key bug: a result cached for one candidate set
// must not answer a request whose set is wider in any axis — more
// studied variants, more compiled schedules, or a new temporal-K point.
// Each widening must produce a distinct key, and the cache must miss
// under the widened key.
func TestTuneCacheMissOnWidenedCandidateSet(t *testing.T) {
	s, _ := newTestServer(t, config{})
	prob := stencilsched.Problem{BoxN: 8, NumBoxes: 1, Threads: 2}
	vars := schedulesByName(t, "Baseline: P>=Box")
	var classic, temporal []stencilsched.Schedule
	for _, sc := range stencilsched.Schedules() {
		switch {
		case sc.TemporalK > 0:
			temporal = append(temporal, sc)
		case sc.Generated:
			classic = append(classic, sc)
		}
	}
	if len(classic) == 0 || len(temporal) == 0 {
		t.Fatalf("want both classic and temporal compiled schedules, got %d/%d", len(classic), len(temporal))
	}
	with := func(sets ...[]stencilsched.Schedule) string {
		var all []stencilsched.Schedule
		for _, set := range sets {
			all = append(all, set...)
		}
		return s.tuneKey(prob, 1, all)
	}
	narrow := with(vars, classic)
	if err := s.cache.Put(narrow, []tuneRow{{Variant: classic[0].Name, Seconds: 0.01, Steps: 1, StepSeconds: 0.01}}); err != nil {
		t.Fatal(err)
	}
	widenings := map[string]string{
		"one more temporal K point":   with(vars, classic, temporal[:1]),
		"one more studied variant":    with(schedulesByName(t, "Baseline: P>=Box", "Shift-Fuse: P>=Box"), classic),
		"full joint (tile, K) sweep":  with(vars, classic, temporal),
		"same names, variant dropped": with(classic),
	}
	for what, key := range widenings {
		if key == narrow {
			t.Errorf("%s: key unchanged — stale tuning results would be replayed", what)
			continue
		}
		var rows []tuneRow
		if ok, err := s.cache.Get(key, &rows); err != nil || ok {
			t.Errorf("%s: cache Get = (%v, %v), want miss", what, ok, err)
		}
	}
	// The K axis and the backend must be in the key independently of the
	// name: the same schedule name under a different contract is a
	// different measurement.
	deeper, spectral := temporal[0], temporal[0]
	deeper.TemporalK++
	spectral.Spectral = !spectral.Spectral
	for what, probe := range map[string]stencilsched.Schedule{"TemporalK": deeper, "Spectral": spectral} {
		if with(vars, temporal[:1]) == with(vars, []stencilsched.Schedule{probe}) {
			t.Errorf("%s not part of the cache key", what)
		}
	}
}

func TestAutotuneRejectsInfeasibleTileCandidate(t *testing.T) {
	_, ts := newTestServer(t, config{})
	// A candidate whose tile exceeds the 8^3 box must 400 at submit time
	// rather than fail (or be measured on a clamped tile) as a queued
	// job — studied and generated schedules alike.
	for _, c := range []struct{ candidate, edge string }{
		{"Shift-Fuse OT-32: P<Box", "32"},
		{"Temporal K2 OT-32 (generated)", "32"},
	} {
		var e errorResponse
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/autotune",
			map[string]any{"box_n": 8, "threads": 1, "candidates": []string{c.candidate}}, &e)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: code %d, want 400", c.candidate, code)
		}
		if !strings.Contains(e.Error, "infeasible") || !strings.Contains(e.Error, "tile edge "+c.edge) {
			t.Fatalf("%s: unhelpful error: %q", c.candidate, e.Error)
		}
	}
}

func TestAutotuneMixedCompiledCandidates(t *testing.T) {
	_, ts := newTestServer(t, config{})
	// A candidate set naming both a studied variant and a schedc-compiled
	// schedule measures both and merges the rows fastest-first.
	body := map[string]any{
		"box_n": 8, "threads": 1, "reps": 1,
		"candidates": []string{"Baseline: P>=Box", "CodeGen series (generated)"},
	}
	var snap jobs.Snapshot
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/autotune", body, &snap); code != http.StatusAccepted {
		t.Fatalf("mixed autotune: status %d, want 202", code)
	}
	got := awaitJob(t, ts.URL, snap.ID)
	if got.Status != jobs.StatusDone {
		t.Fatalf("mixed autotune job: %+v", got)
	}
	rows := got.Result.(map[string]any)["results"].([]any)
	if len(rows) != 2 {
		t.Fatalf("results = %d rows, want 2", len(rows))
	}
	names := map[string]bool{}
	prev := 0.0
	for _, r := range rows {
		row := r.(map[string]any)
		names[row["variant"].(string)] = true
		sec := row["seconds"].(float64)
		if sec < prev {
			t.Fatalf("rows not sorted fastest first: %v", rows)
		}
		prev = sec
	}
	if !names["Baseline-CLO: P>=Box"] || !names["CodeGen series (generated)"] {
		t.Fatalf("missing candidate rows: %v", names)
	}
	// An unknown name still 400s with the variant parse error.
	var e errorResponse
	body["candidates"] = []string{"CodeGen nonesuch (generated)"}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/autotune", body, &e); code != http.StatusBadRequest {
		t.Fatalf("unknown candidate: code %d, want 400", code)
	}
}

func TestMetricsExposeScratchPool(t *testing.T) {
	_, ts := newTestServer(t, config{})
	// Run one solve and one distributed solve so the scratch pool and
	// the rank-state pool have seen traffic.
	for _, body := range []map[string]any{
		{"domain_n": 8, "variant": "Shift-Fuse: P>=Box", "steps": 1, "threads": 1},
		{"domain_n": 16, "box_n": 8, "ranks": 2, "integrator": "euler", "halo_k": 2, "steps": 2, "threads": 1},
	} {
		var snap jobs.Snapshot
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/solve", body, &snap); code != http.StatusAccepted {
			t.Fatalf("solve submit %v: code %d", body, code)
		}
		if done := awaitJob(t, ts.URL, snap.ID); done.Status != jobs.StatusDone {
			t.Fatalf("job %s ended %s: %s", done.ID, done.Status, done.Error)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"stencilserved_scratch_arenas",
		"stencilserved_scratch_arenas_in_use",
		"stencilserved_scratch_bytes_retained",
		"stencilserved_scratch_checkout_hits",
		"stencilserved_scratch_checkout_misses",
		"stencilserved_scratch_grows",
		"stencilserved_scratch_dist_arenas_in_use",
		"stencilserved_scratch_dist_bytes_retained",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The solve above checked arenas out and in, so the pool must report
	// activity and no leaks.
	st := scratch.Default.Stats()
	if st.Hits+st.Misses == 0 {
		t.Error("scratch pool saw no checkouts during a solve")
	}
	if st.InUse != 0 {
		t.Errorf("%d arenas still checked out after the job finished", st.InUse)
	}
	// The distributed solve released its ranks' state for reuse.
	ds := dist.StatePoolStats()
	if ds.InUse != 0 {
		t.Errorf("%d rank-state arenas still held after the distributed job finished", ds.InUse)
	}
	if ds.BytesRetained == 0 {
		t.Error("rank-state pool retains nothing after a distributed solve")
	}
}
