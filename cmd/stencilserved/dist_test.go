package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"stencilsched"
	"stencilsched/internal/conform"
	"stencilsched/internal/jobs"
)

// distSolveBody is a valid distributed solve request the tests mutate.
func distSolveBody() map[string]any {
	return map[string]any{
		"variant": "Baseline-CLO: P>=Box", "integrator": "euler",
		"domain_n": 8, "box_n": 4, "steps": 2, "threads": 1,
		"ranks": 4, "halo_k": 2, "dt": 0.2,
	}
}

func TestDistSolveJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, config{})
	var snap jobs.Snapshot
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/solve", distSolveBody(), &snap); code != http.StatusAccepted {
		t.Fatalf("status %d, want 202", code)
	}
	if snap.Kind != "solve-dist" {
		t.Fatalf("job kind %q, want solve-dist", snap.Kind)
	}
	got := awaitJob(t, ts.URL, snap.ID)
	if got.Status != jobs.StatusDone {
		t.Fatalf("dist job ended %s: %s", got.Status, got.Error)
	}
	raw, err := json.Marshal(got.Result)
	if err != nil {
		t.Fatal(err)
	}
	var res distSolveResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("dist result %q: %v", raw, err)
	}
	if res.Ranks != 4 || res.HaloK != 2 || res.Steps != 2 {
		t.Fatalf("result misdescribes the run: %+v", res)
	}
	if res.Messages == 0 || res.Bytes == 0 {
		t.Fatalf("4-rank run reported no traffic: %+v", res)
	}
	if res.RecomputedCells == 0 {
		t.Fatalf("halo_k=2 run reported no recomputation: %+v", res)
	}
	if res.MeasuredStepSec <= 0 || res.PredictedStepSec <= 0 || res.MCellsPerSec <= 0 {
		t.Fatalf("missing measured/predicted accounting: %+v", res)
	}
	if res.OverlapRatio < 0 || res.OverlapRatio > 1 {
		t.Fatalf("overlap ratio %v outside [0,1]", res.OverlapRatio)
	}

	// The run is visible on /metrics: the predicted gauge sits next to
	// the measured one, and the traffic counters moved.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	metrics := string(text)
	for _, want := range []string{
		"stencilserved_dist_solves_total 1",
		"stencilserved_dist_messages_total",
		"stencilserved_dist_bytes_total",
		"stencilserved_dist_retries_total",
		"stencilserved_dist_overlap_ratio",
		"stencilserved_dist_measured_step_seconds",
		"stencilserved_dist_predicted_step_seconds",
		"stencilserved_dist_step_seconds_bucket",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(metrics, "stencilserved_dist_messages_total 0\n") {
		t.Error("dist message counter did not move")
	}
}

func TestDistSolveValidation(t *testing.T) {
	_, ts := newTestServer(t, config{})
	mod := func(f func(map[string]any)) map[string]any {
		b := distSolveBody()
		f(b)
		return b
	}
	cases := []struct {
		name string
		body map[string]any
	}{
		{"default rk4 integrator", mod(func(b map[string]any) { delete(b, "integrator") })},
		{"rk2 integrator", mod(func(b map[string]any) { b["integrator"] = "rk2" })},
		{"negative ranks", mod(func(b map[string]any) { b["ranks"] = -1 })},
		{"more ranks than boxes", mod(func(b map[string]any) { b["ranks"] = 9 })}, // 8^3/4^3 = 8 boxes
		{"halo deeper than domain", mod(func(b map[string]any) { b["halo_k"] = 8 })},
		{"negative halo_k", mod(func(b map[string]any) { b["halo_k"] = -1 })},
	}
	for _, c := range cases {
		var e errorResponse
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/solve", c.body, &e); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, code)
		} else if e.Error == "" {
			t.Errorf("%s: empty error message", c.name)
		}
	}
}

// TestDistSolveCancelReleasesThreads cancels a long distributed run and
// checks the scaled thread grant (ranks x threads) returns to the pool,
// so a follow-up job is not starved by a dead one.
func TestDistSolveCancelReleasesThreads(t *testing.T) {
	s, ts := newTestServer(t, config{nodeConfig: nodeConfig{workers: 1}, maxThreads: 4})
	body := distSolveBody()
	body["steps"] = 1000000
	body["ranks"] = 2
	body["halo_k"] = 1
	var snap jobs.Snapshot
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/solve", body, &snap); code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	// Let the run start so the cancel lands mid-execution, not while
	// still queued (both paths must release the grant either way).
	waitUntil(t, "the dist job runs", func() bool {
		var cur jobs.Snapshot
		doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+snap.ID, nil, &cur)
		return cur.Status == jobs.StatusRunning
	})
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+snap.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("DELETE status %d", code)
	}
	got := awaitJob(t, ts.URL, snap.ID)
	if got.Status != jobs.StatusCanceled {
		t.Fatalf("status = %s, want canceled", got.Status)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.queue.Stats().ThreadsInUse != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("canceled dist job still holds %d threads", s.queue.Stats().ThreadsInUse)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The pool is whole again: a fresh dist job runs to completion.
	var again jobs.Snapshot
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/solve", distSolveBody(), &again); code != http.StatusAccepted {
		t.Fatalf("follow-up submit: status %d", code)
	}
	if done := awaitJob(t, ts.URL, again.ID); done.Status != jobs.StatusDone {
		t.Fatalf("follow-up job ended %s: %s", done.Status, done.Error)
	}
}

// TestConformanceEndpointDist runs a sweep with distributed cases on and
// box/level at their cheapest, checking the dist checks are counted.
// Skipped under the race detector: the full-registry distributed sweep
// (32 variants x oracle/multi/single-rank) overruns the job-poll
// deadline there; internal/conform's TestSweep covers the same cases
// under -race without the HTTP layer.
func TestConformanceEndpointDist(t *testing.T) {
	if raceEnabled {
		t.Skip("full dist sweep too slow under -race; covered by internal/conform")
	}
	_, ts := newTestServer(t, config{maxThreads: conform.MaxThreads})
	var snap jobs.Snapshot
	body := map[string]any{"seed": 7, "box_cases": 1, "level_cases": -1, "dist_cases": 1}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/conformance", body, &snap); code != http.StatusAccepted {
		t.Fatalf("POST /v1/conformance: status %d, want 202", code)
	}
	done := awaitJob(t, ts.URL, snap.ID)
	if done.Status != jobs.StatusDone {
		t.Fatalf("conformance job ended %s: %s", done.Status, done.Error)
	}
	raw, err := json.Marshal(done.Result)
	if err != nil {
		t.Fatal(err)
	}
	var rep stencilsched.ConformanceReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("conformance result %q: %v", raw, err)
	}
	// One box case per registered runner plus one dist case per studied
	// variant (generated and spectral runners have no distributed executor).
	wantChecks := len(conform.Registry()) + len(stencilsched.Variants())
	if rep.Checks != wantChecks {
		t.Fatalf("sweep ran %d checks, want %d: %+v", rep.Checks, wantChecks, rep)
	}
	if rep.DistCases != 1 {
		t.Fatalf("report dist_cases_per_runner = %d, want 1", rep.DistCases)
	}
	if len(rep.Divergences) != 0 {
		t.Fatalf("distributed self-check diverged: %+v", rep.Divergences)
	}
}
