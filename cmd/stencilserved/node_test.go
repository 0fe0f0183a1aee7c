package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"stencilsched/internal/fleet"
	"stencilsched/internal/jobs"
)

// startRole stands up one node of the given role sized by nc, served
// over loopback HTTP: a standalone peer, or a coordinator placing onto
// one live peer of its own. nc is taken as given (an empty cacheDir means
// no cache), unlike newTestServer / newTestFleet.
func startRole(t *testing.T, role string, nc nodeConfig) (string, *node) {
	t.Helper()
	var h http.Handler
	var n *node
	var drain func(context.Context) error
	switch role {
	case "peer":
		s, err := newServer(config{nodeConfig: nc, maxThreads: 4})
		if err != nil {
			t.Fatal(err)
		}
		h, n, drain = s, s.node, s.drain
	case "coordinator":
		_, peer := newTestServer(t, config{})
		cs, err := newCoordinator(coordConfig{
			nodeConfig:    nc,
			peers:         []fleet.Peer{{Name: "peer-0", URL: peer.URL}},
			probeInterval: 25 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		h, n, drain = cs, cs.node, cs.drain
	default:
		t.Fatalf("unknown role %q", role)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = drain(ctx)
	})
	return ts.URL, n
}

var bothRoles = []string{"peer", "coordinator"}

// TestRoutesPerRole pins the exact route set of each role: every listed
// pattern is what the mux resolves a matching request to, and the
// per-route series handle registers name no route beyond the list — so
// the shared skeleton can neither add nor lose an endpoint in one role
// unnoticed.
func TestRoutesPerRole(t *testing.T) {
	shared := []string{
		"GET /v1/jobs", "GET /v1/jobs/{id}", "DELETE /v1/jobs/{id}",
		"POST /v1/cache/get", "POST /v1/cache/put",
		"POST /v1/solve", "POST /v1/autotune",
		"GET /metrics", "GET /healthz",
	}
	want := map[string][]string{
		"peer":        append([]string{"POST /v1/conformance", "POST /v1/model", "GET /v1/variants"}, shared...),
		"coordinator": append([]string{"GET /v1/fleet"}, shared...),
	}
	routeLabel := regexp.MustCompile(`stencilserved_request_seconds_count\{route="([^"]+)"\}`)
	for _, role := range bothRoles {
		t.Run(role, func(t *testing.T) {
			_, n := startRole(t, role, nodeConfig{})
			for _, pattern := range want[role] {
				method, path, _ := strings.Cut(pattern, " ")
				req := httptest.NewRequest(method, strings.ReplaceAll(path, "{id}", "solve-1"), nil)
				if _, got := n.mux.Handler(req); got != pattern {
					t.Errorf("%s resolves to %q, want its own pattern", pattern, got)
				}
			}
			var buf bytes.Buffer
			if err := n.reg.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, m := range routeLabel.FindAllStringSubmatch(buf.String(), -1) {
				got = append(got, m[1])
			}
			sort.Strings(got)
			exp := append([]string(nil), want[role]...)
			sort.Strings(exp)
			if strings.Join(got, "\n") != strings.Join(exp, "\n") {
				t.Errorf("registered routes:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(exp, "\n"))
			}
		})
	}
}

// post sends a JSON body under an optional tenant and returns the
// status, the Retry-After header and the decoded error text (if any).
func post(t *testing.T, method, url, tenant string, body any) (code int, retryAfter, errText string, raw []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(tenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var e errorResponse
	_ = json.Unmarshal(buf.Bytes(), &e)
	return resp.StatusCode, resp.Header.Get("Retry-After"), e.Error, buf.Bytes()
}

// occupy parks blocking jobs on n's queue under tenant — one running,
// then pending ones until the queue refuses (all=true), or just the one
// (all=false) — and returns the function that lets them finish.
func occupy(t *testing.T, n *node, tenant string, all bool) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	block := func(ctx context.Context) (any, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-gate
		return nil, nil
	}
	if _, err := n.queue.SubmitTagged("test", jobs.Tag{Tenant: tenant}, 1, 0, block); err != nil {
		t.Fatal(err)
	}
	<-started // the worker holds it: later submissions stay pending
	for all {
		if _, err := n.queue.SubmitTagged("test", jobs.Tag{Tenant: tenant}, 1, 0, block); err == jobs.ErrQueueFull {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	return func() { close(gate) }
}

// TestSharedHandlersBothRoles drives the node skeleton's handlers and
// its admission mapping through a peer and through a coordinator: the
// same request must get the same answer from either role.
func TestSharedHandlersBothRoles(t *testing.T) {
	solve := json.RawMessage(solveBody(0, 1))
	rows := []struct {
		name  string
		nc    func(t *testing.T) nodeConfig
		check func(t *testing.T, base string, n *node)
	}{
		{"unknown job id is a 404 on get and cancel",
			func(t *testing.T) nodeConfig { return nodeConfig{} },
			func(t *testing.T, base string, n *node) {
				for _, method := range []string{http.MethodGet, http.MethodDelete} {
					code, _, msg, _ := post(t, method, base+"/v1/jobs/nope-1", "", nil)
					if code != http.StatusNotFound || !strings.Contains(msg, "nope-1") {
						t.Errorf("%s unknown job: %d %q, want 404 naming the id", method, code, msg)
					}
				}
			}},
		{"a bad ?wait= is a 400, and an unknown id a 404 with or without one",
			func(t *testing.T) nodeConfig { return nodeConfig{} },
			func(t *testing.T, base string, n *node) {
				for _, wait := range []string{"soon", "-1s", "5"} {
					code, _, msg, _ := post(t, http.MethodGet, base+"/v1/jobs/nope-1?wait="+wait, "", nil)
					if code != http.StatusBadRequest || !strings.Contains(msg, "wait") {
						t.Errorf("?wait=%s: %d %q, want 400 naming the parameter", wait, code, msg)
					}
				}
				start := time.Now()
				code, _, msg, _ := post(t, http.MethodGet, base+"/v1/jobs/nope-1?wait=10s", "", nil)
				if code != http.StatusNotFound || !strings.Contains(msg, "nope-1") || time.Since(start) > 5*time.Second {
					t.Errorf("waiting on an unknown job: %d %q after %s, want an immediate 404", code, msg, time.Since(start))
				}
			}},
		{"?wait= answers the moment the job settles, and no later than the wait",
			func(t *testing.T) nodeConfig { return nodeConfig{} },
			func(t *testing.T, base string, n *node) {
				gate := make(chan struct{})
				snap, err := n.queue.Submit("test", 1, 0, func(ctx context.Context) (any, error) { <-gate; return "ok", nil })
				if err != nil {
					t.Fatal(err)
				}
				var got jobs.Snapshot
				start := time.Now()
				if code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+snap.ID+"?wait=50ms", nil, &got); code != http.StatusOK ||
					got.Status.Terminal() || time.Since(start) < 50*time.Millisecond {
					t.Errorf("wait on a live job: %d %s after %s, want 200 and the live snapshot after the wait", code, got.Status, time.Since(start))
				}
				time.AfterFunc(50*time.Millisecond, func() { close(gate) })
				start = time.Now()
				if code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+snap.ID+"?wait=20s", nil, &got); code != http.StatusOK ||
					got.Status != jobs.StatusDone || time.Since(start) > 10*time.Second {
					t.Errorf("wait across completion: %d %s after %s, want 200 done as it settles", code, got.Status, time.Since(start))
				}
			}},
		{"?wait= beyond the cap is clamped to it, not refused",
			func(t *testing.T) nodeConfig { return nodeConfig{} },
			func(t *testing.T, base string, n *node) {
				snap, err := n.queue.Submit("test", 1, 0, func(ctx context.Context) (any, error) { return "ok", nil })
				if err != nil {
					t.Fatal(err)
				}
				var got jobs.Snapshot
				if code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+snap.ID+"?wait=1000h", nil, &got); code != http.StatusOK || got.Status != jobs.StatusDone {
					t.Errorf("?wait=1000h: %d %s, want 200 done", code, got.Status)
				}
				for wait, want := range map[string]time.Duration{"": 0, "0s": 0, "2s": 2 * time.Second, "1000h": maxJobWait} {
					if got, err := jobWait(httptest.NewRequest(http.MethodGet, "/v1/jobs/x?wait="+wait, nil)); err != nil || got != want {
						t.Errorf("jobWait(%q) = %s, %v; want %s", wait, got, err, want)
					}
				}
			}},
		{"cache endpoints 503 without a cache",
			func(t *testing.T) nodeConfig { return nodeConfig{} },
			func(t *testing.T, base string, n *node) {
				for _, op := range []string{"get", "put"} {
					code, _, _, _ := post(t, http.MethodPost, base+"/v1/cache/"+op, "",
						fleet.CachePutRequest{Key: "k", Value: json.RawMessage(`1`)})
					if code != http.StatusServiceUnavailable {
						t.Errorf("cache %s without a cache: %d, want 503", op, code)
					}
				}
			}},
		{"cache endpoints 400 on an empty key",
			func(t *testing.T) nodeConfig { return nodeConfig{cacheDir: t.TempDir()} },
			func(t *testing.T, base string, n *node) {
				if code, _, _, _ := post(t, http.MethodPost, base+"/v1/cache/get", "", fleet.CacheGetRequest{}); code != http.StatusBadRequest {
					t.Errorf("cache get, empty key: %d, want 400", code)
				}
				if code, _, _, _ := post(t, http.MethodPost, base+"/v1/cache/put", "",
					fleet.CachePutRequest{Value: json.RawMessage(`1`)}); code != http.StatusBadRequest {
					t.Errorf("cache put, empty key: %d, want 400", code)
				}
			}},
		{"cache put then get round-trips the value",
			func(t *testing.T) nodeConfig { return nodeConfig{cacheDir: t.TempDir()} },
			func(t *testing.T, base string, n *node) {
				val := json.RawMessage(`{"rows":[1,2,3]}`)
				if code, _, msg, _ := post(t, http.MethodPost, base+"/v1/cache/put", "",
					fleet.CachePutRequest{Key: "k1", Value: val}); code != http.StatusOK {
					t.Fatalf("cache put: %d %q", code, msg)
				}
				for key, found := range map[string]bool{"k1": true, "k2": false} {
					code, _, _, raw := post(t, http.MethodPost, base+"/v1/cache/get", "", fleet.CacheGetRequest{Key: key})
					var got fleet.CacheGetResponse
					if err := json.Unmarshal(raw, &got); err != nil || code != http.StatusOK {
						t.Fatalf("cache get %s: %d %q: %v", key, code, raw, err)
					}
					var have, want bytes.Buffer
					if found {
						_ = json.Compact(&have, got.Value)
						_ = json.Compact(&want, val)
					}
					if got.Found != found || have.String() != want.String() {
						t.Errorf("cache get %s: found=%t value=%s, want found=%t value=%s", key, got.Found, got.Value, found, want.String())
					}
				}
			}},
		{"a full queue sheds with 503 and Retry-After",
			func(t *testing.T) nodeConfig { return nodeConfig{workers: 1, queueDepth: 1} },
			func(t *testing.T, base string, n *node) {
				defer occupy(t, n, "", true)()
				code, retry, msg, _ := post(t, http.MethodPost, base+"/v1/solve", "", solve)
				if code != http.StatusServiceUnavailable || retry == "" {
					t.Errorf("solve on a full queue: %d Retry-After=%q (%s), want 503 with Retry-After", code, retry, msg)
				}
			}},
		{"a tenant at its quota gets 429 and Retry-After, others pass",
			func(t *testing.T) nodeConfig { return nodeConfig{workers: 2, tenantQuota: 1} },
			func(t *testing.T, base string, n *node) {
				defer occupy(t, n, "acme", false)()
				code, retry, msg, _ := post(t, http.MethodPost, base+"/v1/solve", "acme", solve)
				if code != http.StatusTooManyRequests || retry == "" || !strings.Contains(msg, "acme") {
					t.Errorf("solve over quota: %d Retry-After=%q (%s), want 429 with Retry-After naming the tenant", code, retry, msg)
				}
				if code, _, msg, _ := post(t, http.MethodPost, base+"/v1/solve", "globex", solve); code != http.StatusAccepted {
					t.Errorf("another tenant's solve: %d (%s), want 202", code, msg)
				}
			}},
	}
	for _, row := range rows {
		for _, role := range bothRoles {
			t.Run(role+"/"+row.name, func(t *testing.T) {
				base, n := startRole(t, role, row.nc(t))
				row.check(t, base, n)
			})
		}
	}
	// /healthz: one body on both roles, the peer counts only on a
	// coordinator (startRole gives it one peer).
	for _, role := range bothRoles {
		t.Run(role+"/healthz answers one shape", func(t *testing.T) {
			base, _ := startRole(t, role, nodeConfig{cacheDir: t.TempDir()})
			var h map[string]any
			if code := doJSON(t, http.MethodGet, base+"/healthz", nil, &h); code != http.StatusOK {
				t.Fatalf("healthz: %d, want 200", code)
			}
			for _, key := range []string{"status", "role", "uptime_sec", "queue", "cache_entries", "cache_dir"} {
				if _, ok := h[key]; !ok {
					t.Errorf("healthz misses %q: %v", key, h)
				}
			}
			_, hasHealthy := h["peers_healthy"]
			total, hasTotal := h["peers_total"]
			coord := role == "coordinator"
			if h["status"] != "ok" || h["role"] != role || hasHealthy != coord || hasTotal != coord || (coord && total != 1.0) {
				t.Errorf("healthz on a %s: %v", role, h)
			}
		})
	}
}
