package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stencilsched/internal/fleet"
)

// swapHandler lets a test "restart" a peer in place: the listener and
// URL survive while the server behind them is replaced, which is how a
// fresh-process restart looks to the coordinator.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	h.ServeHTTP(w, r)
}

func (s *swapHandler) swap(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

type fleetPeer struct {
	name string
	srv  *server
	swap *swapHandler
	ts   *httptest.Server
}

type testFleet struct {
	peers []*fleetPeer
	coord *coordServer
	ts    *httptest.Server // the coordinator's front door
}

func (f *testFleet) peerByName(name string) *fleetPeer {
	for _, p := range f.peers {
		if p.name == name {
			return p
		}
	}
	return nil
}

// newTestFleet stands up n peer servers plus a coordinator placing onto
// them, all loopback HTTP. The coordinator's listener is allocated
// first so the peers can point their cache replicators at it.
func newTestFleet(t *testing.T, n int, ccfg coordConfig) *testFleet {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coordURL := "http://" + ln.Addr().String()

	f := &testFleet{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("peer-%d", i)
		srv, err := newServer(config{
			nodeConfig: nodeConfig{workers: 2, queueDepth: 16, cacheDir: t.TempDir()},
			maxThreads: 4, fleetCache: coordURL,
		})
		if err != nil {
			t.Fatal(err)
		}
		sw := &swapHandler{h: srv}
		p := &fleetPeer{name: name, srv: srv, swap: sw, ts: httptest.NewServer(sw)}
		f.peers = append(f.peers, p)
		ccfg.peers = append(ccfg.peers, fleet.Peer{Name: name, URL: p.ts.URL})
	}
	if ccfg.probeInterval == 0 {
		ccfg.probeInterval = 25 * time.Millisecond
	}
	if ccfg.cacheDir == "" {
		ccfg.cacheDir = t.TempDir()
	}
	cs, err := newCoordinator(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	f.coord = cs
	f.ts = httptest.NewUnstartedServer(cs)
	f.ts.Listener.Close()
	f.ts.Listener = ln
	f.ts.Start()
	t.Cleanup(func() {
		f.ts.Close()
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = cs.drain(dctx)
		for _, p := range f.peers {
			p.ts.Close() // idempotent; kill tests close early
			_ = p.srv.queue.Drain(dctx)
		}
	})
	return f
}

// fleetJob mirrors the snapshot fields fleet tests care about, with the
// result kept raw so each test can decode its own payload.
type fleetJob struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Tenant string          `json:"tenant"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

// doFleet posts raw JSON with an optional tenant header and returns the
// status code and body.
func doFleet(t *testing.T, url, tenant, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(tenantHeader, tenant)
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
	return resp.StatusCode, data
}

// awaitFleetJob long-polls the coordinator until job id settles.
func awaitFleetJob(t *testing.T, base, id string, timeout time.Duration) fleetJob {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var j fleetJob
		if code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id+"?wait=1s", nil, &j); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		switch j.Status {
		case "done", "failed", "canceled":
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after %s", id, j.Status, timeout)
		}
	}
}

// placeSolve submits one solve through the coordinator and drives it to
// completion, returning the placement-annotated result.
func placeSolve(t *testing.T, base, tenant, body string, timeout time.Duration) fleetJobResult {
	t.Helper()
	code, data := doFleet(t, base+"/v1/solve", tenant, body)
	if code != http.StatusAccepted {
		t.Fatalf("solve not accepted: status %d: %s", code, data)
	}
	var snap fleetJob
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("bad 202 body %q: %v", data, err)
	}
	j := awaitFleetJob(t, base, snap.ID, timeout)
	if j.Status != "done" {
		t.Fatalf("job %s finished %q: %s", snap.ID, j.Status, j.Error)
	}
	var out fleetJobResult
	if err := json.Unmarshal(j.Result, &out); err != nil {
		t.Fatalf("bad fleet result %q: %v", j.Result, err)
	}
	return out
}

// solveBody builds a solve request whose fingerprint is unique per i
// (the velocity differs), so placements spread across the ring.
func solveBody(i, steps int) string {
	return fmt.Sprintf(`{"domain_n":16,"box_n":16,"steps":%d,"integrator":"euler","threads":1,"dt":0.05,"u":[%d,1,0]}`,
		steps, 1+i)
}

// TestFleetPlacementEndToEnd: distinct problems spread across the fleet
// by consistent hash, and a repeated problem returns to the same peer —
// the cache-affinity property the ring exists for.
func TestFleetPlacementEndToEnd(t *testing.T) {
	f := newTestFleet(t, 3, coordConfig{})
	base := f.ts.URL

	peerOf := make(map[string]string)
	used := make(map[string]bool)
	for i := 0; i < 9; i++ {
		body := solveBody(i, 2)
		res := placeSolve(t, base, "", body, 30*time.Second)
		if res.Peer == "" {
			t.Fatalf("request %d: result carries no peer", i)
		}
		peerOf[body] = res.Peer
		used[res.Peer] = true
	}
	// Same problems again: placement must be sticky.
	for body, want := range peerOf {
		res := placeSolve(t, base, "", body, 30*time.Second)
		if res.Peer != want {
			t.Fatalf("repeat of %q placed on %s, first run on %s", body, res.Peer, want)
		}
	}
	if len(used) < 2 {
		t.Errorf("9 distinct problems all landed on one peer: %v", used)
	}
}

// TestFleetSurvivesPeerKill is the acceptance headline: concurrent
// solves through the coordinator, one peer killed mid-run, zero failed
// client requests.
func TestFleetSurvivesPeerKill(t *testing.T) {
	f := newTestFleet(t, 3, coordConfig{})
	base := f.ts.URL

	const clients = 12
	var wg sync.WaitGroup
	var replaced atomic.Int64
	release := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-release
			res := placeSolve(t, base, "", solveBody(i, 400), 60*time.Second)
			replaced.Add(int64(res.Replacements))
		}(i)
	}
	close(release)
	waitUntil(t, "peer 1 holds a job", func() bool {
		st := f.peers[1].srv.queue.Stats()
		return st.Pending+st.Running > 0
	})
	f.peers[1].ts.CloseClientConnections()
	f.peers[1].ts.Close()
	wg.Wait()
	t.Logf("peer kill survived: %d clients ok, %d re-placements", clients, replaced.Load())

	// The fleet status must show the corpse as unhealthy once probed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st fleetStatusResponse
		doJSON(t, http.MethodGet, base+"/v1/fleet", nil, &st)
		down := 0
		for _, p := range st.Peers {
			if !p.Healthy {
				down++
			}
		}
		if down == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("killed peer never marked unhealthy: %+v", st.Peers)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRequestIDFollowsPlacement follows one X-Request-Id from the client
// through the coordinator to the peer: echoed on the coordinator's
// answers, stamped on its placement job, sent on the submit and on every
// long poll the placement makes, and stamped on the peer's job. A request
// without one gets a minted id, echoed and stamped the same way.
func TestRequestIDFollowsPlacement(t *testing.T) {
	f := newTestFleet(t, 2, coordConfig{})
	var mu sync.Mutex
	seen := map[string][]string{} // "submit" / "long poll" -> request ids the peers saw
	for _, p := range f.peers {
		srv := p.srv
		p.swap.swap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			key := ""
			switch {
			case r.Method == http.MethodPost && r.URL.Path == "/v1/solve":
				key = "submit"
			case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") && r.URL.Query().Has("wait"):
				key = "long poll"
			}
			if key != "" {
				mu.Lock()
				seen[key] = append(seen[key], r.Header.Get(requestIDHeader))
				mu.Unlock()
			}
			srv.ServeHTTP(w, r)
		}))
	}

	const id = "req-trace-7"
	req, err := http.NewRequest(http.MethodPost, f.ts.URL+"/v1/solve", strings.NewReader(solveBody(0, 2)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(requestIDHeader, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var accepted struct {
		ID        string `json:"id"`
		RequestID string `json:"request_id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("solve: status %d: %v", resp.StatusCode, err)
	}
	if got := resp.Header.Get(requestIDHeader); got != id || accepted.RequestID != id {
		t.Fatalf("coordinator echoed %q and stamped %q, want %q on both", got, accepted.RequestID, id)
	}
	j := awaitFleetJob(t, f.ts.URL, accepted.ID, 30*time.Second)
	var placed fleetJobResult
	if err := json.Unmarshal(j.Result, &placed); err != nil || j.Status != "done" {
		t.Fatalf("placement %s %s: %v", j.Status, j.Error, err)
	}
	remote, ok := f.peerByName(placed.Peer).srv.queue.Get(placed.RemoteID)
	if !ok || remote.RequestID != id {
		t.Fatalf("peer %s job %s carries request id %q, want %q", placed.Peer, placed.RemoteID, remote.RequestID, id)
	}
	mu.Lock()
	for _, key := range []string{"submit", "long poll"} {
		if len(seen[key]) == 0 {
			t.Errorf("no %s reached a peer", key)
		}
		for _, got := range seen[key] {
			if got != id {
				t.Errorf("%s reached the peer with request id %q, want %q", key, got, id)
			}
		}
	}
	mu.Unlock()

	// No id from the client: the coordinator mints one.
	resp, err = http.Post(f.ts.URL+"/v1/solve", "application/json", strings.NewReader(solveBody(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	if minted := resp.Header.Get(requestIDHeader); err != nil || minted == "" || minted == id || accepted.RequestID != minted {
		t.Fatalf("unlabelled request: echoed %q, stamped %q (%v); want one fresh id on both", minted, accepted.RequestID, err)
	}
	awaitFleetJob(t, f.ts.URL, accepted.ID, 30*time.Second)
}

// TestFleetCacheReplicationAcrossRestart exercises the full replication
// loop: a peer measures an autotune, pushes the rows to the coordinator,
// loses its local cache in a "restart", and then answers the repeated
// request synchronously by reading through the coordinator — no
// re-measurement.
func TestFleetCacheReplicationAcrossRestart(t *testing.T) {
	f := newTestFleet(t, 3, coordConfig{})
	base := f.ts.URL
	body := `{"box_n":8,"num_boxes":1,"threads":1,"reps":1,"candidates":["Shift-Fuse: P>=Box"]}`

	// First pass: a measured sweep on whichever peer the ring picks.
	code, data := doFleet(t, base+"/v1/autotune", "", body)
	if code != http.StatusAccepted {
		t.Fatalf("first autotune: status %d: %s", code, data)
	}
	var snap fleetJob
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	j := awaitFleetJob(t, base, snap.ID, 60*time.Second)
	if j.Status != "done" {
		t.Fatalf("autotune finished %q: %s", j.Status, j.Error)
	}
	var placed fleetJobResult
	if err := json.Unmarshal(j.Result, &placed); err != nil {
		t.Fatal(err)
	}
	var first autotuneResult
	if err := json.Unmarshal(placed.Result, &first); err != nil {
		t.Fatal(err)
	}
	if first.Source != "measured" {
		t.Fatalf("first sweep source = %q, want measured", first.Source)
	}
	// The measuring peer must have pushed the rows up to the authority.
	if n := f.coord.cache.Len(); n != 1 {
		t.Fatalf("coordinator cache holds %d entries after the measured sweep, want 1", n)
	}

	// "Restart" the measuring peer: same URL, empty local cache.
	p := f.peerByName(placed.Peer)
	if p == nil {
		t.Fatalf("unknown measuring peer %q", placed.Peer)
	}
	fresh, err := newServer(config{
		nodeConfig: nodeConfig{workers: 2, queueDepth: 16, cacheDir: t.TempDir()},
		maxThreads: 4, fleetCache: base,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.swap.swap(fresh)

	// Second pass: same placement (same fingerprint), local miss, fleet
	// hit — relayed synchronously as a cache answer.
	code, data = doFleet(t, base+"/v1/autotune", "", body)
	if code != http.StatusOK {
		t.Fatalf("post-restart autotune: status %d, want 200 sync: %s", code, data)
	}
	var second autotuneResult
	if err := json.Unmarshal(data, &second); err != nil {
		t.Fatal(err)
	}
	if second.Source != "cache" {
		t.Fatalf("post-restart source = %q, want cache (read-through replication)", second.Source)
	}
	if len(second.Results) != len(first.Results) {
		t.Fatalf("replicated rows differ: %d vs %d", len(second.Results), len(first.Results))
	}
}

// TestFleetTenantQuota: per-tenant admission control at the coordinator
// front door — one tenant saturating its quota gets 429 while another
// tenant still gets through.
func TestFleetTenantQuota(t *testing.T) {
	f := newTestFleet(t, 3, coordConfig{nodeConfig: nodeConfig{tenantQuota: 1}})
	base := f.ts.URL

	code, data := doFleet(t, base+"/v1/solve", "acme", solveBody(0, 2000))
	if code != http.StatusAccepted {
		t.Fatalf("first acme solve: status %d: %s", code, data)
	}
	code, data = doFleet(t, base+"/v1/solve", "acme", solveBody(1, 2000))
	if code != http.StatusTooManyRequests {
		t.Fatalf("second acme solve: status %d, want 429: %s", code, data)
	}
	code, data = doFleet(t, base+"/v1/solve", "globex", solveBody(2, 2))
	if code != http.StatusAccepted {
		t.Fatalf("globex solve: status %d, want 202: %s", code, data)
	}
}

// TestFleetRelaysValidationErrors: a peer's 4xx rejection comes back
// synchronously through the coordinator, not as a failed async job.
func TestFleetRelaysValidationErrors(t *testing.T) {
	f := newTestFleet(t, 3, coordConfig{})
	code, data := doFleet(t, f.ts.URL+"/v1/solve", "", `{"domain_n":2,"threads":1}`)
	if code != http.StatusBadRequest {
		t.Fatalf("invalid solve: status %d, want 400: %s", code, data)
	}
	var er errorResponse
	if err := json.Unmarshal(data, &er); err != nil || er.Error == "" {
		t.Fatalf("relayed 400 body not an error JSON: %q", data)
	}
}

// TestFleetStatusAndMetrics: /v1/fleet reports peers and latency
// percentiles, /metrics carries the per-peer series.
func TestFleetStatusAndMetrics(t *testing.T) {
	f := newTestFleet(t, 3, coordConfig{})
	base := f.ts.URL
	for i := 0; i < 3; i++ {
		placeSolve(t, base, "", solveBody(i, 2), 30*time.Second)
	}
	var st fleetStatusResponse
	if code := doJSON(t, http.MethodGet, base+"/v1/fleet", nil, &st); code != http.StatusOK {
		t.Fatalf("GET /v1/fleet: status %d", code)
	}
	if len(st.Peers) != 3 {
		t.Fatalf("fleet reports %d peers, want 3", len(st.Peers))
	}
	for _, p := range st.Peers {
		if !p.Healthy {
			t.Errorf("peer %s unhealthy in a live fleet: %s", p.Name, p.LastError)
		}
	}
	if st.Requests.Placements < 3 {
		t.Errorf("placements = %d, want >= 3", st.Requests.Placements)
	}
	if st.Requests.LatencyCount < 3 || st.Requests.LatencyP50 <= 0 || st.Requests.LatencyP99 < st.Requests.LatencyP50 {
		t.Errorf("latency stats implausible: %+v", st.Requests)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"stencilserved_fleet_placements_total",
		"stencilserved_fleet_peer_healthy",
		"stencilserved_fleet_job_seconds_count",
		"stencilserved_fleet_place_attempts_bucket",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

func TestParsePeers(t *testing.T) {
	got, err := parsePeers("a=http://h1:1, b=http://h2:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "a" || got[1].URL != "http://h2:2" {
		t.Fatalf("parsePeers = %+v", got)
	}
	for _, bad := range []string{"", "nourl", "=http://h", "a=", ","} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("parsePeers(%q) accepted", bad)
		}
	}
}
