package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakePeer is a minimal in-memory stencilserved: enough of the jobs API
// (submit 202, long-poll, cancel, healthz) for the coordinator to drive,
// with controllable failure behaviors. A job whose body contains "fail!"
// settles failed; "cached!" answers 200 synchronously; "instant!" is
// accepted already done; everything else runs for runFor and settles done. Completions are counted exactly once
// per job, at the moment a poll first observes it done — so tests can
// assert the no-drop / no-double-execution contracts. A silent peer
// accepts submissions but never answers a look at a job.
type fakePeer struct {
	name   string
	runFor time.Duration
	silent bool
	looks  atomic.Int64 // GETs of a job received

	mu          sync.Mutex
	seq         int
	jobs        map[string]*fakeJob
	draining    bool
	completions map[string]int // request body → jobs observed done

	srv *httptest.Server
}

type fakeJob struct {
	id       string
	body     string
	created  time.Time
	canceled bool
	counted  bool
}

func newFakePeer(name string, runFor time.Duration) *fakePeer {
	p := &fakePeer{
		name: name, runFor: runFor,
		jobs:        make(map[string]*fakeJob),
		completions: make(map[string]int),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("POST /v1/solve", p.handleSubmit)
	mux.HandleFunc("POST /v1/autotune", p.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", p.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", p.handleCancel)
	p.srv = httptest.NewServer(mux)
	return p
}

func (p *fakePeer) peer() Peer { return Peer{Name: p.name, URL: p.srv.URL} }
func (p *fakePeer) close()     { p.srv.Close() }
func (p *fakePeer) kill()      { p.srv.CloseClientConnections(); p.srv.Close() }

// awaitJob blocks until the peer holds at least one job, failing the
// test if none arrives within 10 s.
func (p *fakePeer) awaitJob(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		p.mu.Lock()
		n := len(p.jobs)
		p.mu.Unlock()
		if n > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer %s received no job within 10s", p.name)
		}
		time.Sleep(time.Millisecond)
	}
}

func (p *fakePeer) drain() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.draining = true
	for _, j := range p.jobs {
		if !j.canceled && time.Since(j.created) < p.runFor {
			j.canceled = true
		}
	}
}

func (p *fakePeer) completed(body string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.completions[body]
}

func (p *fakePeer) handleSubmit(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	body := string(data)
	if strings.Contains(body, "bad!") {
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"invalid request"}`)
		return
	}
	if strings.Contains(body, "cached!") {
		fmt.Fprintf(w, `{"source":"cache","peer":%q}`, p.name)
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"draining"}`)
		return
	}
	p.seq++
	j := &fakeJob{id: fmt.Sprintf("%s-job-%d", p.name, p.seq), body: body, created: time.Now()}
	p.jobs[j.id] = j
	w.WriteHeader(http.StatusAccepted)
	if strings.Contains(body, "instant!") {
		j.counted = true
		p.completions[body]++
		fmt.Fprintf(w, `{"id":%q,"status":"done","result":{"peer":%q}}`, j.id, p.name)
		return
	}
	fmt.Fprintf(w, `{"id":%q,"status":"pending"}`, j.id)
}

// handleGet answers a look at a job, holding it (as the real node does
// for ?wait=) until the job settles, the wait passes, or the caller
// leaves.
func (p *fakePeer) handleGet(w http.ResponseWriter, r *http.Request) {
	p.looks.Add(1)
	if p.silent {
		<-r.Context().Done()
		return
	}
	wait, _ := time.ParseDuration(r.URL.Query().Get("wait"))
	deadline := time.Now().Add(wait)
	for !p.answer(w, r.PathValue("id"), !time.Now().Before(deadline)) {
		select {
		case <-time.After(time.Millisecond):
		case <-r.Context().Done():
			return
		}
	}
}

// answer writes the job's snapshot if it is unknown, settled, or final
// is set, and reports whether it did.
func (p *fakePeer) answer(w http.ResponseWriter, id string, final bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	if !ok {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"no such job"}`)
		return true
	}
	switch {
	case j.canceled:
		fmt.Fprintf(w, `{"id":%q,"status":"canceled","error":"context canceled"}`, j.id)
	case time.Since(j.created) >= p.runFor:
		if strings.Contains(j.body, "fail!") {
			fmt.Fprintf(w, `{"id":%q,"status":"failed","error":"injected failure"}`, j.id)
			return true
		}
		if !j.counted {
			j.counted = true
			p.completions[j.body]++
		}
		fmt.Fprintf(w, `{"id":%q,"status":"done","result":{"peer":%q}}`, j.id, p.name)
	case final:
		fmt.Fprintf(w, `{"id":%q,"status":"running"}`, j.id)
	default:
		return false
	}
	return true
}

func (p *fakePeer) handleCancel(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[r.PathValue("id")]
	if !ok {
		w.WriteHeader(http.StatusNotFound)
		return
	}
	if time.Since(j.created) < p.runFor {
		j.canceled = true
	}
	fmt.Fprintf(w, `{"id":%q,"status":"canceled"}`, j.id)
}

// testConfig builds a fast-moving coordinator config over the peers.
func testConfig(peers ...*fakePeer) Config {
	ps := make([]Peer, len(peers))
	for i, p := range peers {
		ps[i] = p.peer()
	}
	return Config{
		Peers:         ps,
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  250 * time.Millisecond,
		RetryBackoff:  time.Millisecond,
	}
}

func newTestCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Close)
	return c
}

func peerOf(t *testing.T, res ExecResult) string {
	t.Helper()
	var out struct {
		Peer string `json:"peer"`
	}
	if err := json.Unmarshal(res.Result, &out); err != nil {
		t.Fatalf("result %s: %v", res.Result, err)
	}
	return out.Peer
}

// TestPlacementAffinity: repeats of one body land on one peer; distinct
// bodies spread over several.
func TestPlacementAffinity(t *testing.T) {
	peers := []*fakePeer{newFakePeer("a", time.Millisecond), newFakePeer("b", time.Millisecond), newFakePeer("c", time.Millisecond)}
	for _, p := range peers {
		defer p.close()
	}
	c := newTestCoordinator(t, testConfig(peers...))

	ctx := context.Background()
	first := ""
	for i := 0; i < 5; i++ {
		res, err := c.Execute(ctx, "/v1/solve", []byte(`{"domain_n":16}`))
		if err != nil {
			t.Fatal(err)
		}
		got := peerOf(t, res)
		if first == "" {
			first = got
		} else if got != first {
			t.Fatalf("repeat %d placed on %s, first on %s: affinity broken", i, got, first)
		}
	}
	owners := map[string]bool{}
	for i := 0; i < 24; i++ {
		res, err := c.Execute(ctx, "/v1/solve", []byte(fmt.Sprintf(`{"domain_n":%d}`, 8+i)))
		if err != nil {
			t.Fatal(err)
		}
		owners[peerOf(t, res)] = true
	}
	if len(owners) < 2 {
		t.Fatalf("24 distinct problems all placed on one peer: %v", owners)
	}
}

// TestSynchronousCacheAnswer: a 200 from the peer (its tunecache hit)
// comes straight back without a job.
func TestSynchronousCacheAnswer(t *testing.T) {
	p := newFakePeer("solo", time.Millisecond)
	defer p.close()
	c := newTestCoordinator(t, testConfig(p))
	res, err := c.Execute(context.Background(), "/v1/autotune", []byte(`{"cached!":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sync || res.RemoteID != "" {
		t.Fatalf("cache answer not synchronous: %+v", res)
	}
	var out struct {
		Source string `json:"source"`
	}
	if err := json.Unmarshal(res.Result, &out); err != nil || out.Source != "cache" {
		t.Fatalf("result %s, want source=cache", res.Result)
	}
}

// TestSettledAcceptCostsNoLook: a 202 whose snapshot is already done is
// classified like any later snapshot — the placement finishes with its
// result and never looks at the job again.
func TestSettledAcceptCostsNoLook(t *testing.T) {
	p := newFakePeer("solo", time.Hour)
	defer p.close()
	c := newTestCoordinator(t, testConfig(p))
	res, err := c.Execute(context.Background(), "/v1/solve", []byte(`{"instant!":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sync || res.RemoteID == "" || peerOf(t, res) != "solo" {
		t.Fatalf("settled accept: %+v, want the job's own result", res)
	}
	if n := p.looks.Load(); n != 0 {
		t.Fatalf("%d looks at a job accepted already done, want 0", n)
	}
}

// TestClientErrorIsPermanent: a 400 must come back as *RequestError
// after exactly one attempt — re-placing a bad request on every peer in
// turn would just multiply the rejection.
func TestClientErrorIsPermanent(t *testing.T) {
	peers := []*fakePeer{newFakePeer("a", time.Millisecond), newFakePeer("b", time.Millisecond)}
	for _, p := range peers {
		defer p.close()
	}
	c := newTestCoordinator(t, testConfig(peers...))
	res, err := c.Execute(context.Background(), "/v1/solve", []byte(`{"bad!":1}`))
	var reqErr *RequestError
	if !errors.As(err, &reqErr) {
		t.Fatalf("err = %v, want *RequestError", err)
	}
	if reqErr.Status != http.StatusBadRequest {
		t.Fatalf("relayed status = %d, want 400", reqErr.Status)
	}
	if res.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (client errors must not re-place)", res.Attempts)
	}
}

// TestRemoteJobFailureIsPermanent: a job that runs and fails on a live
// peer is the job's own failure — typed *RemoteJobError, no re-run.
func TestRemoteJobFailureIsPermanent(t *testing.T) {
	peers := []*fakePeer{newFakePeer("a", time.Millisecond), newFakePeer("b", time.Millisecond)}
	for _, p := range peers {
		defer p.close()
	}
	c := newTestCoordinator(t, testConfig(peers...))
	res, err := c.Execute(context.Background(), "/v1/solve", []byte(`{"fail!":1}`))
	var jobErr *RemoteJobError
	if !errors.As(err, &jobErr) {
		t.Fatalf("err = %v, want *RemoteJobError", err)
	}
	if res.Replacements != 0 {
		t.Fatalf("failed job was re-placed %d times; failures are permanent", res.Replacements)
	}
}

// TestDeadPeerFallsBack: with the ring owner down at submit time, the
// job lands on the next candidate and the error never reaches the
// client.
func TestDeadPeerFallsBack(t *testing.T) {
	peers := []*fakePeer{newFakePeer("a", time.Millisecond), newFakePeer("b", time.Millisecond), newFakePeer("c", time.Millisecond)}
	c := newTestCoordinator(t, testConfig(peers...))

	body := []byte(`{"domain_n":16,"steps":2}`)
	res, err := c.Execute(context.Background(), "/v1/solve", body)
	if err != nil {
		t.Fatal(err)
	}
	owner := peerOf(t, res)
	var victim *fakePeer
	for _, p := range peers {
		if p.name == owner {
			victim = p
		} else {
			defer p.close()
		}
	}
	victim.kill()

	res, err = c.Execute(context.Background(), "/v1/solve", body)
	if err != nil {
		t.Fatalf("execute with owner down: %v", err)
	}
	if got := peerOf(t, res); got == owner {
		t.Fatalf("placed on dead peer %s", got)
	}
	if res.Attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2 (owner tried and skipped)", res.Attempts)
	}
	// Once probes notice the death, placement should skip it outright.
	deadline := time.Now().Add(5 * time.Second)
	for {
		sts := c.Peers()
		down := false
		for _, st := range sts {
			if st.Name == owner && !st.Healthy {
				down = true
			}
		}
		if down {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("prober never marked the killed peer unhealthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
	res, err = c.Execute(context.Background(), "/v1/solve", body)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 1 {
		t.Fatalf("attempts = %d after health marked down, want 1 (skip the corpse)", res.Attempts)
	}
}

// TestAllPeersDown: the error is typed all the way through — errors.Is
// sees the same ErrPeerDown the rank mesh uses.
func TestAllPeersDown(t *testing.T) {
	p := newFakePeer("gone", time.Millisecond)
	cfg := testConfig(p)
	cfg.ProbeInterval = -1 // keep the optimistic state: force live attempts
	p.kill()
	c := newTestCoordinator(t, cfg)
	_, err := c.Execute(context.Background(), "/v1/solve", []byte(`{}`))
	if err == nil {
		t.Fatal("execute against a dead fleet succeeded")
	}
	if !errors.Is(err, ErrPeerDown) {
		t.Fatalf("err = %v, want errors.Is ErrPeerDown", err)
	}
	var perr *PeerError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *PeerError in the chain", err)
	}
}

// TestExecuteHonorsContext: canceling the caller's context ends the
// placement promptly and cancels the remote job best-effort.
func TestExecuteHonorsContext(t *testing.T) {
	p := newFakePeer("slow", time.Hour) // never finishes on its own
	defer p.close()
	c := newTestCoordinator(t, testConfig(p))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Cancel once the coordinator is looking at the peer's job, so
		// the abandon knows which remote job to cancel.
		defer cancel()
		for deadline := time.Now().Add(10 * time.Second); p.looks.Load() == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}()
	_, err := c.Execute(ctx, "/v1/solve", []byte(`{"domain_n":16}`))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The abandoned remote job must have been canceled on the peer.
	deadline := time.Now().Add(2 * time.Second)
	for {
		p.mu.Lock()
		n, canceled := len(p.jobs), 0
		for _, j := range p.jobs {
			if j.canceled {
				canceled++
			}
		}
		p.mu.Unlock()
		if n > 0 && canceled == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("remote job not canceled after abandon (%d/%d)", canceled, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
