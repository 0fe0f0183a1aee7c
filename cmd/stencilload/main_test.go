package main

import (
	"context"
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

// fakeServe is a minimal stencilserved stand-in: 202s submissions,
// completes each job after a short delay, serves long polls, and can
// inject throttles and synchronous cache answers.
type fakeServe struct {
	mu       sync.Mutex
	jobs     map[string]time.Time // id -> completion time
	next     int
	throttle atomic.Int64 // remaining submissions to 429
	syncHit  bool
	delay    time.Duration
	canceled atomic.Int64
}

func newFakeServe(delay time.Duration) *fakeServe {
	return &fakeServe{jobs: make(map[string]time.Time), delay: delay}
}

func (f *fakeServe) handler() http.Handler {
	mux := http.NewServeMux()
	submit := func(w http.ResponseWriter, r *http.Request) {
		if f.throttle.Load() > 0 {
			f.throttle.Add(-1)
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		if f.syncHit {
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, `{"source":"cache"}`)
			return
		}
		f.mu.Lock()
		f.next++
		id := fmt.Sprintf("job-%d", f.next)
		f.jobs[id] = time.Now().Add(f.delay)
		f.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%q,"status":"pending"}`, id)
	}
	mux.HandleFunc("POST /v1/solve", submit)
	mux.HandleFunc("POST /v1/autotune", submit)
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		doneAt, ok := f.jobs[r.PathValue("id")]
		f.mu.Unlock()
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		// Hold the answer until the job is done or ?wait= passes.
		wait, _ := time.ParseDuration(r.URL.Query().Get("wait"))
		select {
		case <-time.After(min(time.Until(doneAt), wait)):
		case <-r.Context().Done():
			return
		}
		status := "running"
		if time.Now().After(doneAt) {
			status = "done"
		}
		fmt.Fprintf(w, `{"id":%q,"status":%q,"result":{"replacements":1}}`, r.PathValue("id"), status)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		f.canceled.Add(1)
		fmt.Fprintf(w, `{"id":%q,"status":"canceled"}`, r.PathValue("id"))
	})
	return mux
}

func loadOpts(url string) options {
	return options{
		url: url, kind: "solve", duration: 300 * time.Millisecond,
		concurrency: 3, domainN: 8, steps: 2, threads: 1,
		out: &strings.Builder{},
	}
}

func TestLoadRunHappyPath(t *testing.T) {
	f := newFakeServe(10 * time.Millisecond)
	ts := httptest.NewServer(f.handler())
	defer ts.Close()

	o := loadOpts(ts.URL)
	out := &strings.Builder{}
	o.out = out
	tl, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if tl.requests == 0 || tl.errors != 0 {
		t.Fatalf("requests=%d errors=%d, want >0 and 0", tl.requests, tl.errors)
	}
	if tl.rps <= 0 || tl.p50Sec <= 0 || tl.p99Sec < tl.p50Sec {
		t.Fatalf("stats implausible: %+v", tl)
	}
	// The fake reports one replacement per completed job.
	if tl.replacements != tl.requests || tl.syncAnswers != 0 {
		t.Fatalf("replacements=%d sync=%d, want %d and 0", tl.replacements, tl.syncAnswers, tl.requests)
	}
	if want := fmt.Sprintf("solve %s x3 ", ts.URL); !strings.Contains(out.String(), want) ||
		!strings.Contains(out.String(), fmt.Sprintf(" %d ok, 0 errors", tl.requests)) {
		t.Fatalf("summary line %q misdescribes the run", out)
	}
}

func TestLoadCountsThrottlesNotErrors(t *testing.T) {
	f := newFakeServe(5 * time.Millisecond)
	f.throttle.Store(4)
	ts := httptest.NewServer(f.handler())
	defer ts.Close()

	o := loadOpts(ts.URL)
	o.concurrency = 2
	tl, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if tl.throttled != 4 {
		t.Fatalf("throttled=%d, want 4", tl.throttled)
	}
	if tl.errors != 0 {
		t.Fatalf("throttles counted as errors: %+v", tl)
	}
}

func TestLoadSyncAnswers(t *testing.T) {
	f := newFakeServe(0)
	f.syncHit = true
	ts := httptest.NewServer(f.handler())
	defer ts.Close()

	o := loadOpts(ts.URL)
	o.kind = "autotune"
	o.duration = 100 * time.Millisecond
	tl, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if tl.requests == 0 || tl.syncAnswers != tl.requests {
		t.Fatalf("requests=%d sync=%d, want every request answered at submit", tl.requests, tl.syncAnswers)
	}
}

// TestLoadFailsOnDroppedRequest: one failed request makes run fail, the
// exit code the fleet smoke gate reads, and the tally still counts it.
func TestLoadFailsOnDroppedRequest(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()

	o := loadOpts(ts.URL)
	o.concurrency = 1
	o.duration = 50 * time.Millisecond
	tl, err := run(o)
	if err == nil || tl.errors == 0 || tl.requests != 0 {
		t.Fatalf("run over a failing server: %v, %+v; want an error and the failures tallied", err, tl)
	}
}

func TestLoadCancelsInFlightJobAtDeadline(t *testing.T) {
	f := newFakeServe(time.Hour) // jobs never finish
	ts := httptest.NewServer(f.handler())
	defer ts.Close()

	o := loadOpts(ts.URL)
	o.concurrency = 1
	o.duration = 100 * time.Millisecond
	if _, err := run(o); err != nil {
		t.Fatal(err)
	}
	if f.canceled.Load() == 0 {
		t.Fatal("abandoned job was not canceled on the server")
	}
}

func TestLoadRejectsBadOptions(t *testing.T) {
	if _, err := run(options{concurrency: 0}); err == nil {
		t.Fatal("concurrency 0 accepted")
	}
	o := loadOpts("http://127.0.0.1:1")
	o.kind = "nonsense"
	if _, err := run(o); err == nil {
		t.Fatal("bad kind accepted")
	}
}

func TestQuantileExact(t *testing.T) {
	if q := quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := quantile(s, 0.5); q != 5 {
		t.Fatalf("p50 = %v, want 5", q)
	}
	if q := quantile(s, 0.99); q != 10 {
		t.Fatalf("p99 = %v, want 10", q)
	}
	if q := quantile(s, 1); q != 10 {
		t.Fatalf("p100 = %v, want 10", q)
	}
}

// roundTripFunc serves canned responses without a network, so a context
// canceled inside it cannot fail the exchange it is part of.
type roundTripFunc func(*http.Request) *http.Response

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r), nil }

func cannedResponse(code int, body string) *http.Response {
	return &http.Response{StatusCode: code, Header: http.Header{}, Body: io.NopCloser(strings.NewReader(body))}
}

// TestLoadDeadlineDiscardsWholeRequest pins the accounting at the
// deadline: the context expires while the reply that completes a request
// is in flight, so oneRequest returns a success that worker discards.
// Nothing of that request may reach the counters — replacements and sync
// answers are sums over the counted requests only.
func TestLoadDeadlineDiscardsWholeRequest(t *testing.T) {
	const counted = 3
	for _, kind := range []string{"solve", "autotune"} {
		ctx, cancel := context.WithCancel(context.Background())
		completions := 0
		// complete answers with a request's last reply, canceling the
		// context first on the one after the counted ones.
		complete := func(code int, body string) *http.Response {
			if completions++; completions > counted {
				cancel()
			}
			return cannedResponse(code, body)
		}
		hc := &http.Client{Transport: roundTripFunc(func(r *http.Request) *http.Response {
			switch {
			case r.Method == http.MethodPost && kind == "autotune":
				return complete(http.StatusOK, `{"source":"cache"}`)
			case r.Method == http.MethodPost:
				return cannedResponse(http.StatusAccepted, `{"id":"job-1","status":"pending"}`)
			case r.Method == http.MethodGet:
				return complete(http.StatusOK, `{"id":"job-1","status":"done","result":{"replacements":2}}`)
			}
			return cannedResponse(http.StatusOK, `{}`) // the best-effort cancel
		})}
		o := loadOpts("http://load.test")
		o.kind = kind
		st := &loadStats{}
		worker(ctx, o, hc, o.url, 0, st)
		cancel()

		if got := st.requests.Load(); got != counted {
			t.Fatalf("%s: requests=%d, want %d", kind, got, counted)
		}
		wantRepl, wantSync := int64(2*counted), int64(0)
		if kind == "autotune" {
			wantRepl, wantSync = 0, counted
		}
		if got := st.replacements.Load(); got != wantRepl {
			t.Errorf("%s: replacements=%d, want %d (sum over the %d counted requests)", kind, got, wantRepl, counted)
		}
		if got := st.syncAnswers.Load(); got != wantSync {
			t.Errorf("%s: sync answers=%d, want %d", kind, got, wantSync)
		}
		if got := len(st.latencies); got != counted {
			t.Errorf("%s: %d latencies observed, want %d", kind, got, counted)
		}
	}
}

// TestLoadSettlesTerminalAccept: a 202 whose snapshot is already terminal
// is the answer; the client does not look at the job again.
func TestLoadSettlesTerminalAccept(t *testing.T) {
	var looks atomic.Int64
	hc := &http.Client{Transport: roundTripFunc(func(r *http.Request) *http.Response {
		if r.Method == http.MethodGet {
			looks.Add(1)
			return cannedResponse(http.StatusOK, `{"id":"job-1","status":"running"}`)
		}
		return cannedResponse(http.StatusAccepted, `{"id":"job-1","status":"done","result":{"replacements":1}}`)
	})}
	res := oneRequest(context.Background(), hc, "http://load.test", "/v1/solve", "", `{}`)
	if !res.ok || res.replacements != 1 || looks.Load() != 0 {
		t.Fatalf("outcome %+v after %d looks, want ok with 1 replacement and no look", res, looks.Load())
	}
}
