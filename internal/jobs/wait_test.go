package jobs

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWait parks waiters on a job, moves the job, and checks what every
// waiter is woken with: the settled snapshot for each way a job settles,
// the live snapshot when the waiter's context ends first, and nothing for
// an id the queue never had.
func TestWait(t *testing.T) {
	cases := []struct {
		name    string
		waiters int           // concurrent waiters (0 means 1)
		expire  time.Duration // waiter context deadline (0 means none)
		// start submits onto q (jobs that block do so on gate, which
		// release opens) and returns the id to wait on and what to do
		// once the waiters are parked.
		start    func(t *testing.T, q *Queue, gate <-chan struct{}, release func()) (id string, act func())
		want     Status // "" for an unknown id
		errMatch string // substring of the settled error, if any
	}{
		{name: "done", want: StatusDone,
			start: func(t *testing.T, q *Queue, gate <-chan struct{}, release func()) (string, func()) {
				return submit(t, q, func(ctx context.Context) (any, error) { <-gate; return 42, nil }), release
			}},
		{name: "failed", want: StatusFailed, errMatch: "boom",
			start: func(t *testing.T, q *Queue, gate <-chan struct{}, release func()) (string, func()) {
				return submit(t, q, func(ctx context.Context) (any, error) { <-gate; return nil, errors.New("boom") }), release
			}},
		{name: "panicked", want: StatusFailed, errMatch: "panicked",
			start: func(t *testing.T, q *Queue, gate <-chan struct{}, release func()) (string, func()) {
				return submit(t, q, func(ctx context.Context) (any, error) { <-gate; panic("kaboom") }), release
			}},
		{name: "canceled while pending", want: StatusCanceled,
			start: func(t *testing.T, q *Queue, gate <-chan struct{}, release func()) (string, func()) {
				submit(t, q, func(ctx context.Context) (any, error) { <-gate; return nil, nil }) // holds the one worker
				id := submit(t, q, func(ctx context.Context) (any, error) { return "ran", nil })
				return id, func() { q.Cancel(id); release() }
			}},
		{name: "canceled while running", want: StatusCanceled,
			start: func(t *testing.T, q *Queue, gate <-chan struct{}, release func()) (string, func()) {
				started := make(chan struct{})
				id := submit(t, q, func(ctx context.Context) (any, error) { close(started); <-ctx.Done(); return nil, ctx.Err() })
				<-started
				return id, func() { q.Cancel(id) }
			}},
		{name: "ctx expiry", expire: 20 * time.Millisecond, want: StatusRunning,
			start: func(t *testing.T, q *Queue, gate <-chan struct{}, release func()) (string, func()) {
				started := make(chan struct{})
				id := submit(t, q, func(ctx context.Context) (any, error) { close(started); <-gate; return nil, nil })
				<-started
				return id, func() {} // the deferred release lets it finish
			}},
		{name: "unknown id",
			start: func(t *testing.T, q *Queue, gate <-chan struct{}, release func()) (string, func()) {
				return "nope-1", func() {}
			}},
		{name: "evicted after settle", want: StatusDone,
			start: func(t *testing.T, q *Queue, gate <-chan struct{}, release func()) (string, func()) {
				q.SetHistoryLimit(0) // the job leaves the history the moment it settles
				return submit(t, q, func(ctx context.Context) (any, error) { <-gate; return 42, nil }), release
			}},
		{name: "200 concurrent waiters on one job", waiters: 200, want: StatusDone,
			start: func(t *testing.T, q *Queue, gate <-chan struct{}, release func()) (string, func()) {
				return submit(t, q, func(ctx context.Context) (any, error) { <-gate; return 42, nil }), release
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q := New(1, 8, 1)
			defer drain(t, q)
			gate := make(chan struct{})
			var once sync.Once
			release := func() { once.Do(func() { close(gate) }) }
			defer release()
			id, act := c.start(t, q, gate, release)
			n := max(c.waiters, 1)
			type answer struct {
				snap Snapshot
				ok   bool
			}
			answers := make(chan answer, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ctx := context.Background()
					if c.expire > 0 {
						var cancel context.CancelFunc
						ctx, cancel = context.WithTimeout(ctx, c.expire)
						defer cancel()
					}
					s, ok := q.Wait(ctx, id)
					answers <- answer{s, ok}
				}()
			}
			if c.want != "" && c.expire == 0 {
				// Act only once every waiter is parked; an unknown id
				// parks none, and an expiring waiter may already be gone.
				waitWaiters(t, q, n)
			}
			act()
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("waiters still parked 5s after the job moved")
			}
			close(answers)
			for a := range answers {
				if c.want == "" {
					if a.ok {
						t.Fatalf("Wait on an unknown id answered %+v", a.snap)
					}
					continue
				}
				if !a.ok || a.snap.ID != id || a.snap.Status != c.want {
					t.Fatalf("Wait = (%+v, %t), want job %s %s", a.snap, a.ok, id, c.want)
				}
				if !strings.Contains(a.snap.Error, c.errMatch) {
					t.Fatalf("error %q, want it to mention %q", a.snap.Error, c.errMatch)
				}
				if c.want == StatusDone && a.snap.Result != 42 {
					t.Fatalf("result %v, want 42", a.snap.Result)
				}
			}
			if c.name == "evicted after settle" {
				if _, ok := q.Get(id); ok {
					t.Fatal("job still in the history: the case did not evict it")
				}
			}
		})
	}
}

func submit(t *testing.T, q *Queue, fn Func) string {
	t.Helper()
	s, err := q.Submit("wait", 1, 0, fn)
	if err != nil {
		t.Fatal(err)
	}
	return s.ID
}

// waitWaiters polls until exactly n callers are parked in q.Wait.
func waitWaiters(t *testing.T, q *Queue, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for q.Stats().Waiters != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters parked after 5s, want %d", q.Stats().Waiters, n)
		}
		time.Sleep(time.Millisecond)
	}
}
