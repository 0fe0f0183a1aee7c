package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// await waits until the job settles, failing the test after 10 s.
func await(t *testing.T, q *Queue, id string) Snapshot {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s, ok := q.Wait(ctx, id)
	if !ok || !s.Status.Terminal() {
		t.Fatalf("job %s never settled (known=%t, last: %+v)", id, ok, s)
	}
	return s
}

func TestLifecycleDone(t *testing.T) {
	q := New(2, 8, 4)
	defer q.Drain(context.Background())
	s, err := q.Submit("solve", 2, 0, func(ctx context.Context) (any, error) {
		return map[string]int{"answer": 42}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != StatusPending || s.ID == "" {
		t.Fatalf("bad submit snapshot %+v", s)
	}
	got := await(t, q, s.ID)
	if got.Status != StatusDone {
		t.Fatalf("status = %s, want done (%s)", got.Status, got.Error)
	}
	if got.Result.(map[string]int)["answer"] != 42 {
		t.Fatalf("result = %+v", got.Result)
	}
	if got.Started == nil || got.Finished == nil {
		t.Fatalf("missing timestamps: %+v", got)
	}
}

func TestLifecycleFailedAndPanic(t *testing.T) {
	q := New(1, 4, 1)
	defer q.Drain(context.Background())
	s1, _ := q.Submit("bad", 1, 0, func(ctx context.Context) (any, error) {
		return nil, errors.New("boom")
	})
	s2, _ := q.Submit("panic", 1, 0, func(ctx context.Context) (any, error) {
		panic("kaboom")
	})
	if got := await(t, q, s1.ID); got.Status != StatusFailed || got.Error != "boom" {
		t.Fatalf("failed job: %+v", got)
	}
	got := await(t, q, s2.ID)
	if got.Status != StatusFailed || got.Error == "" {
		t.Fatalf("panicked job: %+v", got)
	}
}

func TestCancelPendingJob(t *testing.T) {
	q := New(1, 8, 1)
	defer q.Drain(context.Background())
	release := make(chan struct{})
	blocker, _ := q.Submit("block", 1, 0, func(ctx context.Context) (any, error) {
		<-release
		return nil, nil
	})
	victim, _ := q.Submit("victim", 1, 0, func(ctx context.Context) (any, error) {
		return "ran", nil
	})
	// The single worker is blocked, so the victim is still pending and
	// must cancel immediately.
	s, ok := q.Cancel(victim.ID)
	if !ok || s.Status != StatusCanceled {
		t.Fatalf("cancel pending: ok=%v %+v", ok, s)
	}
	close(release)
	if got := await(t, q, blocker.ID); got.Status != StatusDone {
		t.Fatalf("blocker: %+v", got)
	}
	// The worker must skip the canceled job, not run it.
	if got, _ := q.Get(victim.ID); got.Status != StatusCanceled || got.Result != nil {
		t.Fatalf("victim ran after cancel: %+v", got)
	}
}

func TestCancelRunningJob(t *testing.T) {
	q := New(1, 4, 1)
	defer q.Drain(context.Background())
	started := make(chan struct{})
	s, _ := q.Submit("long", 1, 0, func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	<-started
	if _, ok := q.Cancel(s.ID); !ok {
		t.Fatal("cancel reported job missing")
	}
	if got := await(t, q, s.ID); got.Status != StatusCanceled {
		t.Fatalf("status = %s, want canceled", got.Status)
	}
	if _, ok := q.Cancel("no-such-job"); ok {
		t.Fatal("cancel of unknown job reported ok")
	}
}

func TestTimeout(t *testing.T) {
	q := New(1, 4, 1)
	defer q.Drain(context.Background())
	s, _ := q.Submit("slow", 1, 20*time.Millisecond, func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	got := await(t, q, s.ID)
	if got.Status != StatusFailed {
		t.Fatalf("status = %s, want failed (timeout)", got.Status)
	}
}

func TestQueueFull(t *testing.T) {
	q := New(1, 1, 1)
	defer q.Drain(context.Background())
	release := make(chan struct{})
	defer close(release)
	block := func(ctx context.Context) (any, error) { <-release; return nil, nil }
	started := make(chan struct{})
	if _, err := q.Submit("a", 1, 0, func(ctx context.Context) (any, error) {
		close(started)
		return block(ctx)
	}); err != nil {
		t.Fatal(err)
	}
	// Once the worker runs job a, b fills the one-slot buffer.
	<-started
	if _, err := q.Submit("b", 1, 0, block); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit("c", 1, 0, block); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

func TestThreadBudgetBoundsConcurrency(t *testing.T) {
	// 4 workers but a 2-thread budget and 2-thread jobs: at most one job
	// may hold tokens at a time.
	q := New(4, 32, 2)
	defer q.Drain(context.Background())
	var cur, peak atomic.Int64
	var ids []string
	for i := 0; i < 8; i++ {
		s, err := q.Submit("wide", 2, 0, func(ctx context.Context) (any, error) {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			cur.Add(-1)
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID)
	}
	for _, id := range ids {
		if got := await(t, q, id); got.Status != StatusDone {
			t.Fatalf("job %s: %+v", id, got)
		}
	}
	if p := peak.Load(); p != 1 {
		t.Fatalf("peak concurrent 2-thread jobs = %d, want 1 under a 2-thread budget", p)
	}
}

func TestThreadRequestClampedToBudget(t *testing.T) {
	q := New(1, 4, 2)
	defer q.Drain(context.Background())
	// A job asking for more threads than the budget still runs.
	s, _ := q.Submit("huge", 64, 0, func(ctx context.Context) (any, error) { return nil, nil })
	if s.Threads != 2 {
		t.Fatalf("threads = %d, want clamped to 2", s.Threads)
	}
	if got := await(t, q, s.ID); got.Status != StatusDone {
		t.Fatalf("clamped job: %+v", got)
	}
}

func TestDrainFinishesRunningCancelsPending(t *testing.T) {
	q := New(1, 8, 1)
	release := make(chan struct{})
	started := make(chan struct{})
	running, _ := q.Submit("running", 1, 0, func(ctx context.Context) (any, error) {
		close(started)
		<-release
		return "finished", nil
	})
	pending, _ := q.Submit("pending", 1, 0, func(ctx context.Context) (any, error) {
		return "ran", nil
	})
	<-started
	// Release the running job only once Drain has begun: it sets
	// draining and cancels the pending job under one hold of q.mu.
	go func() {
		for {
			q.mu.Lock()
			draining := q.draining
			q.mu.Unlock()
			if draining {
				close(release)
				return
			}
			runtime.Gosched()
		}
	}()
	if err := q.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got, _ := q.Get(running.ID); got.Status != StatusDone || got.Result != "finished" {
		t.Fatalf("running job after drain: %+v", got)
	}
	if got, _ := q.Get(pending.ID); got.Status != StatusCanceled {
		t.Fatalf("pending job after drain: %+v", got)
	}
	if _, err := q.Submit("late", 1, 0, func(ctx context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: %v, want ErrDraining", err)
	}
	// Idempotent.
	if err := q.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	q := New(1, 4, 1)
	started := make(chan struct{})
	s, _ := q.Submit("straggler", 1, 0, func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done() // honors cancellation, but never finishes on its own
		return nil, ctx.Err()
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := q.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v, want deadline exceeded", err)
	}
	if got, _ := q.Get(s.ID); !got.Status.Terminal() {
		t.Fatalf("straggler not settled after forced drain: %+v", got)
	}
}

func TestStress(t *testing.T) {
	// Hammer the queue from many goroutines with mixed submit / cancel /
	// status traffic; -race is the real assertion.
	q := New(4, 256, 8)
	var wg sync.WaitGroup
	var ids sync.Map
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				s, err := q.Submit(fmt.Sprintf("g%d", g), 1+i%4, 0, func(ctx context.Context) (any, error) {
					select {
					case <-ctx.Done():
						return nil, ctx.Err()
					case <-time.After(time.Duration(i%3) * time.Millisecond):
						return i, nil
					}
				})
				if errors.Is(err, ErrQueueFull) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				ids.Store(s.ID, true)
				if i%5 == 0 {
					q.Cancel(s.ID)
				}
				q.Get(s.ID)
				q.Stats()
			}
		}(g)
	}
	wg.Wait()
	if err := q.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ids.Range(func(k, v any) bool {
		s, ok := q.Get(k.(string))
		if !ok || !s.Status.Terminal() {
			t.Errorf("job %v not terminal after drain: %+v", k, s)
		}
		return true
	})
	st := q.Stats()
	if st.Pending != 0 || st.Running != 0 || st.ThreadsInUse != 0 {
		t.Fatalf("leftover work after drain: %+v", st)
	}
}
