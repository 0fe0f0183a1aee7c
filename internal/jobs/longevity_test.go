package jobs

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestHistoryBounded pins the terminal-job leak: a long-lived queue used
// to retain every finished job forever (q.jobs/q.order only grew).
// Submitting far more jobs than the history cap must leave the listing
// memory-stable at the cap, evicting oldest-first.
func TestHistoryBounded(t *testing.T) {
	q := New(2, 8, 4)
	defer drain(t, q)
	const cap = 10
	q.SetHistoryLimit(cap)

	const total = 5 * cap
	ids := make([]string, 0, total)
	for i := 0; i < total; i++ {
		snap, err := q.Submit("noop", 1, 0, func(ctx context.Context) (any, error) {
			return i, nil
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, snap.ID)
		waitStatus(t, q, snap.ID, StatusDone)
	}

	list := q.List()
	if len(list) != cap {
		t.Fatalf("List retained %d jobs, want history cap %d", len(list), cap)
	}
	// The survivors are exactly the newest cap jobs, still in order.
	for i, snap := range list {
		if want := ids[total-cap+i]; snap.ID != want {
			t.Fatalf("List[%d] = %s, want %s", i, snap.ID, want)
		}
	}
	// Evicted jobs are gone from Get too, not just the listing.
	if _, ok := q.Get(ids[0]); ok {
		t.Fatalf("oldest job %s still retrievable after eviction", ids[0])
	}
	if st := q.Stats(); st.Evicted != total-cap || st.Done != cap {
		t.Fatalf("Stats = %+v, want evicted=%d done=%d", st, total-cap, cap)
	}
}

// TestHistoryNeverEvictsLiveJobs: with the cap at zero, running jobs
// must survive eviction while finished ones vanish.
func TestHistoryNeverEvictsLiveJobs(t *testing.T) {
	q := New(1, 8, 4)
	defer drain(t, q)
	q.SetHistoryLimit(0)

	release := make(chan struct{})
	running, err := q.Submit("hold", 1, 0, func(ctx context.Context) (any, error) {
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, q, running.ID, StatusRunning)

	done, err := q.Submit("noop", 1, 0, func(ctx context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	// The running job holds the single worker, so cancel the pending one
	// to make it terminal, which must evict it immediately (cap 0).
	if _, ok := q.Cancel(done.ID); !ok {
		t.Fatal("cancel pending job")
	}
	if _, ok := q.Get(done.ID); ok {
		t.Fatalf("terminal job retained with history cap 0")
	}
	if _, ok := q.Get(running.ID); !ok {
		t.Fatalf("running job was evicted")
	}
	// Once released and finished, the held job becomes terminal and is
	// evicted too (cap 0).
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := q.Get(running.ID); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job never evicted under history cap 0")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancelWhileRunningIgnoringContextSettlesCanceled pins the settle
// race: a job canceled while running whose fn ignores ctx and returns
// nil used to be marked done (finish checked err == nil before
// j.canceled). The client canceled it; it must read back canceled.
func TestCancelWhileRunningIgnoringContextSettlesCanceled(t *testing.T) {
	q := New(1, 4, 4)
	defer drain(t, q)

	started := make(chan struct{})
	release := make(chan struct{})
	snap, err := q.Submit("stubborn", 1, 0, func(ctx context.Context) (any, error) {
		close(started)
		<-release
		return "finished anyway", nil // deliberately ignores ctx
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, ok := q.Cancel(snap.ID); !ok {
		t.Fatal("cancel running job")
	}
	close(release)

	got := await(t, q, snap.ID)
	if got.Status != StatusCanceled {
		t.Fatalf("job settled as %s, want %s", got.Status, StatusCanceled)
	}
	if got.Result != nil {
		t.Fatalf("canceled job leaked a result: %v", got.Result)
	}
	if got.Error == "" {
		t.Fatal("canceled job has no error string")
	}
}

// TestCancelWhileRunningWithError still reports canceled (not failed)
// and keeps the underlying error text.
func TestCancelWhileRunningWithError(t *testing.T) {
	q := New(1, 4, 4)
	defer drain(t, q)

	started := make(chan struct{})
	snap, err := q.Submit("obedient", 1, 0, func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	q.Cancel(snap.ID)
	got := await(t, q, snap.ID)
	if got.Status != StatusCanceled {
		t.Fatalf("job settled as %s, want %s", got.Status, StatusCanceled)
	}
}

// TestTenantLimit: a tenant at its quota is refused with ErrTenantLimit
// while other tenants still get through, and finishing a job frees the
// slot.
func TestTenantLimit(t *testing.T) {
	q := New(4, 16, 8)
	defer drain(t, q)
	q.SetTenantLimit(2)

	release := make(chan struct{})
	hold := func(ctx context.Context) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
	var first Snapshot
	for i := 0; i < 2; i++ {
		snap, err := q.SubmitTagged("hold", Tag{Tenant: "alice"}, 1, 0, hold)
		if err != nil {
			t.Fatalf("submit %d for alice: %v", i, err)
		}
		if i == 0 {
			first = snap
		}
		if snap.Tenant != "alice" {
			t.Fatalf("snapshot tenant = %q, want alice", snap.Tenant)
		}
	}
	if _, err := q.SubmitTagged("hold", Tag{Tenant: "alice"}, 1, 0, hold); !errors.Is(err, ErrTenantLimit) {
		t.Fatalf("third alice submit = %v, want ErrTenantLimit", err)
	}
	if _, err := q.SubmitTagged("hold", Tag{Tenant: "bob"}, 1, 0, hold); err != nil {
		t.Fatalf("bob blocked by alice's quota: %v", err)
	}
	if n := q.TenantLive("alice"); n != 2 {
		t.Fatalf("TenantLive(alice) = %d, want 2", n)
	}

	// Freeing one slot re-admits the tenant.
	q.Cancel(first.ID)
	await(t, q, first.ID)
	if _, err := q.SubmitTagged("hold", Tag{Tenant: "alice"}, 1, 0, hold); err != nil {
		t.Fatalf("alice still blocked after a job settled: %v", err)
	}
	close(release)
}

func drain(t *testing.T, q *Queue) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := q.Drain(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
}

func waitStatus(t *testing.T, q *Queue, id string, want Status) Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap, ok := q.Get(id)
		if ok && snap.Status == want {
			return snap
		}
		if !ok && want.Terminal() {
			// Terminal and already evicted counts as settled.
			return Snapshot{ID: id, Status: want}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s (last: %+v, exists=%v)", id, want, snap, ok)
		}
		time.Sleep(time.Millisecond)
	}
}
