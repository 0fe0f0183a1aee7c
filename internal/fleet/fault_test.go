package fleet

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// checkNoGoroutineLeak mirrors internal/dist's fault suite: the
// goroutine count must return to (near) baseline shortly after the run.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPeerDeathMidPlacementUnderLoad is the headline degradation
// contract: a fleet serving concurrent jobs loses one peer mid-run and
// every client request still completes — re-placed, never dropped — with
// no goroutine leaks. Run under -race in CI.
func TestPeerDeathMidPlacementUnderLoad(t *testing.T) {
	before := runtime.NumGoroutine()
	peers := []*fakePeer{
		newFakePeer("a", 20*time.Millisecond),
		newFakePeer("b", 20*time.Millisecond),
		newFakePeer("c", 20*time.Millisecond),
	}
	c := newTestCoordinator(t, testConfig(peers...))

	const clients = 24
	var (
		wg        sync.WaitGroup
		failures  atomic.Int64
		replaced  atomic.Int64
		succeeded atomic.Int64
	)
	release := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-release
			body := []byte(fmt.Sprintf(`{"domain_n":16,"req":%d}`, i))
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			res, err := c.Execute(ctx, "/v1/solve", body)
			if err != nil {
				t.Errorf("client %d dropped: %v", i, err)
				failures.Add(1)
				return
			}
			succeeded.Add(1)
			replaced.Add(int64(res.Replacements))
			peerOf(t, res) // result must carry a well-formed peer payload
		}(i)
	}
	close(release)
	// Kill peer b while the fleet is mid-flight: once it holds a job,
	// some jobs are queued on it and some are being polled.
	peers[1].awaitJob(t)
	peers[1].kill()
	wg.Wait()
	peers[0].close()
	peers[2].close()

	if failures.Load() != 0 {
		t.Fatalf("%d of %d clients dropped", failures.Load(), clients)
	}
	if succeeded.Load() != clients {
		t.Fatalf("succeeded = %d, want %d", succeeded.Load(), clients)
	}
	t.Logf("kill-mid-run: %d clients ok, %d re-placements", clients, replaced.Load())
	c.Close()
	checkNoGoroutineLeak(t, before)
}

// TestDrainUnderLoad: a peer drains gracefully (503s new submissions,
// cancels its queued jobs) while the fleet is under load. Every client
// request completes, and — because a drain is orderly, unlike a kill —
// each logical request executes to completion exactly once across the
// fleet: canceled-by-drain jobs re-place, finished jobs do not re-run.
func TestDrainUnderLoad(t *testing.T) {
	before := runtime.NumGoroutine()
	peers := []*fakePeer{
		newFakePeer("a", 15*time.Millisecond),
		newFakePeer("b", 15*time.Millisecond),
		newFakePeer("c", 15*time.Millisecond),
	}
	for _, p := range peers {
		defer p.close()
	}
	c := newTestCoordinator(t, testConfig(peers...))

	const clients = 24
	bodies := make([]string, clients)
	var wg sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < clients; i++ {
		bodies[i] = fmt.Sprintf(`{"domain_n":16,"req":%d}`, i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-release
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if _, err := c.Execute(ctx, "/v1/solve", []byte(bodies[i])); err != nil {
				t.Errorf("client %d dropped during drain: %v", i, err)
			}
		}(i)
	}
	close(release)
	peers[0].awaitJob(t)
	peers[0].drain()
	wg.Wait()

	// Exactly-once across the fleet for every request: drain must not
	// drop (0) or double-execute (2) any job.
	for i, body := range bodies {
		total := 0
		for _, p := range peers {
			total += p.completed(body)
		}
		if total != 1 {
			t.Errorf("request %d executed %d times across the fleet, want exactly 1", i, total)
		}
	}
	c.Close()
	for _, p := range peers {
		p.close() // idempotent; before the leak check, not after
	}
	checkNoGoroutineLeak(t, before)
}

// TestSilentPeerIsReplaced: a peer accepts the submission and then never
// answers a look at the job. The look's deadline (twice ProbeTimeout)
// turns the silence into ErrTimeout on the first look: the peer is marked
// down and the job re-placed and finished elsewhere, inside 2*ProbeTimeout
// plus backoff, with no retry against the silent peer and no goroutine
// left behind.
func TestSilentPeerIsReplaced(t *testing.T) {
	before := runtime.NumGoroutine()
	silent := newFakePeer("silent", time.Millisecond)
	silent.silent = true
	good := newFakePeer("good", time.Millisecond)
	cfg := testConfig(silent, good)
	cfg.ProbeInterval = -1 // only placement may mark a peer down here
	c := newTestCoordinator(t, cfg)

	var body []byte
	for i := 0; ; i++ { // a problem the ring places on the silent peer first
		body = []byte(fmt.Sprintf(`{"domain_n":16,"req":%d}`, i))
		if c.PeerName(c.Place(Fingerprint("/v1/solve", body))[0]) == silent.name {
			break
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	res, err := c.Execute(ctx, "/v1/solve", body)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("placement behind a silent peer dropped: %v", err)
	}
	if got := peerOf(t, res); got != good.name || res.Replacements != 1 {
		t.Fatalf("finished on %s after %d re-placements, want %s after 1", got, res.Replacements, good.name)
	}
	if n := silent.looks.Load(); n != 1 {
		t.Fatalf("silent peer got %d looks, want 1 (a timeout re-places, it does not retry)", n)
	}
	if limit := 2*cfg.ProbeTimeout + 200*time.Millisecond + cfg.RetryBackoff; elapsed > limit {
		t.Fatalf("re-placement took %s, want under %s", elapsed, limit)
	}
	for _, st := range c.Peers() {
		if st.Name == silent.name && (st.Healthy || st.Failures != 1) {
			t.Fatalf("silent peer status %+v, want marked down once", st)
		}
	}
	c.Close()
	silent.close()
	good.close()
	checkNoGoroutineLeak(t, before)
}

// TestConcurrentExecuteStress hammers the coordinator from many
// goroutines with mixed outcomes (success, cache answers, client
// errors, job failures) to give the race detector surface area.
func TestConcurrentExecuteStress(t *testing.T) {
	before := runtime.NumGoroutine()
	peers := []*fakePeer{
		newFakePeer("a", 2*time.Millisecond),
		newFakePeer("b", 2*time.Millisecond),
		newFakePeer("c", 2*time.Millisecond),
	}
	for _, p := range peers {
		defer p.close()
	}
	c := newTestCoordinator(t, testConfig(peers...))
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			var body string
			switch i % 4 {
			case 0:
				body = fmt.Sprintf(`{"domain_n":%d}`, 8+i)
			case 1:
				body = `{"cached!":1}`
			case 2:
				body = `{"bad!":1}`
			default:
				body = `{"fail!":1}`
			}
			res, err := c.Execute(ctx, "/v1/solve", []byte(body))
			switch i % 4 {
			case 0, 1:
				if err != nil {
					t.Errorf("client %d: %v", i, err)
				}
				if i%4 == 1 && !res.Sync {
					t.Errorf("client %d: cache answer not synchronous", i)
				}
			default:
				if err == nil {
					t.Errorf("client %d: injected failure succeeded", i)
				}
			}
		}(i)
	}
	wg.Wait()
	c.Close()
	for _, p := range peers {
		p.close()
	}
	checkNoGoroutineLeak(t, before)
}
