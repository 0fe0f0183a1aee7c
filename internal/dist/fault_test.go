package dist

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"stencilsched/internal/fab"
)

func faultConfig(t *testing.T, ranks int) Config {
	return Config{
		Layout:          testLayout(t, 8, 4, [3]bool{true, true, true}),
		Ranks:           ranks,
		Variant:         mustVariant(t, "Baseline-CLO: P>=Box"),
		HaloK:           2,
		Steps:           6,
		Dt:              testDt,
		Threads:         1,
		Init:            fab.PointRows(testField(11)),
		ExchangeTimeout: 500 * time.Millisecond,
	}
}

// checkNoGoroutineLeak snapshots the goroutine count and fails the test
// if it has not returned to (near) the baseline shortly after the run.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestKillMidExchange kills a rank while its peers are mid-exchange:
// the coordinator must surface a typed *RankError within the configured
// exchange timeout, and every rank goroutine must exit.
func TestKillMidExchange(t *testing.T) {
	cfg := faultConfig(t, 4)
	plan, err := cfg.Plan()
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	hub := NewHub(len(plan.Ranks), 2*plan.MaxRecvs()+8, plan.MaxFrameValues)
	defer hub.Close()
	const victim = 2
	var once sync.Once
	hub.SetFault(func(from, to int, f *Frame) error {
		// At superstep 1, the victim dies instead of sending: its peers
		// are left waiting on ghost frames that never arrive.
		if from == victim && f.Type == TypeData && f.Step >= 1 {
			once.Do(func() { hub.Kill(victim) })
			return fmt.Errorf("rank %d killed by fault injector: %w", victim, ErrPeerDown)
		}
		return nil
	})
	start := time.Now()
	_, err = RunLoopbackHub(context.Background(), cfg, plan, hub)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected failure after killing a rank")
	}
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("error is not a *RankError: %v", err)
	}
	if !errors.Is(err, ErrPeerDown) && !errors.Is(err, ErrTimeout) {
		t.Fatalf("error is neither peer-down nor timeout: %v", err)
	}
	if errors.Is(re.Err, context.Canceled) {
		t.Fatalf("coordinator surfaced a secondary cancellation, not the root cause: %v", err)
	}
	// Detection must happen within the configured timeout (plus
	// scheduling slack), not the 10s default and never a deadlock.
	if elapsed > 5*time.Second {
		t.Fatalf("failure took %v, configured timeout is %v", elapsed, cfg.ExchangeTimeout)
	}
	checkNoGoroutineLeak(t, before)
}

// TestKillMidCompute fails a rank between sub-steps (inside the compute
// phase, no exchange in flight) and checks the typed error carries the
// failing rank.
func TestKillMidCompute(t *testing.T) {
	cfg := faultConfig(t, 4)
	const victim = 1
	injected := errors.New("injected compute fault")
	cfg.Hook = func(rank, super int, phase string) error {
		if rank == victim && super == 1 && phase == "substep" {
			return injected
		}
		return nil
	}
	before := runtime.NumGoroutine()
	start := time.Now()
	_, err := RunLoopback(context.Background(), cfg)
	if err == nil {
		t.Fatal("expected failure from compute fault")
	}
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("error is not a *RankError: %v", err)
	}
	if re.Rank != victim {
		t.Fatalf("RankError blames rank %d, fault was on %d: %v", re.Rank, victim, err)
	}
	if !errors.Is(err, injected) {
		t.Fatalf("injected cause lost: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("failure took %v", elapsed)
	}
	checkNoGoroutineLeak(t, before)
}

// TestSilentDeathTimesOut runs one rank of a two-rank plan with nobody
// on the other end: the recv wait must end in ErrTimeout close to the
// configured ExchangeTimeout, never a hang.
func TestSilentDeathTimesOut(t *testing.T) {
	cfg := faultConfig(t, 2)
	cfg.ExchangeTimeout = 300 * time.Millisecond
	plan, err := cfg.Plan()
	if err != nil {
		t.Fatal(err)
	}
	hub := NewHub(len(plan.Ranks), 2*plan.MaxRecvs()+8, plan.MaxFrameValues)
	defer hub.Close()
	start := time.Now()
	_, err = RunRank(context.Background(), cfg, plan, hub.Transport(0))
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	var re *RankError
	if !errors.As(err, &re) || re.Op != "recv" {
		t.Fatalf("timeout not typed as a recv RankError: %v", err)
	}
	if re.Peer != 1 {
		t.Fatalf("timeout blames peer %d, want 1: %v", re.Peer, err)
	}
	if elapsed < cfg.ExchangeTimeout/2 || elapsed > 10*cfg.ExchangeTimeout+2*time.Second {
		t.Fatalf("timeout fired after %v, configured %v", elapsed, cfg.ExchangeTimeout)
	}
}

// TestDistCancel: a context cancellation mid-run surfaces promptly and
// cleanly (style of internal/jobs/cancel_race_test.go).
func TestDistCancel(t *testing.T) {
	cfg := faultConfig(t, 4)
	cfg.Steps = 200 // long enough that cancellation lands mid-run
	release := make(chan struct{})
	var gate sync.Once
	cfg.Hook = func(rank, super int, phase string) error {
		if super >= 2 {
			gate.Do(func() { close(release) })
		}
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-release
		cancel()
	}()
	before := runtime.NumGoroutine()
	_, err := RunLoopback(ctx, cfg)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if !errors.Is(err, context.Canceled) && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrTimeout) {
		t.Fatalf("unexpected cancellation surface: %v", err)
	}
	checkNoGoroutineLeak(t, before)
}

// TestDistStressRace hammers concurrent loopback runs, one of which is
// killed and one cancelled, under -race: exercises the exchange
// goroutines, the fault path, and the coordinator teardown racing each
// other.
func TestDistStressRace(t *testing.T) {
	const runs = 6
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := faultConfig(t, 4)
			cfg.Steps = 8
			cfg.Init = fab.PointRows(testField(int64(100 + i)))
			plan, err := cfg.Plan()
			if err != nil {
				t.Error(err)
				return
			}
			hub := NewHub(len(plan.Ranks), 2*plan.MaxRecvs()+8, plan.MaxFrameValues)
			defer hub.Close()
			switch i % 3 {
			case 1: // kill a rank mid-run
				victim := 1 + i%3
				hub.SetFault(func(from, to int, f *Frame) error {
					if from == victim && f.Step >= 2 {
						hub.Kill(victim)
						return ErrPeerDown
					}
					return nil
				})
			case 2: // cancel mid-run
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
				defer cancel()
				_, err := RunLoopbackHub(ctx, cfg, plan, hub)
				if err == nil {
					// The run may legitimately finish before the deadline
					// on a fast machine; that is not a failure.
					return
				}
				return
			}
			res, err := RunLoopbackHub(context.Background(), cfg, plan, hub)
			if i%3 == 1 {
				if err == nil {
					t.Errorf("run %d: expected injected failure", i)
				}
				return
			}
			if err != nil {
				t.Errorf("run %d: %v", i, err)
				return
			}
			if len(res.Fabs) != len(cfg.Layout.Boxes) {
				t.Errorf("run %d: gathered %d boxes, want %d", i, len(res.Fabs), len(cfg.Layout.Boxes))
			}
		}()
	}
	wg.Wait()
}
