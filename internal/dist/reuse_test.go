package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/layout"
	"stencilsched/internal/scratch"
)

// useFreshStatePool points the runtime at an empty pool for the rest of
// the test, so the test sees only its own arenas.
func useFreshStatePool(t *testing.T) {
	old := statePool
	statePool = scratch.NewCappedPool(maxRetainedStateBytes)
	t.Cleanup(func() { statePool = old })
}

// poisonStatePool leaves n arenas of floats values each in the pool,
// every value NaN: a solve that reads rank state it did not write first
// carries the NaN into its result.
func poisonStatePool(n, floats int) {
	ars := make([]*scratch.Arena, n)
	for i := range ars {
		ars[i] = statePool.Checkout()
		for j, buf := 0, ars[i].Floats(floats); j < len(buf); j++ {
			buf[j] = math.NaN()
		}
	}
	for _, a := range ars {
		statePool.Checkin(a)
	}
}

// TestRankStateReuse runs solves on rank state recycled from the pool
// after NaN-poisoning it, so every value the runtime reads before
// writing shows. The state-hash matrix must keep its recorded hashes, a
// solve without an initial condition must stay exactly zero, and a run
// whose rank is killed mid-exchange must hand every arena back.
func TestRankStateReuse(t *testing.T) {
	useFreshStatePool(t)
	// Two arenas, one per rank, each larger than a rank of the matrix
	// (16^3 in 8^3 boxes at halo 4) reserves, so none grows past its
	// poisoned storage.
	const arenas, floats = 2, 1 << 19
	poison := func() { poisonStatePool(arenas, floats) }

	checkStateHashes(t, poison)

	t.Run("zero-init", func(t *testing.T) {
		for _, periodic := range [][3]bool{{true, true, true}, {true, true, false}} {
			poison()
			l := testLayout(t, 16, 8, periodic)
			res, err := RunLoopback(context.Background(), Config{
				Layout: l, Ranks: 2, Variant: mustVariant(t, "Baseline-CLO: P>=Box"),
				HaloK: 2, Steps: 3, Dt: testDt, Threads: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			nonzero := 0
			for i, b := range l.Boxes {
				b.ForEach(func(p ivect.IntVect) {
					for c := 0; c < res.Fabs[i].NComp(); c++ {
						if v := res.Fabs[i].Get(p, c); v != 0 {
							nonzero++
						}
					}
				})
			}
			res.Release()
			if nonzero > 0 {
				t.Errorf("periodic %v: %d values are not zero", periodic, nonzero)
			}
		}
	})

	t.Run("kill-mid-exchange", func(t *testing.T) {
		poison()
		cfg := faultConfig(t, 4)
		plan, err := cfg.Plan()
		if err != nil {
			t.Fatal(err)
		}
		hub := NewHub(len(plan.Ranks), 2*plan.MaxRecvs()+8, plan.MaxFrameValues)
		defer hub.Close()
		const victim = 2
		var once sync.Once
		hub.SetFault(func(from, to int, f *Frame) error {
			if from == victim && f.Type == TypeData && f.Step >= 1 {
				once.Do(func() { hub.Kill(victim) })
				return fmt.Errorf("rank %d killed by fault injector: %w", victim, ErrPeerDown)
			}
			return nil
		})
		if _, err := RunLoopbackHub(context.Background(), cfg, plan, hub); err == nil {
			t.Fatal("expected failure after killing a rank")
		}
		if st := statePool.Stats(); st.InUse != 0 {
			t.Fatalf("%d rank-state arenas still checked out after the failed run", st.InUse)
		}
	})

	t.Run("fail-after-peers-finish", func(t *testing.T) {
		// The victim fails in its last superstep once every other rank
		// has entered its last sub-step, after which nothing can stop
		// them: the run fails while three ranks hold finished results.
		cfg := faultConfig(t, 4)
		const victim, last = 3, 2
		var mu sync.Mutex
		entered := 0
		peersDone := make(chan struct{})
		cfg.Hook = func(rank, super int, phase string) error {
			if super != last || phase != "substep" {
				return nil
			}
			if rank != victim {
				mu.Lock()
				if entered++; entered == 2*(cfg.Ranks-1) {
					close(peersDone)
				}
				mu.Unlock()
				return nil
			}
			select {
			case <-peersDone:
			case <-time.After(5 * time.Second):
			}
			return errors.New("injected fault after the peers finished")
		}
		if _, err := RunLoopback(context.Background(), cfg); err == nil {
			t.Fatal("expected the injected failure")
		}
		if st := statePool.Stats(); st.InUse != 0 {
			t.Fatalf("%d rank-state arenas still checked out after the failed run", st.InUse)
		}
	})

	// Every solve above ran on recycled arenas: the pool built only the
	// poisoned ones, and the kill run's four ranks two more.
	if st := statePool.Stats(); st.Misses != arenas+2 || st.InUse != 0 {
		t.Fatalf("pool built %d arenas (want %d) and lends %d (want 0)", st.Misses, arenas+2, st.InUse)
	}
}

// watchFuture wraps a transport and closes future the first time Recv
// returns a frame of superstep 1 or later.
type watchFuture struct {
	Transport
	future chan struct{}
	once   sync.Once
}

func (w *watchFuture) Recv(ctx context.Context) (Frame, error) {
	f, err := w.Transport.Recv(ctx)
	if err == nil && f.Step >= 1 {
		w.once.Do(func() { close(w.future) })
	}
	return f, err
}

// TestDistParkedFrames forces a rank to park a frame from a neighbour
// that is a superstep ahead: three ranks stacked in z behind walls, and
// the top rank's superstep-0 frames to the middle rank held back until
// the middle rank has received a superstep-1 frame from the bottom rank.
// That frame arrives while the middle rank still waits for superstep 0,
// so the runner must park it, and the decode buffer the loopback reuses
// is overwritten by the frames received after it. The result must equal
// the single-rank run bit for bit.
func TestDistParkedFrames(t *testing.T) {
	domain := box.NewSized(ivect.Zero, ivect.New(8, 8, 24))
	l, err := layout.Decompose(domain, 8, [3]bool{true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	field := fab.PointRows(testField(7))
	cfg := Config{
		Layout: l, Ranks: 3, Assign: []int{0, 1, 2}, Variant: mustVariant(t, "Baseline-CLO: P>=Box"),
		HaloK: 1, Steps: 4, Dt: testDt, Threads: 1, Init: field, ExchangeTimeout: 5 * time.Second,
	}
	plan, err := cfg.Plan()
	if err != nil {
		t.Fatal(err)
	}
	const middle, top = 1, 2
	hub := NewHub(len(plan.Ranks), 2*plan.MaxRecvs()+8, plan.MaxFrameValues)
	defer hub.Close()
	watch := &watchFuture{Transport: hub.Transport(middle), future: make(chan struct{})}
	hub.SetFault(func(from, to int, f *Frame) error {
		if from != top || to != middle || f.Step != 0 {
			return nil
		}
		select {
		case <-watch.future:
			return nil
		case <-time.After(5 * time.Second):
			return errors.New("the middle rank never received a frame from a later superstep")
		}
	})

	results := make([]*RankResult, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for r := range results {
		tr := hub.Transport(r)
		if r == middle {
			tr = watch
		}
		wg.Add(1)
		go func(r int, tr Transport) {
			defer wg.Done()
			results[r], errs[r] = RunRank(context.Background(), cfg, plan, tr)
		}(r, tr)
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		t.Fatal(err)
	}
	select {
	case <-watch.future:
	default:
		t.Fatal("no frame was parked")
	}
	multi := make([]*fab.FAB, l.NumBoxes())
	for _, rr := range results {
		for i, bi := range rr.Boxes {
			multi[bi] = rr.Fabs[i]
		}
	}

	single := cfg
	single.Ranks, single.Assign = 1, nil
	sres, err := RunLoopback(context.Background(), single)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultHash(l, multi), resultHash(l, sres.Fabs); got != want {
		t.Fatalf("three ranks with a parked frame hash %#016x, one rank %#016x", got, want)
	}
	sres.Release()
	for _, rr := range results {
		rr.Release()
	}
}
