package scratch

import (
	"sync"
	"testing"

	"stencilsched/internal/box"
	"stencilsched/internal/ivect"
)

func TestFloatsBumpAndReuse(t *testing.T) {
	p := NewPool()
	a := p.Checkout()
	s1 := a.Floats(10)
	s2 := a.Floats(20)
	if len(s1) != 10 || len(s2) != 20 {
		t.Fatalf("lengths %d/%d, want 10/20", len(s1), len(s2))
	}
	s1[9] = 1 // must not overlap s2
	s2[0] = 2
	if s1[9] != 1 {
		t.Fatal("adjacent arena slices overlap")
	}
	// Second cycle runs on warmed backing: same demand, same storage.
	a.Reset()
	w1 := a.Floats(10)
	a.Floats(20)
	a.Reset()
	r1 := a.Floats(10)
	if &r1[0] != &w1[0] {
		t.Fatal("post-Reset allocation did not reuse backing store")
	}
	// Steady state: re-bumping warmed storage must not allocate.
	a.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		a.Reset()
		a.Floats(10)
		a.Floats(20)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Floats allocated %v objects/run, want 0", allocs)
	}
}

func TestFloatsGrowKeepsHandedOutBuffers(t *testing.T) {
	p := NewPool()
	a := p.Checkout()
	s1 := a.Floats(4)
	for i := range s1 {
		s1[i] = float64(i + 1)
	}
	a.Floats(1 << 16) // forces a grow; s1 still points at the old backing
	for i := range s1 {
		if s1[i] != float64(i+1) {
			t.Fatalf("grow corrupted a handed-out buffer at %d", i)
		}
	}
	if st := p.Stats(); st.Grows == 0 || st.BytesRetained == 0 {
		t.Fatalf("grow not accounted: %+v", st)
	}
}

func TestMarkRewind(t *testing.T) {
	a := NewPool().Checkout()
	a.Floats(8)
	m := a.Mark()
	s1 := a.Floats(16)
	a.Rewind(m)
	s2 := a.Floats(16)
	if &s1[0] != &s2[0] {
		t.Fatal("Rewind did not release the post-mark allocation")
	}
}

func TestFABAdoptsArenaStorage(t *testing.T) {
	a := NewPool().Checkout()
	b := box.NewSized(ivect.New(1, 2, 3), ivect.New(4, 5, 6))
	f := a.FAB(b, 2)
	if f.Box() != b || f.NComp() != 2 {
		t.Fatalf("FAB got box %v ncomp %d", f.Box(), f.NComp())
	}
	f.Fill(7)
	a.Reset()
	g := a.FAB(b, 2)
	if g != f {
		t.Fatal("FAB header not recycled after Reset")
	}
	if g.Data()[0] != 7 {
		t.Fatal("arena FAB zeroed its storage; contents should be undefined (reused)")
	}
	allocs := testing.AllocsPerRun(100, func() {
		a.Reset()
		a.FAB(b, 2)
	})
	if allocs != 0 {
		t.Fatalf("steady-state FAB allocated %v objects/run, want 0", allocs)
	}
}

func TestNilArenaFallsBack(t *testing.T) {
	var a *Arena
	s := a.Floats(5)
	if len(s) != 5 {
		t.Fatalf("nil-arena Floats len %d", len(s))
	}
	b := box.Cube(4)
	f := a.FAB(b, 3)
	if f.Box() != b || f.NComp() != 3 {
		t.Fatal("nil-arena FAB wrong shape")
	}
	a.Rewind(a.Mark()) // no-ops
	a.Reset()
	if a.BytesRetained() != 0 {
		t.Fatal("nil arena retains bytes")
	}
}

func TestPoolHitMissCounters(t *testing.T) {
	p := NewPool()
	a := p.Checkout()
	if st := p.Stats(); st.Misses != 1 || st.Hits != 0 || st.Arenas != 1 || st.InUse != 1 {
		t.Fatalf("after cold checkout: %+v", st)
	}
	p.Checkin(a)
	b := p.Checkout()
	if b != a {
		t.Fatal("free list did not return the checked-in arena")
	}
	if st := p.Stats(); st.Hits != 1 || st.Misses != 1 || st.InUse != 1 {
		t.Fatalf("after warm checkout: %+v", st)
	}
	p.Checkin(b)
	if st := p.Stats(); st.InUse != 0 {
		t.Fatalf("after checkin: %+v", st)
	}
	p.Checkin(nil) // no-op
}

func TestPoolConcurrentCheckout(t *testing.T) {
	p := NewPool()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a := p.Checkout()
				s := a.Floats(64)
				s[0] = float64(i)
				p.Checkin(a)
			}
		}()
	}
	wg.Wait()
	st := p.Stats()
	if st.InUse != 0 {
		t.Fatalf("arenas leaked: %+v", st)
	}
	if st.Hits+st.Misses != 8*200 {
		t.Fatalf("checkout count %d, want %d", st.Hits+st.Misses, 8*200)
	}
	if st.Arenas > 8 {
		t.Fatalf("built %d arenas for 8 goroutines", st.Arenas)
	}
}

func TestCappedPoolDropsOversizedArenas(t *testing.T) {
	p := NewCappedPool(1 << 10) // 128 float64s
	small, big := p.Checkout(), p.Checkout()
	small.Floats(100)
	big.Floats(200)
	p.Checkin(small)
	p.Checkin(big)
	if st := p.Stats(); st.InUse != 0 || st.BytesRetained != 100*8 {
		t.Fatalf("after checkin: %+v, want nothing in use and only the small arena's 800 bytes retained", st)
	}
	if a := p.Checkout(); a != small {
		t.Fatal("the arena under the cap was not kept for reuse")
	}
	if a := p.Checkout(); a == big {
		t.Fatal("the arena over the cap was kept")
	}
}
