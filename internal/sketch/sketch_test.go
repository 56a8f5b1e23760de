package sketch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"densestream/internal/core"
	"densestream/internal/gen"
	"densestream/internal/stream"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 10, 1); err == nil {
		t.Fatal("tables=0 accepted")
	}
	if _, err := New(65, 10, 1); err == nil {
		t.Fatal("tables=65 accepted")
	}
	if _, err := New(5, 1, 1); err == nil {
		t.Fatal("buckets=1 accepted")
	}
}

func TestExactWhenNoCollisions(t *testing.T) {
	// Few items, many buckets: estimates should be exact.
	cs, err := New(5, 4096, 7)
	if err != nil {
		t.Fatal(err)
	}
	truth := map[int32]int64{1: 10, 2: 500, 3: 3, 99: 77}
	for x, c := range truth {
		cs.Update(x, c)
	}
	for x, c := range truth {
		if got := cs.Estimate(x); got != c {
			t.Errorf("Estimate(%d) = %d, want %d", x, got, c)
		}
	}
	if got := cs.Estimate(12345); got != 0 {
		t.Errorf("absent item estimated %d, want 0", got)
	}
}

func TestHighFrequencyAccuracy(t *testing.T) {
	// The guarantee that matters for §5.1: heavy items are estimated well
	// even under collision pressure.
	cs, err := New(5, 256, 11)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	// 2000 light items with count 1..4, one heavy item with count 10000.
	for i := int32(0); i < 2000; i++ {
		cs.Update(i, int64(1+rng.Intn(4)))
	}
	const heavy, heavyCount = int32(5000), int64(10000)
	cs.Update(heavy, heavyCount)
	got := cs.Estimate(heavy)
	if math.Abs(float64(got-heavyCount)) > 0.05*float64(heavyCount) {
		t.Fatalf("heavy estimate %d, want within 5%% of %d", got, heavyCount)
	}
}

func TestResetAndMemory(t *testing.T) {
	cs, _ := New(3, 64, 5)
	cs.Update(7, 9)
	cs.Reset()
	if cs.Estimate(7) != 0 {
		t.Fatal("Reset did not clear counters")
	}
	if cs.MemoryWords() != 3*64 {
		t.Fatalf("memory = %d", cs.MemoryWords())
	}
	if cs.Tables() != 3 || cs.Buckets() != 64 {
		t.Fatalf("shape = %dx%d", cs.Tables(), cs.Buckets())
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a, _ := New(5, 128, 42)
	b, _ := New(5, 128, 42)
	for i := int32(0); i < 100; i++ {
		a.Update(i, int64(i))
		b.Update(i, int64(i))
	}
	for i := int32(0); i < 100; i++ {
		if a.Estimate(i) != b.Estimate(i) {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
}

// Property: with negative updates the sketch remains unbiased enough that
// an isolated item's estimate returns to zero after add/remove.
func TestUpdateInverseProperty(t *testing.T) {
	f := func(x int32, delta int64) bool {
		if delta < 0 {
			delta = -delta
		}
		delta %= 1 << 30
		cs, err := New(5, 512, 3)
		if err != nil {
			return false
		}
		cs.Update(x, delta)
		cs.Update(x, -delta)
		return cs.Estimate(x) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The §5.1 experiment in miniature: sketched peeling stays within a
// reasonable factor of exact peeling when b is a fraction of n.
func TestSketchedPeelingQuality(t *testing.T) {
	g, _, err := gen.PlantedDense(3000, 9000, 2.2, 50, 0.9, 17)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := core.Undirected(g, 0.5, core.Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		// 5000 words vs n=3000... still < n per table.
		sk, err := NewStriped(5, 1000, 21, stream.SketchScanLanes(workers))
		if err != nil {
			t.Fatal(err)
		}
		sketched, err := stream.UndirectedSketched(stream.FromUndirected(g), 0.5, sk, core.Opts{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		ratio := sketched.Density / exact.Density
		if ratio < 0.5 || ratio > 1.5 {
			t.Fatalf("workers=%d: sketched/exact density ratio %v out of [0.5, 1.5] (sketched %v, exact %v)",
				workers, ratio, sketched.Density, exact.Density)
		}
	}
}
