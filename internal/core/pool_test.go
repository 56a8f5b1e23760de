//go:build !race

package core

import (
	"runtime"
	"slices"
	"testing"

	"densestream/internal/gen"
)

// TestSolvesReuseOneCrew guards the worker pool's life cycle: every
// engine acquires its pool for one solve and releases it at the end,
// so back-to-back solves reuse one parked crew. A pool built fresh per
// solve and then released parks a new crew every time, and those crews
// live until the GC drops the cached pools and their finalizers run.
// The race build is excluded because its sync.Pool drops Puts on
// purpose.
func TestSolvesReuseOneCrew(t *testing.T) {
	g, err := gen.ChungLu(40000, 200000, 2.2, 9)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := gen.ChungLuDirected(40000, 200000, 2.2, 9)
	if err != nil {
		t.Fatal(err)
	}
	o := Opts{Workers: 2}
	solve := func(i int) {
		var err error
		switch i % 3 {
		case 0:
			_, err = Undirected(g, 0.5, o)
		case 1:
			_, err = AtLeastK(g, 100, 0.5, o)
		default:
			_, err = Directed(dg, 1, 0.5, o)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	solve(0) // park the first crew
	const solves = 30
	before := runtime.NumGoroutine()
	for i := 0; i < solves; i++ {
		solve(i)
	}
	// A GC during the loop may drop the parked pool, whose crew then
	// exits only when its finalizer runs; allow for that one crew.
	if grown := runtime.NumGoroutine() - before; grown > 2 {
		t.Fatalf("%d solves at workers=%d left %d more goroutines running; each solve must reuse the parked crew",
			solves, o.Workers, grown)
	}
}

// TestDirectedAllocsFlatInWorkers guards the directed engine's memory
// against the worker count and against per-run scratch. A solve at two
// workers may allocate at most 5% more than the same solve at one:
// per-worker scatter buffers grown by append in every run break it by a
// multiple, and a sweep pays them once per value of c. And a warm solve
// must take its peel state from the pool: at either worker count,
// Directed may allocate at most 512 KiB and DirectedSweep, whose
// 2⌈log₂ n⌉+1 runs follow one another, at most 8.5 MB — a quarter of
// what building the state afresh for each run cost (2.05 MB and
// 34.0 MB). Each figure is the median of nine solves measured alone,
// so one GC or pool miss cannot fail it.
func TestDirectedAllocsFlatInWorkers(t *testing.T) {
	cl, err := gen.ChungLuDirected(40000, 200000, 2.2, 9)
	if err != nil {
		t.Fatal(err)
	}
	lj, err := gen.LJLike(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		maxBytes uint64
		solve    func(o Opts) error
	}{
		{"Directed c=1 eps=0.5", 512 << 10, func(o Opts) error {
			_, err := Directed(cl, 1, 0.5, o)
			return err
		}},
		{"DirectedSweep delta=2 eps=1", 8_500_000, func(o Opts) error {
			_, err := DirectedSweep(lj, 2, 1, o)
			return err
		}},
	} {
		var bytes [2]uint64
		for i, workers := range []int{1, 2} {
			bytes[i] = medianSolveBytes(t, func() error { return tc.solve(Opts{Workers: workers}) })
		}
		t.Logf("%s: %d B at one worker, %d B at two", tc.name, bytes[0], bytes[1])
		if float64(bytes[1]) > 1.05*float64(bytes[0]) {
			t.Errorf("%s allocates %d B at two workers, %.2f× the %d B at one; the bound is 1.05×",
				tc.name, bytes[1], float64(bytes[1])/float64(bytes[0]), bytes[0])
		}
		if most := max(bytes[0], bytes[1]); most > tc.maxBytes {
			t.Errorf("%s allocates %d B per warm solve; the bound is %d B, so each run must reuse a pooled peel state",
				tc.name, most, tc.maxBytes)
		}
	}
}

// medianSolveBytes returns the median bytes allocated by nine calls of
// solve, after one untimed call that warms the pools.
func medianSolveBytes(t *testing.T, solve func() error) uint64 {
	t.Helper()
	if err := solve(); err != nil {
		t.Fatal(err)
	}
	const runs = 9
	per := make([]uint64, runs)
	var before, after runtime.MemStats
	for i := range per {
		runtime.ReadMemStats(&before)
		err := solve()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		per[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(per)
	return per[runs/2]
}
