//go:build !race

package core

import (
	"runtime"
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
			_, err = UndirectedOpts(g, 0.5, o)
		case 1:
			_, err = AtLeastKOpts(g, 100, 0.5, o)
		default:
			_, err = DirectedOpts(dg, 1, 0.5, o)
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
