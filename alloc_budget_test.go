//go:build !race

package densestream_test

import (
	"context"
	"runtime"
	"slices"
	"testing"

	ds "densestream"
	"densestream/internal/gen"
)

// TestPeelSolveAllocBudget guards the recycled scratch: a warm
// BackendPeel solve on a 200K-edge graph allocates its Solution and
// little else. Allocating the scratch afresh costs about 13 bytes per
// edge, over 30 times the budget. The guard takes the median of nine
// solves, each measured alone: a sync.Pool may miss now and then (a
// GC, or the goroutine changing Ps between Put and Get), and one miss
// must not fail it. The file is left out of -race builds, whose
// sync.Pool drops a share of Puts on purpose.
func TestPeelSolveAllocBudget(t *testing.T) {
	g, err := gen.ChungLu(40000, 200000, 2.2, 13)
	if err != nil {
		t.Fatal(err)
	}
	p := ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendPeel, Eps: 0.5, Graph: g}
	solve := func() {
		if _, err := ds.Solve(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	solve() // warm the scratch
	const runs = 9
	per := make([]uint64, runs)
	var before, after runtime.MemStats
	for i := range per {
		runtime.ReadMemStats(&before)
		solve()
		runtime.ReadMemStats(&after)
		per[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(per)
	perSolve := per[runs/2]
	const budget = 64 << 10
	t.Logf("warm solve allocates %d B (%.3f B/edge)", perSolve, float64(perSolve)/float64(g.NumEdges()))
	if perSolve > budget {
		t.Fatalf("warm solve allocates %d B, budget %d B", perSolve, budget)
	}
}
