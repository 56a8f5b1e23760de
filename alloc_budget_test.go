//go:build !race

package densestream_test

import (
	"context"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	ds "densestream"
	"densestream/internal/gen"
)

// TestPeelSolveAllocBudget guards the recycled scratch: a warm
// BackendPeel solve on a 200K-edge graph allocates its Solution and
// little else. Allocating the scratch afresh costs about 13 bytes per
// edge, over 30 times the budget. The file is left out of -race
// builds, whose sync.Pool drops a share of Puts on purpose.
func TestPeelSolveAllocBudget(t *testing.T) {
	g, err := gen.ChungLu(40000, 200000, 2.2, 13)
	if err != nil {
		t.Fatal(err)
	}
	p := ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendPeel, Eps: 0.5, Graph: g}
	perSolve := medianSolveBytes(t, func() error {
		_, err := ds.Solve(context.Background(), p)
		return err
	})
	const budget = 64 << 10
	t.Logf("warm solve allocates %d B (%.3f B/edge)", perSolve, float64(perSolve)/float64(g.NumEdges()))
	if perSolve > budget {
		t.Fatalf("warm solve allocates %d B, budget %d B", perSolve, budget)
	}
}

// TestStreamAllocsFlatInWorkers guards the stream scan's pooled state:
// a warm BackendStream solve of a BSG1 file takes its striped counter,
// dead-block flags, slots and residual arena, and the scan-peel run's
// removal schedule and alive flags, from their pools at every worker
// count, so it allocates at most 1 byte per node whatever the workers.
// Building that state afresh costs a counter lane of 8 bytes per node
// per worker, more in a residual, and 5 bytes per node for the
// schedule and the flags.
func TestStreamAllocsFlatInWorkers(t *testing.T) {
	g, err := gen.ChungLu(40000, 200000, 2.2, 13)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.bsg")
	if err := ds.WriteUndirectedBinary(path, g); err != nil {
		t.Fatal(err)
	}
	p := ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendStream, Eps: 0.5, Path: path}
	const perNode = 1
	for _, workers := range []int{1, 2, 4, 8} {
		perSolve := medianSolveBytes(t, func() error {
			_, err := ds.Solve(context.Background(), p, ds.WithWorkers(workers))
			return err
		})
		perN := float64(perSolve) / float64(g.NumNodes())
		t.Logf("workers=%d: warm solve allocates %d B (%.2f B/node)", workers, perSolve, perN)
		if perN > perNode {
			t.Errorf("workers=%d: warm solve allocates %d B, %.2f B/node; the bound is %d B/node, so the scan state must come from the pools",
				workers, perSolve, perN, perNode)
		}
	}
}

// medianSolveBytes returns the median bytes allocated by nine calls of
// solve, after one untimed call that warms the pools. Each call is
// measured alone, and the median stands: a sync.Pool may miss now and
// then (a GC, or the goroutine changing Ps between Put and Get), and
// one miss must not fail a guard.
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
