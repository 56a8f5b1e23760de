package densestream_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	ds "densestream"
	"densestream/internal/gen"
)

// The in-memory peel recycles its per-solve scratch across solves.
// This test pins that from the public API: concurrent solves over
// graphs of different sizes and objectives must each match a
// fresh-state solve. alloc_budget_test.go checks that a warm solve
// allocates little beyond its Solution.

// freshSolve runs p after two GC cycles have emptied every sync.Pool,
// so the peel allocates fresh scratch.
func freshSolve(t *testing.T, p ds.Problem) *ds.Solution {
	t.Helper()
	runtime.GC()
	runtime.GC()
	sol, err := ds.Solve(context.Background(), p, ds.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func TestParallelPeelScratchReuse(t *testing.T) {
	big, err := gen.ChungLu(20000, 100000, 2.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	small, err := gen.ChungLu(1500, 6000, 2.2, 12)
	if err != nil {
		t.Fatal(err)
	}
	problems := []ds.Problem{
		{Objective: ds.ObjectiveUndirected, Backend: ds.BackendPeel, Eps: 0.1, Graph: big},
		{Objective: ds.ObjectiveAtLeastK, Backend: ds.BackendPeel, Eps: 0.5, K: 150, Graph: small},
		{Objective: ds.ObjectiveWeighted, Backend: ds.BackendPeel, Eps: 0.3, Graph: big},
		{Objective: ds.ObjectiveUndirected, Backend: ds.BackendPeel, Eps: 0.3, Graph: small},
		{Objective: ds.ObjectiveAtLeastK, Backend: ds.BackendPeel, Eps: 0.5, K: 2000, Graph: big},
		{Objective: ds.ObjectiveWeighted, Backend: ds.BackendPeel, Eps: 0.3, Graph: small},
	}
	want := make([]*ds.Solution, len(problems))
	for i, p := range problems {
		want[i] = freshSolve(t, p)
	}
	const goroutines, rounds = 4, 3
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for step := 0; step < rounds*len(problems); step++ {
				i := (gi + step) % len(problems)
				workers := 1 + (gi+step)%3
				got, err := ds.Solve(context.Background(), problems[i], ds.WithWorkers(workers))
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Errorf("goroutine %d step %d: problem %d at workers=%d diverged from its fresh-state solve", gi, step, i, workers)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
