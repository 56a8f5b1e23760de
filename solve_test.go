package densestream_test

// Parity pin for the unified Solve API: every backend of an objective
// must agree with the in-memory peel on ChungLu and RMAT inputs, and
// ObjectiveExact and ObjectiveGreedy must match the solvers they
// dispatch to. Plus the cancellation contract: a context canceled
// mid-solve returns context.Canceled promptly with a partial trace, on
// all three runtimes.

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	ds "densestream"
	"densestream/internal/charikar"
	"densestream/internal/flow"
)

// parityGraphs returns the undirected and directed inputs of the
// parity sweep: a ChungLu power-law graph and an RMAT graph (the RMAT
// edge list doubles as the undirected input via an undirected rebuild).
func parityGraphs(t *testing.T) (und []*ds.UndirectedGraph, dir []*ds.DirectedGraph) {
	t.Helper()
	cl, err := ds.GenerateChungLu(2000, 10000, 2.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	cld, err := ds.GenerateChungLuDirected(1500, 8000, 2.2, 11)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := ds.GenerateRMAT(10, 6000, 13)
	if err != nil {
		t.Fatal(err)
	}
	// Undirected view of the RMAT edge list (self loops dropped,
	// parallel edges merged by Freeze).
	b := ds.NewBuilder(rm.NumNodes())
	rm.Edges(func(u, v int32) bool {
		if u != v {
			if err := b.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
		return true
	})
	rmu, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return []*ds.UndirectedGraph{cl, rmu}, []*ds.DirectedGraph{cld, rm}
}

func solveOK(t *testing.T, p ds.Problem, opts ...ds.Option) *ds.Solution {
	t.Helper()
	sol, err := ds.Solve(context.Background(), p, opts...)
	if err != nil {
		t.Fatalf("Solve(%s/%s): %v", p.Objective, p.Backend, err)
	}
	return sol
}

func TestSolveParityUndirectedObjectives(t *testing.T) {
	und, _ := parityGraphs(t)
	const eps = 0.5
	sketchCfg := ds.SketchConfig{Tables: 5, Buckets: 256, Seed: 1}
	for gi, g := range und {
		peel := solveOK(t, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendPeel, Eps: eps, Graph: g})

		sol := solveOK(t, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendStream, Eps: eps, Edges: ds.StreamGraph(g)})
		if sol.Density != peel.Density {
			t.Fatalf("graph %d: stream density %v != peel %v", gi, sol.Density, peel.Density)
		}

		// The sketch estimates degrees, so its density may fall short
		// of the exact peel's; it can never beat ρ* ≤ (2+2ε)·peel.
		sol = solveOK(t, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendStreamSketched, Eps: eps, Edges: ds.StreamGraph(g)},
			ds.WithSketch(sketchCfg))
		if sol.Density <= 0 || sol.Density > (2+2*eps)*peel.Density {
			t.Fatalf("graph %d: sketch density %v outside (0, (2+2ε)·peel = %v]", gi, sol.Density, (2+2*eps)*peel.Density)
		}
		if want := sketchCfg.Tables * sketchCfg.Buckets; sol.SketchMemoryWords != want {
			t.Fatalf("sketch memory %d != %d", sol.SketchMemoryWords, want)
		}

		sol = solveOK(t, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendMapReduce, Eps: eps, Graph: g})
		if sol.Density != peel.Density {
			t.Fatalf("graph %d: MR density %v != peel %v", gi, sol.Density, peel.Density)
		}
	}
}

func TestSolveParityWeightedAndAtLeastK(t *testing.T) {
	und, _ := parityGraphs(t)
	g := und[0]
	const eps, k = 0.5, 100

	// Weighted on peel and stream (unit weights on an unweighted graph).
	peel := solveOK(t, ds.Problem{Objective: ds.ObjectiveWeighted, Backend: ds.BackendPeel, Eps: eps, Graph: g})
	sol := solveOK(t, ds.Problem{Objective: ds.ObjectiveWeighted, Backend: ds.BackendStream, Eps: eps, WeightedEdges: ds.StreamWeightedGraph(g)})
	if sol.Density != peel.Density {
		t.Fatalf("weighted: stream density %v != peel %v", sol.Density, peel.Density)
	}

	// AtLeastK on all three exact backends.
	peel = solveOK(t, ds.Problem{Objective: ds.ObjectiveAtLeastK, Backend: ds.BackendPeel, K: k, Eps: eps, Graph: g})
	sol = solveOK(t, ds.Problem{Objective: ds.ObjectiveAtLeastK, Backend: ds.BackendStream, K: k, Eps: eps, Edges: ds.StreamGraph(g)})
	if sol.Density != peel.Density {
		t.Fatalf("atleastk: stream density %v != peel %v", sol.Density, peel.Density)
	}
	sol = solveOK(t, ds.Problem{Objective: ds.ObjectiveAtLeastK, Backend: ds.BackendMapReduce, K: k, Eps: eps, Graph: g})
	if sol.Density != peel.Density {
		t.Fatalf("atleastk: MR density %v != peel %v", sol.Density, peel.Density)
	}
}

func TestSolveParityDirectedObjectives(t *testing.T) {
	_, dir := parityGraphs(t)
	const eps, c, delta = 0.5, 1.0, 2.0
	for gi, g := range dir {
		peel := solveOK(t, ds.Problem{Objective: ds.ObjectiveDirected, Backend: ds.BackendPeel, C: c, Eps: eps, Directed: g})

		sol := solveOK(t, ds.Problem{Objective: ds.ObjectiveDirected, Backend: ds.BackendStream, C: c, Eps: eps, Edges: ds.StreamDirectedGraph(g)})
		if sol.Density != peel.Density {
			t.Fatalf("graph %d: stream directed density %v != peel %v", gi, sol.Density, peel.Density)
		}

		sol = solveOK(t, ds.Problem{Objective: ds.ObjectiveDirected, Backend: ds.BackendMapReduce, C: c, Eps: eps, Directed: g})
		if sol.Density != peel.Density {
			t.Fatalf("graph %d: MR directed density %v != peel %v", gi, sol.Density, peel.Density)
		}

		sw := solveOK(t, ds.Problem{Objective: ds.ObjectiveDirectedSweep, Backend: ds.BackendPeel, Delta: delta, Eps: eps, Directed: g})
		if sw.Sweep == nil || sw.Density != sw.Sweep.Best.Density {
			t.Fatalf("sweep: Solution density %v does not match Sweep.Best", sw.Density)
		}
	}
}

// TestSolveParityExactAndGreedy pins ObjectiveExact and ObjectiveGreedy
// to the flow and Charikar solvers they dispatch to.
func TestSolveParityExactAndGreedy(t *testing.T) {
	g, err := ds.GenerateChungLu(400, 1600, 2.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	sol := solveOK(t, ds.Problem{Objective: ds.ObjectiveExact, Graph: g})
	ex, err := flow.ExactDensest(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sol.Set, ex.Set) || sol.Density != ex.Density || sol.ExactNumer != ex.Numer ||
		sol.ExactDenom != ex.Denom || sol.Passes != ex.FlowCalls {
		t.Fatalf("exact: Solve diverges from flow.ExactDensest: %+v vs %+v", sol, ex)
	}

	sol = solveOK(t, ds.Problem{Objective: ds.ObjectiveGreedy, Graph: g})
	gr, err := charikar.Densest(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sol.Set, gr.Set) || sol.Density != gr.Density || sol.Passes != gr.Peels {
		t.Fatalf("greedy: Solve diverges from charikar.Densest: %+v vs %+v", sol, gr)
	}

	// On a weighted graph ObjectiveGreedy peels by weighted degree.
	b := ds.NewBuilder(g.NumNodes())
	g.Edges(func(u, v int32, _ float64) bool {
		if err := b.AddWeightedEdge(u, v, float64(1+(u+v)%4)); err != nil {
			t.Fatal(err)
		}
		return true
	})
	wg, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	sol = solveOK(t, ds.Problem{Objective: ds.ObjectiveGreedy, Graph: wg})
	gw, err := charikar.DensestWeighted(context.Background(), wg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sol.Set, gw.Set) || sol.Density != gw.Density || sol.Passes != gw.Peels {
		t.Fatalf("weighted greedy: Solve diverges from charikar.DensestWeighted: %+v vs %+v", sol, gw)
	}
}

// cancellationProblems enumerates one problem per runtime, all on the
// same input, for the cancellation contract tests.
func cancellationProblems(t *testing.T) map[string]ds.Problem {
	t.Helper()
	g, err := ds.GenerateChungLu(3000, 15000, 2.1, 17)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]ds.Problem{
		"peel":   {Objective: ds.ObjectiveUndirected, Backend: ds.BackendPeel, Eps: 0, Graph: g},
		"stream": {Objective: ds.ObjectiveUndirected, Backend: ds.BackendStream, Eps: 0, Edges: ds.StreamGraph(g)},
		"mr":     {Objective: ds.ObjectiveUndirected, Backend: ds.BackendMapReduce, Eps: 0, Graph: g},
	}
}

func TestSolveCancellationMidSolve(t *testing.T) {
	for name, p := range cancellationProblems(t) {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			hookCalls := 0
			sol, err := ds.Solve(ctx, p, ds.WithProgress(func(ds.PassStat) bool {
				hookCalls++
				if hookCalls == 2 {
					cancel() // cancel at the start of pass 2, mid-solve
				}
				return true
			}))
			if sol != nil {
				t.Fatalf("canceled solve returned a solution")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			var pe *ds.PartialError
			if !errors.As(err, &pe) {
				t.Fatalf("want *PartialError, got %T: %v", err, err)
			}
			if pe.Passes < 1 || pe.Passes > 2 {
				t.Fatalf("cancellation not within one pass: stopped after %d passes (hook ran %d times)", pe.Passes, hookCalls)
			}
			if len(pe.Trace) == 0 {
				t.Fatalf("partial error carries no trace")
			}
		})
	}
}

func TestSolvePreCanceledContext(t *testing.T) {
	for name, p := range cancellationProblems(t) {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := ds.Solve(ctx, p)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
		})
	}
}

// TestSolveExactGreedyPreCanceled pins the cancellation contract on the
// two objectives whose inner loops gained ctx polls: a canceled context
// aborts with a *PartialError before any work.
func TestSolveExactGreedyPreCanceled(t *testing.T) {
	g, err := ds.GenerateChungLu(300, 1200, 2.1, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range []ds.Objective{ds.ObjectiveExact, ds.ObjectiveGreedy} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := ds.Solve(ctx, ds.Problem{Objective: obj, Graph: g})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want context.Canceled, got %v", obj, err)
		}
		var pe *ds.PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: want *PartialError, got %T", obj, err)
		}
	}
}

// TestSolveExactMidRunCancellation lands a deadline inside the flow
// computation (the instance takes far longer than the deadline) and
// checks the solver aborts mid-flow with the uniform error shape —
// the ROADMAP gap was that Exact only checked the context at start.
func TestSolveExactMidRunCancellation(t *testing.T) {
	g, _, err := ds.GeneratePlantedDense(3000, 12000, 2.2, 40, 0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, serr := ds.Solve(ctx, ds.Problem{Objective: ds.ObjectiveExact, Graph: g})
	if !errors.Is(serr, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", serr)
	}
	var pe *ds.PartialError
	if !errors.As(serr, &pe) {
		t.Fatalf("want *PartialError, got %T: %v", serr, serr)
	}
}

func TestSolveProgressStop(t *testing.T) {
	for name, p := range cancellationProblems(t) {
		t.Run(name, func(t *testing.T) {
			calls := 0
			_, err := ds.Solve(context.Background(), p, ds.WithProgress(func(ds.PassStat) bool {
				calls++
				return calls < 3 // stop at the start of pass 3
			}))
			if !errors.Is(err, ds.ErrStopped) {
				t.Fatalf("want ErrStopped, got %v", err)
			}
			var pe *ds.PartialError
			if !errors.As(err, &pe) {
				t.Fatalf("want *PartialError, got %T", err)
			}
			if pe.Passes != 2 || len(pe.Trace) == 0 {
				t.Fatalf("want 2 completed passes with a trace, got %d (%d entries)", pe.Passes, len(pe.Trace))
			}
		})
	}
}

func TestSolveDeadline(t *testing.T) {
	p := cancellationProblems(t)["peel"]
	ctx, cancel := context.WithTimeout(context.Background(), 0) // already expired
	defer cancel()
	_, err := ds.Solve(ctx, p)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestSolveValidation(t *testing.T) {
	g, err := ds.GenerateChungLu(100, 300, 2.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := ds.GenerateChungLuDirected(100, 300, 2.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := []ds.Problem{
		{},                       // no input
		{Graph: g, Directed: dg}, // two inputs
		{Objective: ds.ObjectiveDirected, Graph: g, C: 1},                                            // wrong input kind
		{Objective: ds.ObjectiveExact, Backend: ds.BackendStream, Graph: g},                          // exact is peel-only
		{Objective: ds.ObjectiveDirectedSweep, Backend: ds.BackendMapReduce, Directed: dg, Delta: 2}, // no MR sweep
		{Objective: ds.ObjectiveWeighted, Backend: ds.BackendStreamSketched, Graph: g},               // sketch is undirected-only
		{Backend: ds.BackendMapReduce, Edges: ds.StreamGraph(g)},                                     // MR needs a graph
	}
	for i, p := range bad {
		if _, err := ds.Solve(context.Background(), p); err == nil {
			t.Errorf("bad problem %d accepted", i)
		}
	}
	// Negative MR shapes are rejected rather than silently defaulted.
	if _, err := ds.Solve(context.Background(),
		ds.Problem{Backend: ds.BackendMapReduce, Graph: g, Eps: 1},
		ds.WithMapReduceConfig(ds.MRConfig{Mappers: -1})); err == nil {
		t.Error("negative MR config accepted")
	}
	// A nil context is treated as context.Background().
	if _, err := ds.Solve(nil, ds.Problem{Graph: g, Eps: 1}); err != nil { //nolint:staticcheck
		t.Errorf("nil ctx: %v", err)
	}
}
