package densestream_test

// Determinism contract of the parallel engine: Workers(1) and
// Workers(8) must return identical Solutions — the same Set, Density,
// and Trace, not just equivalent densities — on random graphs. This is
// the public-API pin for the bit-identical merge order of internal/par.

import (
	"reflect"
	"testing"

	ds "densestream"
	"densestream/internal/gen"
)

func assertSameResult(t *testing.T, label string, a, b *ds.Solution) {
	t.Helper()
	if a.Density != b.Density {
		t.Fatalf("%s: density %v vs %v", label, a.Density, b.Density)
	}
	if !reflect.DeepEqual(a.Set, b.Set) {
		t.Fatalf("%s: Solution.Set differs (%d vs %d nodes)", label, len(a.Set), len(b.Set))
	}
	if !reflect.DeepEqual(a.Trace, b.Trace) {
		t.Fatalf("%s: Solution.Trace differs", label)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: Solution differs", label)
	}
}

func TestParallelWorkersDeterminismUndirected(t *testing.T) {
	for _, seed := range []int64{1, 5, 42} {
		g, err := gen.ChungLu(4000, 20000, 2.1, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0, 0.5, 1} {
			p := ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendPeel, Eps: eps, Graph: g}
			assertSameResult(t, "Undirected", solveOK(t, p, ds.WithWorkers(1)), solveOK(t, p, ds.WithWorkers(8)))
		}
	}
}

func TestParallelWorkersDeterminismDirected(t *testing.T) {
	for _, seed := range []int64{3, 19} {
		g, err := gen.ChungLuDirected(3000, 15000, 2.2, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []float64{0.5, 1, 2} {
			p := ds.Problem{Objective: ds.ObjectiveDirected, Backend: ds.BackendPeel, C: c, Eps: 0.5, Directed: g}
			one, eight := solveOK(t, p, ds.WithWorkers(1)), solveOK(t, p, ds.WithWorkers(8))
			if one.Density != eight.Density {
				t.Fatalf("Directed c=%v: density %v vs %v", c, one.Density, eight.Density)
			}
			if !reflect.DeepEqual(one.S, eight.S) || !reflect.DeepEqual(one.T, eight.T) {
				t.Fatalf("Directed c=%v: S/T differ", c)
			}
			if !reflect.DeepEqual(one.DirectedTrace, eight.DirectedTrace) {
				t.Fatalf("Directed c=%v: DirectedTrace differs", c)
			}
			if !reflect.DeepEqual(one, eight) {
				t.Fatalf("Directed c=%v: Solution differs", c)
			}
		}
	}
}

func TestParallelWorkersDeterminismStreaming(t *testing.T) {
	for _, seed := range []int64{7, 11} {
		g, err := gen.ChungLu(3000, 15000, 2.1, seed)
		if err != nil {
			t.Fatal(err)
		}
		stream := func(es ds.EdgeStream) ds.Problem {
			return ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendStream, Eps: 0.5, Edges: es}
		}
		one := solveOK(t, stream(ds.StreamGraph(g)), ds.WithWorkers(1))
		eight := solveOK(t, stream(ds.StreamGraph(g)), ds.WithWorkers(8))
		assertSameResult(t, "Streaming", one, eight)

		// A stream that hides its Shards method is scanned as a single
		// shard at any worker count, with the same result.
		for _, w := range []int{1, 8} {
			seq := solveOK(t, stream(unshardedStream{ds.StreamGraph(g)}), ds.WithWorkers(w))
			assertSameResult(t, "Streaming/unsharded", one, seq)
		}

		// And the streaming engine still agrees exactly with in-memory
		// peeling at both worker counts.
		mem := solveOK(t, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendPeel, Eps: 0.5, Graph: g}, ds.WithWorkers(8))
		if mem.Density != eight.Density {
			t.Fatalf("Streaming vs Undirected density: %v vs %v", eight.Density, mem.Density)
		}
	}
}

// unshardedStream exposes only the EdgeStream methods of the stream it
// wraps, so the engine cannot shard it.
type unshardedStream struct{ ds.EdgeStream }

func TestParallelWorkersDeterminismAtLeastKAndWeighted(t *testing.T) {
	g, err := gen.ChungLu(3000, 12000, 2.1, 13)
	if err != nil {
		t.Fatal(err)
	}
	p := ds.Problem{Objective: ds.ObjectiveAtLeastK, Backend: ds.BackendPeel, K: 100, Eps: 0.5, Graph: g}
	assertSameResult(t, "AtLeastK", solveOK(t, p, ds.WithWorkers(1)), solveOK(t, p, ds.WithWorkers(8)))

	p = ds.Problem{Objective: ds.ObjectiveWeighted, Backend: ds.BackendPeel, Eps: 0.5, Graph: g}
	assertSameResult(t, "UndirectedWeighted", solveOK(t, p, ds.WithWorkers(1)), solveOK(t, p, ds.WithWorkers(8)))
}
