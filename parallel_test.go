package densestream_test

// Determinism contract of the parallel engine: Workers(1) and
// Workers(8) must return identical Set, Density, and Trace — not just
// equivalent densities — on random graphs. This is the public-API pin
// for the bit-identical merge order of internal/par.

import (
	"reflect"
	"testing"

	ds "densestream"
	"densestream/internal/gen"
)

func assertSameResult(t *testing.T, label string, a, b *ds.Result) {
	t.Helper()
	if a.Density != b.Density {
		t.Fatalf("%s: density %v vs %v", label, a.Density, b.Density)
	}
	if !reflect.DeepEqual(a.Set, b.Set) {
		t.Fatalf("%s: Result.Set differs (%d vs %d nodes)", label, len(a.Set), len(b.Set))
	}
	if !reflect.DeepEqual(a.Trace, b.Trace) {
		t.Fatalf("%s: Result.Trace differs", label)
	}
}

func TestParallelWorkersDeterminismUndirected(t *testing.T) {
	for _, seed := range []int64{1, 5, 42} {
		g, err := gen.ChungLu(4000, 20000, 2.1, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0, 0.5, 1} {
			one, err := ds.Undirected(g, eps, ds.WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			eight, err := ds.Undirected(g, eps, ds.WithWorkers(8))
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, "Undirected", one, eight)
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
			one, err := ds.Directed(g, c, 0.5, ds.WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			eight, err := ds.Directed(g, c, 0.5, ds.WithWorkers(8))
			if err != nil {
				t.Fatal(err)
			}
			if one.Density != eight.Density {
				t.Fatalf("Directed c=%v: density %v vs %v", c, one.Density, eight.Density)
			}
			if !reflect.DeepEqual(one.S, eight.S) || !reflect.DeepEqual(one.T, eight.T) {
				t.Fatalf("Directed c=%v: S/T differ", c)
			}
			if !reflect.DeepEqual(one.Trace, eight.Trace) {
				t.Fatalf("Directed c=%v: Trace differs", c)
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
		one, err := ds.Streaming(ds.StreamGraph(g), 0.5, ds.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		eight, err := ds.Streaming(ds.StreamGraph(g), 0.5, ds.WithWorkers(8))
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, "Streaming", one, eight)

		// A stream that hides its Shards method is scanned as a single
		// shard at any worker count, with the same result.
		for _, w := range []int{1, 8} {
			seq, err := ds.Streaming(unshardedStream{ds.StreamGraph(g)}, 0.5, ds.WithWorkers(w))
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, "Streaming/unsharded", one, seq)
		}

		// And the streaming engine still agrees exactly with in-memory
		// peeling at both worker counts.
		mem, err := ds.Undirected(g, 0.5, ds.WithWorkers(8))
		if err != nil {
			t.Fatal(err)
		}
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
	one, err := ds.AtLeastK(g, 100, 0.5, ds.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	eight, err := ds.AtLeastK(g, 100, 0.5, ds.WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "AtLeastK", one, eight)

	wone, err := ds.UndirectedWeighted(g, 0.5, ds.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	weight, err := ds.UndirectedWeighted(g, 0.5, ds.WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "UndirectedWeighted", wone, weight)
}
