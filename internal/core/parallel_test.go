package core

import (
	"math"
	"reflect"
	"testing"

	"densestream/internal/gen"
	"densestream/internal/graph"
)

// The engines promise bit-identical results for every worker count.
// These tests pin that promise inside the package (the public-API
// variant lives in the root package); run with -race to exercise the
// sharded scans and atomic decrements.

func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Density != b.Density || a.Passes != b.Passes {
		t.Fatalf("%s: density/passes %v/%d vs %v/%d", label, a.Density, a.Passes, b.Density, b.Passes)
	}
	if !reflect.DeepEqual(a.Set, b.Set) {
		t.Fatalf("%s: sets differ: %v vs %v", label, a.Set, b.Set)
	}
	if !reflect.DeepEqual(a.Trace, b.Trace) {
		t.Fatalf("%s: traces differ", label)
	}
}

func TestUndirectedOptsWorkerCountInvariance(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		g, err := gen.ChungLu(3000, 15000, 2.1, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0, 0.5, 1} {
			ref, err := Undirected(g, eps, Opts{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 4, 8} {
				got, err := Undirected(g, eps, Opts{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, "undirected", ref, got)
			}
		}
	}
}

func TestUndirectedWeightedOptsWorkerCountInvariance(t *testing.T) {
	g0, err := gen.ChungLu(2500, 10000, 2.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(g0.NumNodes())
	w := 0.0
	g0.Edges(func(u, v int32, _ float64) bool {
		w += 0.37
		return b.AddWeightedEdge(u, v, 0.1+math.Mod(w, 3)) == nil
	})
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := UndirectedWeighted(g, 0.5, Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := UndirectedWeighted(g, 0.5, Opts{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "weighted", ref, got)
	}
}

func TestAtLeastKOptsWorkerCountInvariance(t *testing.T) {
	g, err := gen.ChungLu(3000, 12000, 2.1, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 50, 1000} {
		ref, err := AtLeastK(g, k, 0.5, Opts{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := AtLeastK(g, k, 0.5, Opts{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "atleastk", ref, got)
	}
}

func TestDirectedOptsWorkerCountInvariance(t *testing.T) {
	g, err := gen.ChungLuDirected(3000, 15000, 2.2, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{0.5, 1, 2} {
		ref, err := Directed(g, c, 0.5, Opts{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Directed(g, c, 0.5, Opts{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if ref.Density != got.Density || ref.Passes != got.Passes {
			t.Fatalf("c=%v: density/passes differ", c)
		}
		if !reflect.DeepEqual(ref.S, got.S) || !reflect.DeepEqual(ref.T, got.T) {
			t.Fatalf("c=%v: S/T differ", c)
		}
		if !reflect.DeepEqual(ref.Trace, got.Trace) {
			t.Fatalf("c=%v: traces differ", c)
		}
	}
}

// The refactor must not change what the sequential engine computes: the
// default entry points still agree with a straight re-derivation of the
// per-pass rule on a small instance.
func TestUndirectedOptsMatchesLegacySemantics(t *testing.T) {
	g, err := gen.Gnm(200, 800, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Undirected(g, 0.5, Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := g.SubgraphDensity(r.Set)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-r.Density) > 1e-9 {
		t.Fatalf("reported density %v but set has %v", r.Density, d)
	}
}
