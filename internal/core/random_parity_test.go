package core

import (
	"math/rand"
	"reflect"
	"testing"

	"densestream/internal/graph"
)

// The random-graph half of the layout parity sweep: for arbitrary
// graphs (not just the structured parity shapes) the layout engines
// must emit Solutions reflect.DeepEqual to the reference
// implementations at workers 1–8, on graphs of 60 to 5,000 nodes.

func randomUndirected(t *testing.T, rng *rand.Rand, n int) *graph.Undirected {
	t.Helper()
	b := graph.NewBuilder(n)
	m := n/2 + rng.Intn(4*n)
	for e := 0; e < m; e++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		if err := b.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRandomGraphPeelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(314159))
	for trial, n := range []int{60, 300, 1500, 3000, 5000} {
		g := randomUndirected(t, rng, n)
		if g.NumEdges() == 0 {
			continue
		}
		eps := []float64{0, 0.5, 2}[trial%3]
		want, err := referenceUndirected(g, eps, Opts{Workers: 1})
		if err != nil {
			t.Fatalf("n=%d: reference: %v", n, err)
		}
		k := 1 + rng.Intn(n/2)
		wantK, err := referenceAtLeastK(g, k, eps+0.1, Opts{Workers: 1})
		if err != nil {
			t.Fatalf("n=%d: reference AtLeastK: %v", n, err)
		}
		for workers := 1; workers <= 8; workers++ {
			got, err := Undirected(g, eps, Opts{Workers: workers})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d eps=%g workers=%d: random-graph divergence", n, eps, workers)
			}
			gotK, err := AtLeastK(g, k, eps+0.1, Opts{Workers: workers})
			if err != nil {
				t.Fatalf("n=%d k=%d workers=%d: %v", n, k, workers, err)
			}
			if !reflect.DeepEqual(gotK, wantK) {
				t.Fatalf("n=%d k=%d eps=%g workers=%d: random-graph AtLeastK divergence", n, k, eps+0.1, workers)
			}
		}
	}
}

func TestRandomGraphDirectedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(161803))
	for _, n := range []int{80, 1200, 4000} {
		b := graph.NewDirectedBuilder(n)
		m := n + rng.Intn(4*n)
		for e := 0; e < m; e++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u == v {
				continue
			}
			if err := b.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
		g, err := b.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		if g.NumEdges() == 0 {
			continue
		}
		for _, c := range []float64{0.5, 1} {
			want, err := referenceDirected(g, c, 0.2, Opts{Workers: 1})
			if err != nil {
				t.Fatalf("n=%d c=%g: reference: %v", n, c, err)
			}
			for workers := 1; workers <= 8; workers++ {
				got, err := Directed(g, c, 0.2, Opts{Workers: workers})
				if err != nil {
					t.Fatalf("n=%d c=%g workers=%d: %v", n, c, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d c=%g workers=%d: random-graph directed divergence", n, c, workers)
				}
			}
		}
	}
}
