package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"densestream/internal/flow"
	"densestream/internal/gen"
	"densestream/internal/graph"
)

func TestUndirectedClique(t *testing.T) {
	g, _ := gen.Clique(8)
	for _, eps := range []float64{0, 0.1, 0.5, 1, 2} {
		r, err := Undirected(g, eps, Opts{Workers: 1})
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		// The whole clique is optimal and nothing denser appears later.
		if math.Abs(r.Density-3.5) > 1e-12 {
			t.Fatalf("eps=%v: density = %v, want 3.5", eps, r.Density)
		}
		if len(r.Set) != 8 {
			t.Fatalf("eps=%v: |set| = %d, want 8", eps, len(r.Set))
		}
	}
}

func TestUndirectedCliquePlusTail(t *testing.T) {
	b := graph.NewBuilder(30)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			_ = b.AddEdge(int32(i), int32(j))
		}
	}
	for i := 5; i < 29; i++ {
		_ = b.AddEdge(int32(i), int32(i+1))
	}
	g, _ := b.Freeze()
	r, err := Undirected(g, 0.5, Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Optimum is the K6 (density 2.5); guarantee is within 2(1+0.5) = 3x.
	if r.Density < 2.5/3-1e-9 {
		t.Fatalf("density = %v, below guarantee", r.Density)
	}
}

func TestUndirectedInputValidation(t *testing.T) {
	g, _ := gen.Clique(3)
	for _, eps := range []float64{-0.1, math.NaN(), math.Inf(1)} {
		if _, err := Undirected(g, eps, Opts{Workers: 1}); err == nil {
			t.Fatalf("eps=%v accepted", eps)
		}
	}
	empty, _ := graph.NewBuilder(0).Freeze()
	if _, err := Undirected(empty, 0.5, Opts{Workers: 1}); !errors.Is(err, graph.ErrEmptyGraph) {
		t.Fatalf("empty: %v", err)
	}
	wb := graph.NewBuilder(2)
	_ = wb.AddWeightedEdge(0, 1, 2)
	wg, _ := wb.Freeze()
	if _, err := Undirected(wg, 0.5, Opts{Workers: 1}); err == nil {
		t.Fatal("weighted graph accepted")
	}
}

func TestUndirectedEdgelessGraph(t *testing.T) {
	g, _ := graph.NewBuilder(4).Freeze()
	r, err := Undirected(g, 0.5, Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Density != 0 {
		t.Fatalf("density = %v", r.Density)
	}
	if r.Passes != 1 {
		t.Fatalf("passes = %d, want 1 (all removed at once)", r.Passes)
	}
}

func TestUndirectedTraceConsistency(t *testing.T) {
	g, _ := gen.ChungLu(2000, 8000, 2.1, 3)
	r, err := Undirected(g, 1, Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trace) != r.Passes+1 {
		t.Fatalf("trace length %d, passes %d", len(r.Trace), r.Passes)
	}
	if r.Trace[0].Nodes != g.NumNodes() || r.Trace[0].Edges != g.NumEdges() {
		t.Fatalf("initial trace %+v", r.Trace[0])
	}
	last := r.Trace[len(r.Trace)-1]
	if last.Nodes != 0 || last.Edges != 0 {
		t.Fatalf("final trace %+v, want empty graph", last)
	}
	totalRemoved := 0
	for i := 1; i < len(r.Trace); i++ {
		cur, prev := r.Trace[i], r.Trace[i-1]
		if cur.Nodes >= prev.Nodes {
			t.Fatalf("pass %d did not shrink: %d -> %d", i, prev.Nodes, cur.Nodes)
		}
		if cur.Edges > prev.Edges {
			t.Fatalf("pass %d edges grew: %d -> %d", i, prev.Edges, cur.Edges)
		}
		if cur.Removed != prev.Nodes-cur.Nodes {
			t.Fatalf("pass %d removed=%d but nodes %d -> %d", i, cur.Removed, prev.Nodes, cur.Nodes)
		}
		totalRemoved += cur.Removed
	}
	if totalRemoved != g.NumNodes() {
		t.Fatalf("total removed %d, want %d", totalRemoved, g.NumNodes())
	}
}

func TestUndirectedPassBound(t *testing.T) {
	// Lemma 4: passes <= log_{1+eps}(n) + O(1).
	g, _ := gen.ChungLu(5000, 20000, 2.2, 4)
	for _, eps := range []float64{0.5, 1, 2} {
		r, err := Undirected(g, eps, Opts{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		bound := math.Log(float64(g.NumNodes()))/math.Log(1+eps) + 2
		if float64(r.Passes) > bound {
			t.Fatalf("eps=%v: %d passes exceeds bound %.1f", eps, r.Passes, bound)
		}
	}
}

// Property: Algorithm 1 achieves its (2+2ε) guarantee against the exact
// flow solver on random graphs, and never reports better than optimal.
func TestUndirectedApproxGuaranteeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		m := int64(1 + rng.Intn(4*n))
		if maxM := int64(n) * int64(n-1) / 2; m > maxM {
			m = maxM
		}
		g, err := gen.Gnm(n, m, seed)
		if err != nil {
			return false
		}
		exact, err := flow.ExactDensest(context.Background(), g)
		if err != nil {
			return false
		}
		eps := float64(rng.Intn(20)) / 10 // 0 .. 1.9
		r, err := Undirected(g, eps, Opts{Workers: 1})
		if err != nil {
			return false
		}
		if r.Density > exact.Density+1e-9 {
			return false
		}
		return r.Density >= exact.Density/(2+2*eps)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the reported set has exactly the reported density.
func TestUndirectedSetDensityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		m := int64(1 + rng.Intn(3*n))
		if maxM := int64(n) * int64(n-1) / 2; m > maxM {
			m = maxM
		}
		g, err := gen.Gnm(n, m, seed)
		if err != nil {
			return false
		}
		r, err := Undirected(g, 0.7, Opts{Workers: 1})
		if err != nil {
			return false
		}
		d, err := g.SubgraphDensity(r.Set)
		if err != nil {
			return false
		}
		return math.Abs(d-r.Density) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestUndirectedWeightedMatchesUnweightedOnUnitWeights(t *testing.T) {
	f := func(seed int64) bool {
		g, err := gen.Gnm(25, 60, seed)
		if err != nil {
			return false
		}
		a, err := Undirected(g, 0.5, Opts{Workers: 1})
		if err != nil {
			return false
		}
		// Same graph through the weighted code path (weights all 1):
		// identical thresholds, identical batches, identical result.
		b, err := UndirectedWeighted(g, 0.5, Opts{Workers: 1})
		if err != nil {
			return false
		}
		if math.Abs(a.Density-b.Density) > 1e-9 || a.Passes != b.Passes {
			return false
		}
		return len(a.Set) == len(b.Set)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestUndirectedWeightedHeavyCore(t *testing.T) {
	// A weighted instance: heavy triangle inside a light ring.
	b := graph.NewBuilder(10)
	for i := 0; i < 10; i++ {
		_ = b.AddWeightedEdge(int32(i), int32((i+1)%10), 0.1)
	}
	_ = b.AddWeightedEdge(0, 2, 10)
	_ = b.AddWeightedEdge(2, 4, 10)
	_ = b.AddWeightedEdge(0, 4, 10)
	g, _ := b.Freeze()
	r, err := UndirectedWeighted(g, 0.3, Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Heavy triangle density ~ 30/3 = 10 (plus ring fragments); guarantee
	// within 2(1+0.3) of that.
	if r.Density < 10/2.6-1e-9 {
		t.Fatalf("weighted density = %v", r.Density)
	}
}

func TestUndirectedWeightedValidation(t *testing.T) {
	empty, _ := graph.NewBuilder(0).Freeze()
	if _, err := UndirectedWeighted(empty, 0.5, Opts{Workers: 1}); !errors.Is(err, graph.ErrEmptyGraph) {
		t.Fatalf("empty: %v", err)
	}
	g, _ := gen.Clique(3)
	if _, err := UndirectedWeighted(g, -1, Opts{Workers: 1}); err == nil {
		t.Fatal("negative eps accepted")
	}
}

func TestUndirectedLowerBoundInstanceNeedsManyPasses(t *testing.T) {
	// Lemma 5: the union-of-regular-graphs instance forces more passes
	// than a typical social graph of the same size.
	g, err := gen.RegularUnion(5)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Undirected(g, 0.01, Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Passes < 3 {
		t.Fatalf("lower-bound instance finished in %d passes; want >= 3", r.Passes)
	}
	// The densest block G_k is 2^(k-1)-regular with density 2^(k-2) = 8.
	if r.Density < 8/(2+0.02)-1e-9 {
		t.Fatalf("density %v below guarantee on G_k", r.Density)
	}
}
