package charikar

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"densestream/internal/flow"
	"densestream/internal/gen"
	"densestream/internal/graph"
)

func TestDensestClique(t *testing.T) {
	g, _ := gen.Clique(8)
	r, err := Densest(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Density-3.5) > 1e-12 {
		t.Fatalf("K8 density = %v, want 3.5", r.Density)
	}
	if len(r.Set) != 8 || r.Peels != 0 {
		t.Fatalf("set=%d peels=%d", len(r.Set), r.Peels)
	}
}

func TestDensestCliquePlusTail(t *testing.T) {
	// K5 plus a path; greedy should peel the path and find the K5.
	b := graph.NewBuilder(12)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			_ = b.AddEdge(int32(i), int32(j))
		}
	}
	for i := 4; i < 11; i++ {
		_ = b.AddEdge(int32(i), int32(i+1))
	}
	g, _ := b.Freeze()
	r, err := Densest(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Density-2.0) > 1e-12 {
		t.Fatalf("density = %v, want 2 (the K5)", r.Density)
	}
	if len(r.Set) != 5 {
		t.Fatalf("set = %v, want K5 nodes", r.Set)
	}
}

func TestDensestStar(t *testing.T) {
	g, _ := gen.Star(10)
	r, err := Densest(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Density-0.9) > 1e-12 {
		t.Fatalf("star density = %v, want 0.9", r.Density)
	}
}

func TestDensestEdgeCases(t *testing.T) {
	empty, _ := graph.NewBuilder(0).Freeze()
	if _, err := Densest(context.Background(), empty); err == nil {
		t.Fatal("empty graph accepted")
	}
	single, _ := graph.NewBuilder(1).Freeze()
	r, err := Densest(context.Background(), single)
	if err != nil {
		t.Fatal(err)
	}
	if r.Density != 0 || len(r.Set) != 1 {
		t.Fatalf("single node: %+v", r)
	}
	edgeless, _ := graph.NewBuilder(5).Freeze()
	r, err = Densest(context.Background(), edgeless)
	if err != nil {
		t.Fatal(err)
	}
	if r.Density != 0 {
		t.Fatalf("edgeless density = %v", r.Density)
	}
	wb := graph.NewBuilder(2)
	_ = wb.AddWeightedEdge(0, 1, 2)
	wg, _ := wb.Freeze()
	if _, err := Densest(context.Background(), wg); err == nil {
		t.Fatal("weighted graph accepted by unweighted Densest")
	}
}

// Property: greedy is a 2-approximation versus the exact flow solver.
func TestGreedyTwoApproxProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(25)
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
		greedy, err := Densest(context.Background(), g)
		if err != nil {
			return false
		}
		if greedy.Density > exact.Density+1e-9 {
			return false // greedy can never beat the optimum
		}
		return greedy.Density >= exact.Density/2-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the reported set really has the reported density.
func TestGreedySetDensityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		m := int64(rng.Intn(3*n)) + 1
		if maxM := int64(n) * int64(n-1) / 2; m > maxM {
			m = maxM
		}
		g, err := gen.Gnm(n, m, seed)
		if err != nil {
			return false
		}
		r, err := Densest(context.Background(), g)
		if err != nil {
			return false
		}
		d, err := g.SubgraphDensity(r.Set)
		if err != nil {
			return false
		}
		return math.Abs(d-r.Density) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDensestWeightedMatchesUnweighted(t *testing.T) {
	// Tie-breaking differs between the bucket queue and the heap, so the
	// two greedy runs may find different intermediate subgraphs. Both must
	// still be 2-approximations of the same optimum.
	f := func(seed int64) bool {
		g, err := gen.Gnm(20, 50, seed)
		if err != nil {
			return false
		}
		exact, err := flow.ExactDensest(context.Background(), g)
		if err != nil {
			return false
		}
		u, err := Densest(context.Background(), g)
		if err != nil {
			return false
		}
		w, err := DensestWeighted(context.Background(), g)
		if err != nil {
			return false
		}
		ok := func(d float64) bool {
			return d >= exact.Density/2-1e-9 && d <= exact.Density+1e-9
		}
		return ok(u.Density) && ok(w.Density)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDensestWeightedPrefersHeavyClique(t *testing.T) {
	// Two K4s; one has weight-10 edges, the other weight-1.
	b := graph.NewBuilder(8)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			_ = b.AddWeightedEdge(int32(i), int32(j), 10)
			_ = b.AddWeightedEdge(int32(i+4), int32(j+4), 1)
		}
	}
	g, _ := b.Freeze()
	r, err := DensestWeighted(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	// Heavy K4: density 60/4 = 15.
	if math.Abs(r.Density-15) > 1e-9 {
		t.Fatalf("weighted density = %v, want 15", r.Density)
	}
	for _, u := range r.Set {
		if u >= 4 {
			t.Fatalf("set contains light-clique node %d: %v", u, r.Set)
		}
	}
}

func TestDensestWeightedEdgeCases(t *testing.T) {
	empty, _ := graph.NewBuilder(0).Freeze()
	if _, err := DensestWeighted(context.Background(), empty); err == nil {
		t.Fatal("empty accepted")
	}
	single, _ := graph.NewBuilder(1).Freeze()
	r, err := DensestWeighted(context.Background(), single)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Set) != 1 {
		t.Fatalf("single: %+v", r)
	}
}

func TestGreedyOnPlantedRecoversCore(t *testing.T) {
	g, planted, err := gen.PlantedDense(800, 1600, 2.2, 30, 0.95, 17)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Densest(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	plantedDensity, _ := g.SubgraphDensity(planted)
	if r.Density < plantedDensity*0.9 {
		t.Fatalf("greedy density %v far below planted %v", r.Density, plantedDensity)
	}
}
