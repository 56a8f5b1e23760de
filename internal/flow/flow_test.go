package flow

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"densestream/internal/gen"
	"densestream/internal/graph"
)

func TestMaxFlowTiny(t *testing.T) {
	// s=0, t=3: two disjoint paths of capacity 2 and 3.
	nw := NewNetwork(4, 4)
	mustArc := func(u, v int32, c int64) {
		t.Helper()
		if err := nw.AddArc(u, v, c); err != nil {
			t.Fatal(err)
		}
	}
	mustArc(0, 1, 2)
	mustArc(1, 3, 2)
	mustArc(0, 2, 3)
	mustArc(2, 3, 3)
	f, err := nw.MaxFlow(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f != 5 {
		t.Fatalf("max flow = %d, want 5", f)
	}
}

func TestMaxFlowBottleneck(t *testing.T) {
	// Diamond with a cross arc; classic value check.
	nw := NewNetwork(4, 5)
	_ = nw.AddArc(0, 1, 10)
	_ = nw.AddArc(0, 2, 10)
	_ = nw.AddArc(1, 2, 1)
	_ = nw.AddArc(1, 3, 4)
	_ = nw.AddArc(2, 3, 9)
	f, err := nw.MaxFlow(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f != 13 {
		t.Fatalf("max flow = %d, want 13", f)
	}
}

func TestMaxFlowErrors(t *testing.T) {
	nw := NewNetwork(2, 1)
	if err := nw.AddArc(0, 5, 1); err == nil {
		t.Fatal("out-of-range arc accepted")
	}
	if err := nw.AddArc(0, 1, -1); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if err := nw.AddArcPair(0, 9, 1); err == nil {
		t.Fatal("out-of-range arc pair accepted")
	}
	if err := nw.AddArcPair(0, 1, -2); err == nil {
		t.Fatal("negative pair capacity accepted")
	}
	if _, err := nw.MaxFlow(context.Background(), 0, 0); err == nil {
		t.Fatal("s == t accepted")
	}
	if _, err := nw.MaxFlow(context.Background(), 0, 7); err == nil {
		t.Fatal("t out of range accepted")
	}
}

func TestMinCutSource(t *testing.T) {
	// One saturated arc separates {0,1} from {2}.
	nw := NewNetwork(3, 2)
	_ = nw.AddArc(0, 1, 5)
	_ = nw.AddArc(1, 2, 1)
	if _, err := nw.MaxFlow(context.Background(), 0, 2); err != nil {
		t.Fatal(err)
	}
	side := nw.MinCutSource(0)
	if len(side) != 2 {
		t.Fatalf("cut side = %v, want {0,1}", side)
	}
}

func TestExactDensestClique(t *testing.T) {
	g, _ := gen.Clique(6)
	r, err := ExactDensest(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Density-2.5) > 1e-12 {
		t.Fatalf("K6 density = %v, want 2.5", r.Density)
	}
	if len(r.Set) != 6 {
		t.Fatalf("K6 optimal set size = %d, want 6", len(r.Set))
	}
	if r.Numer != 15 || r.Denom != 6 {
		t.Fatalf("rational = %d/%d, want 15/6", r.Numer, r.Denom)
	}
}

func TestExactDensestCliquePlusTail(t *testing.T) {
	// K5 (density 2) plus a long path; optimum is the clique alone.
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
	r, err := ExactDensest(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Density-2.0) > 1e-12 {
		t.Fatalf("density = %v, want 2", r.Density)
	}
	if len(r.Set) != 5 {
		t.Fatalf("set = %v, want the K5", r.Set)
	}
}

func TestExactDensestStar(t *testing.T) {
	g, _ := gen.Star(10)
	r, err := ExactDensest(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	// Star: any S containing the center and k leaves has density k/(k+1);
	// optimum is the full star, 9/10.
	if math.Abs(r.Density-0.9) > 1e-12 {
		t.Fatalf("star density = %v, want 0.9", r.Density)
	}
}

func TestExactDensestEdgeCases(t *testing.T) {
	empty, _ := graph.NewBuilder(0).Freeze()
	if _, err := ExactDensest(context.Background(), empty); !errors.Is(err, graph.ErrEmptyGraph) {
		t.Fatalf("empty: %v", err)
	}
	isolated, _ := graph.NewBuilder(3).Freeze()
	r, err := ExactDensest(context.Background(), isolated)
	if err != nil {
		t.Fatal(err)
	}
	if r.Density != 0 {
		t.Fatalf("edgeless density = %v", r.Density)
	}
	wb := graph.NewBuilder(2)
	_ = wb.AddWeightedEdge(0, 1, 2.0)
	wg, _ := wb.Freeze()
	if _, err := ExactDensest(context.Background(), wg); err == nil {
		t.Fatal("weighted graph accepted by exact solver")
	}
}

func TestExactMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(9) // 4..12 nodes
		maxM := int64(n) * int64(n-1) / 2
		m := int64(rng.Intn(int(maxM))) + 1
		g, err := gen.Gnm(n, m, seed)
		if err != nil {
			return false
		}
		exact, err := ExactDensest(context.Background(), g)
		if err != nil {
			return false
		}
		_, bruteD, err := BruteForceDensest(g)
		if err != nil {
			return false
		}
		return math.Abs(exact.Density-bruteD) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestExactOnPlanted(t *testing.T) {
	g, planted, err := gen.PlantedDense(400, 800, 2.2, 20, 1.0, 13)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ExactDensest(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	plantedDensity, _ := g.SubgraphDensity(planted)
	if r.Density < plantedDensity-1e-9 {
		t.Fatalf("exact density %v below planted %v", r.Density, plantedDensity)
	}
	if r.FlowCalls < 1 {
		t.Fatal("no flow calls recorded")
	}
}

func TestBruteForceDirected(t *testing.T) {
	// {0,1} -> {2,3,4} complete: optimum ρ = 6/sqrt(6).
	var edges [][2]int32
	for _, u := range []int32{0, 1} {
		for _, v := range []int32{2, 3, 4} {
			edges = append(edges, [2]int32{u, v})
		}
	}
	g := graph.MustFromDirectedEdges(5, edges)
	s, tt, d, err := BruteForceDirectedDensest(g)
	if err != nil {
		t.Fatal(err)
	}
	want := 6.0 / math.Sqrt(6.0)
	if math.Abs(d-want) > 1e-12 {
		t.Fatalf("directed brute = %v, want %v", d, want)
	}
	if len(s) != 2 || len(tt) != 3 {
		t.Fatalf("S=%v T=%v", s, tt)
	}
}

func TestBruteForceLimits(t *testing.T) {
	big, _ := graph.NewBuilder(BruteMaxNodes + 1).Freeze()
	if _, _, err := BruteForceDensest(big); err == nil {
		t.Fatal("oversized brute accepted")
	}
	empty, _ := graph.NewBuilder(0).Freeze()
	if _, _, err := BruteForceDensest(empty); !errors.Is(err, graph.ErrEmptyGraph) {
		t.Fatalf("empty: %v", err)
	}
	bigD, _ := graph.NewDirectedBuilder(13).Freeze()
	if _, _, _, err := BruteForceDirectedDensest(bigD); err == nil {
		t.Fatal("oversized directed brute accepted")
	}
	emptyD, _ := graph.NewDirectedBuilder(0).Freeze()
	if _, _, _, err := BruteForceDirectedDensest(emptyD); !errors.Is(err, graph.ErrEmptyGraph) {
		t.Fatalf("empty directed: %v", err)
	}
}

// Property: the exact solver's witness set really has the reported density
// and no single-node deletion improves it (local optimality sanity).
func TestExactWitnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(20)
		m := int64(1 + rng.Intn(3*n))
		if maxM := int64(n) * int64(n-1) / 2; m > maxM {
			m = maxM
		}
		g, err := gen.Gnm(n, m, seed)
		if err != nil {
			return false
		}
		r, err := ExactDensest(context.Background(), g)
		if err != nil {
			return false
		}
		d, err := g.SubgraphDensity(r.Set)
		if err != nil {
			return false
		}
		if math.Abs(d-r.Density) > 1e-9 {
			return false
		}
		// Optimality implies deg_S(i) >= ρ(S) for all i in S (eq. 4.1).
		in := make(map[int32]bool)
		for _, u := range r.Set {
			in[u] = true
		}
		for _, u := range r.Set {
			deg := 0
			for _, v := range g.Neighbors(u) {
				if in[v] {
					deg++
				}
			}
			if float64(deg) < r.Density-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
