package kcore

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"densestream/internal/gen"
	"densestream/internal/graph"
)

func TestDecomposeTriangleWithTail(t *testing.T) {
	// Triangle 0-1-2 plus a path 2-3-4.
	g := graph.MustFromEdges(5, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}})
	d, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{2, 2, 2, 1, 1}
	for u, c := range d.Core {
		if c != want[u] {
			t.Errorf("core(%d) = %d, want %d", u, c, want[u])
		}
	}
	if d.Degeneracy() != 2 {
		t.Fatalf("degeneracy = %d", d.Degeneracy())
	}
	if err := Verify(g, d); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeClique(t *testing.T) {
	g, _ := gen.Clique(7)
	d, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	for u, c := range d.Core {
		if c != 6 {
			t.Fatalf("core(%d) = %d, want 6", u, c)
		}
	}
}

func TestDecomposeEmptyGraph(t *testing.T) {
	g, _ := graph.NewBuilder(0).Freeze()
	if _, err := Decompose(g); !errors.Is(err, graph.ErrEmptyGraph) {
		t.Fatalf("got %v, want ErrEmptyGraph", err)
	}
}

func TestDecomposeNoEdges(t *testing.T) {
	g, _ := graph.NewBuilder(4).Freeze()
	d, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	for u, c := range d.Core {
		if c != 0 {
			t.Fatalf("core(%d) = %d, want 0", u, c)
		}
	}
	if len(d.DCore(1)) != 0 {
		t.Fatal("1-core of edgeless graph should be empty")
	}
	if len(d.DCore(0)) != 4 {
		t.Fatal("0-core should contain all nodes")
	}
}

func TestDCore(t *testing.T) {
	// K4 attached to a path.
	g := graph.MustFromEdges(6, [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5},
	})
	d, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	three := d.DCore(3)
	if len(three) != 4 {
		t.Fatalf("3-core size = %d, want 4", len(three))
	}
	for _, u := range three {
		if u > 3 {
			t.Fatalf("3-core contains %d", u)
		}
	}
}

func TestBestCoreOnPlanted(t *testing.T) {
	g, planted, err := gen.PlantedDense(500, 1000, 2.2, 25, 0.95, 11)
	if err != nil {
		t.Fatal(err)
	}
	set, density, err := BestCore(g)
	if err != nil {
		t.Fatal(err)
	}
	plantedDensity, _ := g.SubgraphDensity(planted)
	// Best core is a 2-approx, and on planted instances it should recover
	// nearly the planted density.
	if density < plantedDensity/2 {
		t.Fatalf("best core density %v < planted/2 %v", density, plantedDensity/2)
	}
	got, err := g.SubgraphDensity(set)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-density) > 1e-9 {
		t.Fatalf("reported density %v but set has %v", density, got)
	}
}

func TestBestCoreErrors(t *testing.T) {
	g, _ := graph.NewBuilder(0).Freeze()
	if _, _, err := BestCore(g); err == nil {
		t.Fatal("empty graph accepted")
	}
}

// TestBestCoreIgnoresWeights: K4 with weight-10 edges plus a two-edge
// weight-1 tail has its densest core in the K4, at 6/4 edges per node,
// exactly as the unweighted copy does. A total-weight start (62/6)
// would beat every unweighted suffix and return all six nodes.
func TestBestCoreIgnoresWeights(t *testing.T) {
	edges := [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}}
	b := graph.NewBuilder(6)
	for i, e := range edges {
		w := 10.0
		if i >= 6 {
			w = 1
		}
		if err := b.AddWeightedEdge(e[0], e[1], w); err != nil {
			t.Fatal(err)
		}
	}
	weighted, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Undirected{weighted, graph.MustFromEdges(6, edges)} {
		set, density, err := BestCore(g)
		if err != nil {
			t.Fatal(err)
		}
		sorted := append([]int32(nil), set...)
		slices.Sort(sorted)
		if !slices.Equal(sorted, []int32{0, 1, 2, 3}) || density != 1.5 {
			t.Fatalf("weighted=%v: BestCore = %v at %v, want the K4 [0 1 2 3] at 1.5", g.Weighted(), set, density)
		}
	}
}

// Property: core numbers are monotone under the defining inequality
// core(u) <= degree(u), and Verify passes on random graphs.
func TestDecomposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		m := int64(2 * n)
		if maxM := int64(n) * int64(n-1) / 2; m > maxM {
			m = maxM
		}
		g, err := gen.Gnm(n, m, seed)
		if err != nil {
			return false
		}
		d, err := Decompose(g)
		if err != nil {
			return false
		}
		for u := int32(0); int(u) < n; u++ {
			if d.Core[u] > int32(g.Degree(u)) {
				return false
			}
		}
		return Verify(g, d) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: BestCore density >= half of any single clique we plant.
func TestBestCoreApproxProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 40 + rng.Intn(60)
		k := 6 + rng.Intn(8)
		b := graph.NewBuilder(n)
		// Sparse background ring.
		for i := 0; i < n; i++ {
			_ = b.AddEdge(int32(i), int32((i+1)%n))
		}
		// Planted clique on the first k nodes.
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				_ = b.AddEdge(int32(i), int32(j))
			}
		}
		g, err := b.Freeze()
		if err != nil {
			return false
		}
		_, density, err := BestCore(g)
		if err != nil {
			return false
		}
		cliqueDensity := float64(k-1) / 2
		return density >= cliqueDensity/2-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
