package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"densestream/internal/flow"
	"densestream/internal/gen"
	"densestream/internal/graph"
)

func TestAtLeastKReturnsLargeEnoughSet(t *testing.T) {
	g, _ := gen.ChungLu(1000, 4000, 2.2, 5)
	for _, k := range []int{1, 10, 100, 500} {
		r, err := AtLeastK(g, k, 0.5, Opts{Workers: 1})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(r.Set) < k {
			t.Fatalf("k=%d: |set| = %d", k, len(r.Set))
		}
		d, err := g.SubgraphDensity(r.Set)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(d-r.Density) > 1e-9 {
			t.Fatalf("k=%d: set density %v != reported %v", k, d, r.Density)
		}
	}
}

func TestAtLeastKValidation(t *testing.T) {
	g, _ := gen.Clique(5)
	if _, err := AtLeastK(g, 0, 0.5, Opts{Workers: 1}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := AtLeastK(g, 6, 0.5, Opts{Workers: 1}); err == nil {
		t.Fatal("k > n accepted")
	}
	if _, err := AtLeastK(g, 2, -1, Opts{Workers: 1}); err == nil {
		t.Fatal("bad eps accepted")
	}
	empty, _ := graph.NewBuilder(0).Freeze()
	if _, err := AtLeastK(empty, 1, 0.5, Opts{Workers: 1}); err == nil {
		t.Fatal("empty graph accepted")
	}
	wb := graph.NewBuilder(2)
	_ = wb.AddWeightedEdge(0, 1, 1)
	wg, _ := wb.Freeze()
	if _, err := AtLeastK(wg, 1, 0.5, Opts{Workers: 1}); err == nil {
		t.Fatal("weighted graph accepted")
	}
}

func TestAtLeastKWholeGraph(t *testing.T) {
	g, _ := gen.Clique(6)
	r, err := AtLeastK(g, 6, 0.5, Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Set) != 6 || math.Abs(r.Density-2.5) > 1e-12 {
		t.Fatalf("got |set|=%d density=%v", len(r.Set), r.Density)
	}
}

func TestAtLeastKStopsEarly(t *testing.T) {
	// Lemma 11: the loop stops once |S| < k, so large k means few passes.
	g, _ := gen.ChungLu(2000, 8000, 2.2, 6)
	small, err := AtLeastK(g, 1, 0.5, Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	large, err := AtLeastK(g, 1500, 0.5, Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if large.Passes >= small.Passes {
		t.Fatalf("k=1500 took %d passes, k=1 took %d; early stop broken",
			large.Passes, small.Passes)
	}
}

// Property: Algorithm 2 achieves (3+3ε) versus the brute-force optimum
// restricted to size >= k, and (2+2ε) when the optimum is larger than k.
func TestAtLeastKApproxGuaranteeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(12) // brute force territory
		m := int64(3 + rng.Intn(3*n))
		if maxM := int64(n) * int64(n-1) / 2; m > maxM {
			m = maxM
		}
		g, err := gen.Gnm(n, m, seed)
		if err != nil {
			return false
		}
		k := 2 + rng.Intn(n/2)
		eps := 0.1 + float64(rng.Intn(10))/10
		optSet, optD, err := flow.BruteForceDensestAtLeastK(g, k)
		if err != nil {
			return false
		}
		r, err := AtLeastK(g, k, eps, Opts{Workers: 1})
		if err != nil {
			return false
		}
		if len(r.Set) < k {
			return false
		}
		if r.Density > optD+1e-9 {
			return false // cannot beat the restricted optimum
		}
		guarantee := optD / (3 + 3*eps)
		if len(optSet) > k {
			guarantee = optD / (2 + 2*eps)
		}
		return r.Density >= guarantee-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAtLeastKPlantedLargeSubgraph(t *testing.T) {
	// Plant a moderately dense subgraph of 40 nodes; with k=40 the
	// algorithm must return something at least that good / (3+3eps).
	g, planted, err := gen.PlantedDense(500, 1000, 2.2, 40, 0.5, 21)
	if err != nil {
		t.Fatal(err)
	}
	r, err := AtLeastK(g, 40, 0.5, Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	plantedD, _ := g.SubgraphDensity(planted)
	if r.Density < plantedD/(3+1.5)-1e-9 {
		t.Fatalf("density %v below (3+3ε) of planted %v", r.Density, plantedD)
	}
	if len(r.Set) < 40 {
		t.Fatalf("|set| = %d < k", len(r.Set))
	}
}
