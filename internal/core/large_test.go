package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
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

// TestLowestKeyMatchesSort holds the quota cut's selection to a full
// sort by (degree, id): for each quota, lowestKey must return the key
// of the quota-th pair, over int32 and float64 degrees with heavy
// ties, negative values, infinities and NaN (which cmp.Compare orders
// lowest), and quotas from 1 to the full length.
func TestLowestKeyMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ints := []struct {
		name string
		deg  func(int) int32
	}{
		{"one-degree", func(int) int32 { return 6 }},
		{"heavy-ties", func(int) int32 { return int32(rng.Intn(4)) }},
		{"negative", func(int) int32 { return int32(rng.Intn(101) - 50) }},
		{"ascending", func(i int) int32 { return int32(i) }},
		{"descending", func(i int) int32 { return int32(-i) }},
		{"wide-spread", func(int) int32 { return rng.Int31() - math.MaxInt32/2 }},
	}
	floats := []struct {
		name string
		deg  func(int) float64
	}{
		{"one-degree", func(int) float64 { return 2.5 }},
		{"heavy-ties", func(int) float64 { return float64(rng.Intn(7) - 3) }},
		{"negative", func(int) float64 { return -rng.Float64() }},
		{"specials", func(int) float64 {
			return []float64{math.NaN(), math.Inf(-1), math.Inf(1), 0, -1, 1}[rng.Intn(6)]
		}},
	}
	for _, n := range []int{1, 2, 7, 1000} {
		for _, c := range ints {
			checkLowestKey(t, rng, c.name, n, c.deg)
		}
		for _, c := range floats {
			checkLowestKey(t, rng, c.name, n, c.deg)
		}
	}
}

func checkLowestKey[D int32 | float64](t *testing.T, rng *rand.Rand, name string, n int, deg func(int) D) {
	t.Helper()
	type pair struct {
		d  D
		id int32
	}
	ids, degs := make([]int32, n), make([]D, n)
	sorted := make([]pair, n)
	id := int32(0)
	for i := range ids {
		id += 1 + int32(rng.Intn(3)) // ascending, with gaps
		ids[i], degs[i] = id, deg(i)
		sorted[i] = pair{degs[i], id}
	}
	slices.SortFunc(sorted, func(a, b pair) int {
		if c := cmp.Compare(a.d, b.d); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	var sel []D
	for _, quota := range []int{1, 2, n / 2, n - 1, n, 1 + rng.Intn(n)} {
		if quota < 1 || quota > n {
			continue
		}
		d, id := lowestKey(ids, degs, &sel, quota)
		want := sorted[quota-1]
		if cmp.Compare(d, want.d) != 0 || id != want.id {
			t.Fatalf("%T %s n=%d quota=%d: key (%v, %d), sort says (%v, %d)", d, name, n, quota, d, id, want.d, want.id)
		}
	}
}
