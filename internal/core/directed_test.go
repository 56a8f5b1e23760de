package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"densestream/internal/flow"
	"densestream/internal/gen"
	"densestream/internal/graph"
)

func completeBipartiteDirected(t *testing.T, ns, nt int) *graph.Directed {
	t.Helper()
	b := graph.NewDirectedBuilder(ns + nt)
	for u := 0; u < ns; u++ {
		for v := 0; v < nt; v++ {
			if err := b.AddEdge(int32(u), int32(ns+v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDirectedCompleteBipartite(t *testing.T) {
	// 4 sources -> 9 targets, all edges present. Optimum S = sources,
	// T = targets, ρ = 36/sqrt(36) = 6, at c = 4/9.
	g := completeBipartiteDirected(t, 4, 9)
	r, err := Directed(g, 4.0/9.0, 0.1, Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Density < 6/(2+0.2)-1e-9 {
		t.Fatalf("density = %v, below guarantee", r.Density)
	}
	d, err := g.SubgraphDensity(r.S, r.T)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-r.Density) > 1e-9 {
		t.Fatalf("set density %v != reported %v", d, r.Density)
	}
}

func TestDirectedValidation(t *testing.T) {
	g := graph.MustFromDirectedEdges(2, [][2]int32{{0, 1}})
	for _, c := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := Directed(g, c, 0.5, Opts{Workers: 1}); err == nil {
			t.Fatalf("c=%v accepted", c)
		}
	}
	if _, err := Directed(g, 1, -0.5, Opts{Workers: 1}); err == nil {
		t.Fatal("negative eps accepted")
	}
	empty, _ := graph.NewDirectedBuilder(0).Freeze()
	if _, err := Directed(empty, 1, 0.5, Opts{Workers: 1}); !errors.Is(err, graph.ErrEmptyGraph) {
		t.Fatalf("empty: %v", err)
	}
}

func TestDirectedEdgeless(t *testing.T) {
	g, _ := graph.NewDirectedBuilder(3).Freeze()
	r, err := Directed(g, 1, 0.5, Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Density != 0 {
		t.Fatalf("density = %v", r.Density)
	}
}

func TestDirectedTraceConsistency(t *testing.T) {
	g, err := gen.ChungLuDirected(1000, 5000, 2.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Directed(g, 1, 1, Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trace) != r.Passes+1 {
		t.Fatalf("trace %d, passes %d", len(r.Trace), r.Passes)
	}
	for i := 1; i < len(r.Trace); i++ {
		cur, prev := r.Trace[i], r.Trace[i-1]
		switch cur.PeeledSide {
		case 'S':
			if cur.SizeS >= prev.SizeS || cur.SizeT != prev.SizeT {
				t.Fatalf("pass %d S-peel inconsistent: %+v -> %+v", i, prev, cur)
			}
		case 'T':
			if cur.SizeT >= prev.SizeT || cur.SizeS != prev.SizeS {
				t.Fatalf("pass %d T-peel inconsistent: %+v -> %+v", i, prev, cur)
			}
		default:
			t.Fatalf("pass %d has side %q", i, cur.PeeledSide)
		}
		if cur.Edges > prev.Edges {
			t.Fatalf("pass %d edges grew", i)
		}
	}
	last := r.Trace[len(r.Trace)-1]
	if last.SizeS != 0 && last.SizeT != 0 {
		t.Fatalf("final state not empty: %+v", last)
	}
}

func TestDirectedPassBound(t *testing.T) {
	g, err := gen.ChungLuDirected(3000, 15000, 2.2, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.5, 1, 2} {
		r, err := Directed(g, 1, eps, Opts{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Lemma 13: each pass shrinks S or T by 1/(1+eps), so passes are
		// at most 2·log_{1+ε}(n) + O(1).
		bound := 2*math.Log(float64(g.NumNodes()))/math.Log(1+eps) + 3
		if float64(r.Passes) > bound {
			t.Fatalf("eps=%v: %d passes > bound %.1f", eps, r.Passes, bound)
		}
	}
}

// Property: with the true optimal c, Algorithm 3 meets its (2+2ε) bound
// against the directed brute force on tiny graphs.
func TestDirectedApproxGuaranteeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(5) // brute force over S,T pairs: keep tiny
		m := int64(2 + rng.Intn(2*n))
		g, err := gen.GnmDirected(n, m, seed)
		if err != nil {
			return false
		}
		if g.NumEdges() == 0 {
			return true
		}
		sOpt, tOpt, optD, err := flow.BruteForceDirectedDensest(g)
		if err != nil {
			return false
		}
		c := float64(len(sOpt)) / float64(len(tOpt))
		eps := 0.1 + float64(rng.Intn(10))/10
		r, err := Directed(g, c, eps, Opts{Workers: 1})
		if err != nil {
			return false
		}
		if r.Density > optD+1e-9 {
			return false
		}
		return r.Density >= optD/(2+2*eps)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectedSweepFindsPlantedBlock(t *testing.T) {
	// Background + dense 20->30 block; the sweep should find a pair with
	// density near the block's.
	b := graph.NewDirectedBuilder(500)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 1500; i++ {
		u, v := int32(rng.Intn(500)), int32(rng.Intn(500))
		if u != v {
			_ = b.AddEdge(u, v)
		}
	}
	for u := 0; u < 20; u++ {
		for v := 20; v < 50; v++ {
			_ = b.AddEdge(int32(u), int32(v))
		}
	}
	g, _ := b.Freeze()
	sweep, err := DirectedSweep(g, 2, 0.5, Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	blockDensity := 600.0 / math.Sqrt(20*30) // ~24.5
	if sweep.Best.Density < blockDensity/(2+1)/2 {
		t.Fatalf("sweep best %v too far below planted block %v", sweep.Best.Density, blockDensity)
	}
	if len(sweep.Points) < 3 {
		t.Fatalf("sweep tried only %d values of c", len(sweep.Points))
	}
	// Points must be in increasing c order and include c < 1 and c > 1.
	for i := 1; i < len(sweep.Points); i++ {
		if sweep.Points[i].C <= sweep.Points[i-1].C {
			t.Fatalf("sweep points out of order at %d", i)
		}
	}
	if sweep.Points[0].C >= 1 || sweep.Points[len(sweep.Points)-1].C <= 1 {
		t.Fatalf("sweep range [%v, %v] does not straddle 1",
			sweep.Points[0].C, sweep.Points[len(sweep.Points)-1].C)
	}
}

func TestDirectedSweepValidation(t *testing.T) {
	g := graph.MustFromDirectedEdges(2, [][2]int32{{0, 1}})
	if _, err := DirectedSweep(g, 1, 0.5, Opts{Workers: 1}); err == nil {
		t.Fatal("delta=1 accepted")
	}
	if _, err := DirectedSweep(g, 0.5, 0.5, Opts{Workers: 1}); err == nil {
		t.Fatal("delta<1 accepted")
	}
	empty, _ := graph.NewDirectedBuilder(0).Freeze()
	if _, err := DirectedSweep(empty, 2, 0.5, Opts{Workers: 1}); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestDirectedAlternatesSides(t *testing.T) {
	// With c=1 on an asymmetric graph the algorithm should peel both sides
	// at least once (the "alternate nature" visible in Figure 6.5).
	g, err := gen.ChungLuDirected(500, 3000, 2.1, 9)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Directed(g, 1, 1, Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sawS, sawT bool
	for _, st := range r.Trace[1:] {
		if st.PeeledSide == 'S' {
			sawS = true
		}
		if st.PeeledSide == 'T' {
			sawT = true
		}
	}
	if !sawS || !sawT {
		t.Fatalf("expected both sides peeled; sawS=%v sawT=%v", sawS, sawT)
	}
}
