package densestream_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	ds "densestream"
)

// buildTestGraph returns a K6 (density 2.5) attached to a sparse path.
func buildTestGraph(t *testing.T) *ds.UndirectedGraph {
	t.Helper()
	b := ds.NewBuilder(20)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			if err := b.AddEdge(int32(i), int32(j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 5; i < 19; i++ {
		if err := b.AddEdge(int32(i), int32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPublicAPIPipeline(t *testing.T) {
	g := buildTestGraph(t)

	exact := solveOK(t, ds.Problem{Objective: ds.ObjectiveExact, Graph: g})
	if math.Abs(exact.Density-2.5) > 1e-12 {
		t.Fatalf("exact = %v, want 2.5", exact.Density)
	}

	approx := solveOK(t, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendPeel, Eps: 0.5, Graph: g})
	if approx.Density < exact.Density/3-1e-9 {
		t.Fatalf("approx %v below (2+2ε) guarantee of %v", approx.Density, exact.Density)
	}

	greedy := solveOK(t, ds.Problem{Objective: ds.ObjectiveGreedy, Graph: g})
	if greedy.Density < exact.Density/2-1e-9 {
		t.Fatalf("greedy %v below 2-approx of %v", greedy.Density, exact.Density)
	}

	_, coreDensity, err := ds.BestCore(g)
	if err != nil {
		t.Fatal(err)
	}
	if coreDensity < exact.Density/2-1e-9 {
		t.Fatalf("best core %v below 2-approx", coreDensity)
	}

	atLeast := solveOK(t, ds.Problem{Objective: ds.ObjectiveAtLeastK, Backend: ds.BackendPeel, K: 10, Eps: 0.5, Graph: g})
	if len(atLeast.Set) < 10 {
		t.Fatalf("AtLeastK returned %d nodes", len(atLeast.Set))
	}

	mr := solveOK(t, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendMapReduce, Eps: 0.5, Graph: g})
	if math.Abs(mr.Density-approx.Density) > 1e-9 {
		t.Fatalf("MapReduce %v != in-memory %v", mr.Density, approx.Density)
	}

	st := solveOK(t, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendStream, Eps: 0.5, Edges: ds.StreamGraph(g)})
	if math.Abs(st.Density-approx.Density) > 1e-9 {
		t.Fatalf("Streaming %v != in-memory %v", st.Density, approx.Density)
	}

	sk := solveOK(t, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendStreamSketched, Eps: 0.5, Edges: ds.StreamGraph(g)},
		ds.WithSketch(ds.SketchConfig{Tables: 5, Buckets: 512, Seed: 1}))
	if mem := sk.SketchMemoryWords; mem != 5*512 {
		t.Fatalf("sketch memory = %d", mem)
	}
	if sk.Density < exact.Density/4 {
		t.Fatalf("sketched density %v collapsed", sk.Density)
	}
}

func TestPublicAPIDirected(t *testing.T) {
	b := ds.NewDirectedBuilder(30)
	for u := 0; u < 5; u++ {
		for v := 5; v < 15; v++ {
			if err := b.AddEdge(int32(u), int32(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 15; i < 29; i++ {
		_ = b.AddEdge(int32(i), int32(i+1))
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}

	r := solveOK(t, ds.Problem{Objective: ds.ObjectiveDirected, Backend: ds.BackendPeel, C: 0.5, Eps: 0.5, Directed: g})
	blockDensity := 50.0 / math.Sqrt(5*10)
	if r.Density < blockDensity/3-1e-9 {
		t.Fatalf("directed %v below guarantee of %v", r.Density, blockDensity)
	}

	sweep := solveOK(t, ds.Problem{Objective: ds.ObjectiveDirectedSweep, Backend: ds.BackendPeel, Delta: 2, Eps: 0.5, Directed: g}).Sweep
	if sweep.Best.Density < r.Density-1e-9 {
		t.Fatalf("sweep %v worse than single c %v", sweep.Best.Density, r.Density)
	}

	sr := solveOK(t, ds.Problem{Objective: ds.ObjectiveDirected, Backend: ds.BackendStream, C: 0.5, Eps: 0.5, Edges: ds.StreamDirectedGraph(g)})
	if math.Abs(sr.Density-r.Density) > 1e-9 {
		t.Fatalf("streaming directed %v != in-memory %v", sr.Density, r.Density)
	}

	mr := solveOK(t, ds.Problem{Objective: ds.ObjectiveDirected, Backend: ds.BackendMapReduce, C: 0.5, Eps: 0.5, Directed: g})
	if math.Abs(mr.Density-r.Density) > 1e-9 {
		t.Fatalf("MR directed %v != in-memory %v", mr.Density, r.Density)
	}
}

func TestPublicAPIReadWrite(t *testing.T) {
	in := "# toy graph\na b\nb c\nc a\n"
	g, lm, err := ds.ReadUndirected(strings.NewReader(in), false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if id, ok := lm.Lookup("b"); !ok || lm.Label(id) != "b" {
		t.Fatal("label map broken")
	}
	var buf bytes.Buffer
	if err := ds.WriteUndirected(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ds.ReadUndirected(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 3 {
		t.Fatalf("round trip m=%d", g2.NumEdges())
	}

	din := "x y\ny z\n"
	dg, _, err := ds.ReadDirected(strings.NewReader(din))
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := ds.WriteDirected(&buf, dg); err != nil {
		t.Fatal(err)
	}
	if s := ds.StatsDirected(dg); s.Edges != 2 {
		t.Fatalf("directed stats: %+v", s)
	}
	if s := ds.Stats(g); s.Nodes != 3 || s.MaxDegree != 2 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestPublicAPIGenerators(t *testing.T) {
	g, err := ds.GenerateGnm(100, 300, 1)
	if err != nil || g.NumNodes() != 100 {
		t.Fatalf("Gnm: %v", err)
	}
	cl, err := ds.GenerateChungLu(100, 300, 2.2, 1)
	if err != nil || cl.NumNodes() != 100 {
		t.Fatalf("ChungLu: %v", err)
	}
	cld, err := ds.GenerateChungLuDirected(100, 300, 2.2, 1)
	if err != nil || cld.NumNodes() != 100 {
		t.Fatalf("ChungLuDirected: %v", err)
	}
	rm, err := ds.GenerateRMAT(8, 500, 1)
	if err != nil || rm.NumNodes() != 256 {
		t.Fatalf("RMAT: %v", err)
	}
	pd, planted, err := ds.GeneratePlantedDense(200, 400, 2.2, 20, 0.9, 1)
	if err != nil || pd == nil || len(planted) != 20 {
		t.Fatalf("PlantedDense: %v", err)
	}
	cg, assign, err := ds.GenerateCommunities([]int{30, 30}, 0.3, 0.02, 1)
	if err != nil || cg.NumNodes() != 60 || len(assign) != 60 {
		t.Fatalf("Communities: %v", err)
	}
	lf, farm, targets, err := ds.GenerateLinkFarm(8, 500, 20, 3, 0.2, 1)
	if err != nil || lf == nil || len(farm) != 20 || len(targets) != 3 {
		t.Fatalf("LinkFarm: %v", err)
	}
}

func TestPublicAPIWeighted(t *testing.T) {
	b := ds.NewBuilder(6)
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			_ = b.AddWeightedEdge(int32(i), int32(j), 5)
		}
	}
	_ = b.AddWeightedEdge(3, 4, 0.1)
	_ = b.AddWeightedEdge(4, 5, 0.1)
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	r := solveOK(t, ds.Problem{Objective: ds.ObjectiveWeighted, Backend: ds.BackendPeel, Eps: 0.5, Graph: g})
	if r.Density < 15.0/3/3 {
		t.Fatalf("weighted density %v", r.Density)
	}
	// ObjectiveGreedy peels by weighted degree on a weighted graph.
	gw := solveOK(t, ds.Problem{Objective: ds.ObjectiveGreedy, Graph: g})
	if gw.Density < 15.0/3/2-1e-9 {
		t.Fatalf("greedy weighted %v", gw.Density)
	}
}
