package densestream_test

// Determinism contract of the MapReduce runtime, mirroring
// parallel_test.go for the third execution model: every simulated
// cluster shape — Config{1,1}, Config{8,8}, uneven shapes, multiple
// machines, with or without the degree-job combiner — must return a
// bit-identical Solution on power-law (Chung–Lu) and RMAT graphs. The
// rounds' Wall and PerMachine are the only fields allowed to differ:
// they describe the run's cluster, not the algorithm, and are
// normalized away before comparison.

import (
	"context"
	"reflect"
	"testing"

	ds "densestream"
	"densestream/internal/gen"
)

// mrShapes is the cluster-shape sweep shared by the tests below. The
// Combine knob is exercised separately: it changes the recorded shuffle
// volume (that is its purpose), never the result.
var mrShapes = []ds.MRConfig{
	{Mappers: 1, Reducers: 1},
	{Mappers: 8, Reducers: 8},
	{Mappers: 3, Reducers: 5},
	{Mappers: 4, Reducers: 2, Machines: 4},
	{Mappers: 2, Reducers: 2, Machines: 8},
}

// solveMR runs p on BackendMapReduce and normalizes the result.
func solveMR(t *testing.T, p ds.Problem, opts ...ds.Option) *ds.Solution {
	t.Helper()
	p.Backend = ds.BackendMapReduce
	sol, err := ds.Solve(context.Background(), p, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return normalizeMR(sol)
}

// normalizeMR zeroes the cluster-only fields of a Solution's round
// traces: the wall clock and the per-machine shuffle attribution.
func normalizeMR(sol *ds.Solution) *ds.Solution {
	for i := range sol.MRRounds {
		sol.MRRounds[i].Wall = 0
		sol.MRRounds[i].PerMachine = nil
	}
	for i := range sol.MRDirectedRounds {
		sol.MRDirectedRounds[i].Wall = 0
		sol.MRDirectedRounds[i].PerMachine = nil
	}
	return sol
}

func TestMapReduceShapeDeterminismUndirected(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		g, err := gen.ChungLu(4000, 20000, 2.1, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0, 1} {
			p := ds.Problem{Objective: ds.ObjectiveUndirected, Eps: eps, Graph: g}
			want := solveMR(t, p, ds.WithMapReduceConfig(mrShapes[0]))
			for _, cfg := range mrShapes[1:] {
				got := solveMR(t, p, ds.WithMapReduceConfig(cfg))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed=%d eps=%v cfg=%+v: Solution differs from 1×1 cluster", seed, eps, cfg)
				}
			}
		}
	}
}

// A zero MapReduce config means the default cluster, not a validation
// error.
func TestWithOptionsZeroMRConfigFallsBack(t *testing.T) {
	g, err := gen.ChungLu(500, 2000, 2.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendMapReduce, Eps: 1, Graph: g}
	r, err := ds.Solve(context.Background(), p, ds.WithWorkers(4), ds.WithMapReduceConfig(ds.MRConfig{}))
	if err != nil {
		t.Fatalf("zero MapReduce config: %v", err)
	}
	ref := solveMR(t, p)
	if !reflect.DeepEqual(normalizeMR(r), ref) {
		t.Fatal("zero MRConfig fallback disagrees with the default config")
	}
}

// The degree-job combiner must not change what is computed — only cut
// the shuffle volume of the degree rounds.
func TestMapReduceCombinerShrinksShuffleOnly(t *testing.T) {
	g, err := gen.ChungLu(4000, 20000, 2.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	prob := ds.Problem{Objective: ds.ObjectiveUndirected, Eps: 1, Graph: g}
	plain := solveMR(t, prob, ds.WithMapReduceConfig(ds.MRConfig{Mappers: 4, Reducers: 4}))
	combined := solveMR(t, prob, ds.WithMapReduceConfig(ds.MRConfig{Mappers: 4, Reducers: 4, Combine: true}))
	if !reflect.DeepEqual(plain.Set, combined.Set) || plain.Density != combined.Density || plain.Passes != combined.Passes {
		t.Fatal("combiner changed the result")
	}
	if combined.MRRounds[0].Shuffle >= plain.MRRounds[0].Shuffle {
		t.Fatalf("combiner did not shrink the first round's shuffle: %d vs %d",
			combined.MRRounds[0].Shuffle, plain.MRRounds[0].Shuffle)
	}
	for i := range plain.MRRounds {
		p, c := plain.MRRounds[i], combined.MRRounds[i]
		if p.Nodes != c.Nodes || p.Edges != c.Edges || p.Density != c.Density || p.Removed != c.Removed {
			t.Fatalf("round %d: algorithmic fields differ with combiner", i+1)
		}
	}
}

func TestMapReduceShapeDeterminismDirectedRMAT(t *testing.T) {
	g, err := gen.RMAT(11, 12000, gen.DefaultRMAT, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{0.5, 2} {
		p := ds.Problem{Objective: ds.ObjectiveDirected, C: c, Eps: 0.5, Directed: g}
		want := solveMR(t, p, ds.WithMapReduceConfig(mrShapes[0]))
		for _, cfg := range mrShapes[1:] {
			got := solveMR(t, p, ds.WithMapReduceConfig(cfg))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("c=%v cfg=%+v: Solution differs from 1×1 cluster", c, cfg)
			}
		}
	}
}

func TestMapReduceShapeDeterminismAtLeastK(t *testing.T) {
	g, err := gen.ChungLu(3000, 12000, 2.1, 13)
	if err != nil {
		t.Fatal(err)
	}
	p := ds.Problem{Objective: ds.ObjectiveAtLeastK, K: 100, Eps: 0.5, Graph: g}
	want := solveMR(t, p, ds.WithMapReduceConfig(mrShapes[0]))
	for _, cfg := range mrShapes[1:] {
		got := solveMR(t, p, ds.WithMapReduceConfig(cfg))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cfg=%+v: AtLeastK Solution differs from 1×1 cluster", cfg)
		}
	}
	// And the MR result still agrees with the in-memory reference.
	p.Backend = ds.BackendPeel
	mem, err := ds.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if mem.Density != want.Density || mem.Passes != want.Passes {
		t.Fatalf("MR (ρ=%v, %d passes) disagrees with in-memory (ρ=%v, %d passes)",
			want.Density, want.Passes, mem.Density, mem.Passes)
	}
}
