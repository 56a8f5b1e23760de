package densestream_test

// Acceptance sweep for the out-of-core edge I/O layer: the sharded
// file scan and the spill-enabled MapReduce backend must return
// bit-identical Solutions to the sequential/resident paths at every
// shard/worker count, on ChungLu and RMAT inputs, both in-memory and
// from disk.

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	ds "densestream"
)

// writeEdgeFile dumps an undirected graph as an edge-list file.
func writeEdgeFile(t *testing.T, g *ds.UndirectedGraph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteUndirected(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeDirectedEdgeFile(t *testing.T, g *ds.DirectedGraph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "d.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteDirected(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// stripStats clears the fields that legitimately vary across the sweep
// (I/O volume, per-round wall clock and machine attribution) so the
// algorithmic content can be compared with reflect.DeepEqual.
func stripStats(sol *ds.Solution) *ds.Solution {
	c := *sol
	c.Stats = ds.SolveStats{}
	c.MRRounds = nil
	c.MRDirectedRounds = nil
	return &c
}

// outOfCoreGraphs returns the sweep inputs: ChungLu and an undirected
// RMAT rebuild.
func outOfCoreGraphs(t *testing.T) []*ds.UndirectedGraph {
	t.Helper()
	cl, err := ds.GenerateChungLu(1200, 7000, 2.1, 21)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := ds.GenerateRMAT(10, 6000, 27)
	if err != nil {
		t.Fatal(err)
	}
	b := ds.NewBuilder(rm.NumNodes())
	rm.Edges(func(u, v int32) bool {
		if u != v {
			if err := b.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
		return true
	})
	rmu, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return []*ds.UndirectedGraph{cl, rmu}
}

// TestOutOfCoreFileStreamParity: `-algo stream` on a disk input must be
// bit-identical for every worker count, and identical to the in-memory
// stream of the same edge sequence.
func TestOutOfCoreFileStreamParity(t *testing.T) {
	for gi, g := range outOfCoreGraphs(t) {
		path := writeEdgeFile(t, g)
		ref := solveOK(t, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendStream, Eps: 0.5, Graph: g}, ds.WithWorkers(1))
		var want *ds.Solution
		for _, workers := range []int{1, 2, 4, 8} {
			sol := solveOK(t, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendStream, Eps: 0.5, Path: path}, ds.WithWorkers(workers))
			if sol.Stats.BytesScanned == 0 {
				t.Fatalf("graph %d workers=%d: BytesScanned not reported", gi, workers)
			}
			got := stripStats(sol)
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("graph %d workers=%d: sharded file solve differs", gi, workers)
			}
		}
		if want.Density != ref.Density || want.Passes != ref.Passes || !reflect.DeepEqual(want.Set, ref.Set) {
			t.Fatalf("graph %d: file solve differs from in-memory stream", gi)
		}
	}
}

// TestOutOfCorePathNodeIDsByBackend pins the node-id rule of a Path
// input (see Problem.Path): BackendPeel solves the graph that
// ReadUndirectedFile loads, with labels renumbered in first-seen order,
// while BackendStream reads the file's ids as given, so on this file
// the two return different sets.
func TestOutOfCorePathNodeIDsByBackend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte("5 6\n6 7\n5 7\n0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, _, err := ds.ReadUndirectedFile(path, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := solveOK(t, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendPeel, Eps: 0.5, Graph: g})
	peel := solveOK(t, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendPeel, Eps: 0.5, Path: path})
	if !reflect.DeepEqual(peel, want) {
		t.Fatalf("Peel on the path = %+v, want Peel on ReadUndirectedFile's graph %+v", peel, want)
	}
	mr := solveOK(t, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendMapReduce, Eps: 0.5, Path: path})
	for _, sol := range []*ds.Solution{peel, mr} {
		if !reflect.DeepEqual(sol.Set, []int32{0, 1, 2, 3, 4}) || sol.Density != 0.8 {
			t.Fatalf("%s on the path: Set %v at density %v, want [0 1 2 3 4] at 0.8", sol.Backend, sol.Set, sol.Density)
		}
	}
	st := solveOK(t, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendStream, Eps: 0.5, Path: path})
	if !reflect.DeepEqual(st.Set, []int32{5, 6, 7}) || st.Density != 1 {
		t.Fatalf("Stream on the path: Set %v at density %v, want [5 6 7] at 1", st.Set, st.Density)
	}
}

// TestOutOfCoreAtLeastKFileParity is the sharded AtLeastK disk sweep.
func TestOutOfCoreAtLeastKFileParity(t *testing.T) {
	g := outOfCoreGraphs(t)[0]
	path := writeEdgeFile(t, g)
	var want *ds.Solution
	for _, workers := range []int{1, 2, 4, 8} {
		sol := solveOK(t, ds.Problem{Objective: ds.ObjectiveAtLeastK, Backend: ds.BackendStream, K: 50, Eps: 0.5, Path: path}, ds.WithWorkers(workers))
		got := stripStats(sol)
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: AtLeastK file solve differs", workers)
		}
	}
}

// TestOutOfCoreDirectedFileParity is the directed disk sweep.
func TestOutOfCoreDirectedFileParity(t *testing.T) {
	g, err := ds.GenerateChungLuDirected(800, 5000, 2.2, 31)
	if err != nil {
		t.Fatal(err)
	}
	path := writeDirectedEdgeFile(t, g)
	var want *ds.Solution
	for _, workers := range []int{1, 2, 4, 8} {
		sol := solveOK(t, ds.Problem{Objective: ds.ObjectiveDirected, Backend: ds.BackendStream, C: 1, Eps: 0.5, Path: path}, ds.WithWorkers(workers))
		got := stripStats(sol)
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: directed file solve differs", workers)
		}
	}
}

// TestOutOfCoreWeightedFileParity is the weighted disk sweep: the
// float-lane striped counter must be worker-invariant.
func TestOutOfCoreWeightedFileParity(t *testing.T) {
	g := outOfCoreGraphs(t)[0]
	// Dyadic weights via a rebuild, so the parallel fold is exact.
	b := ds.NewBuilder(g.NumNodes())
	i := 0
	g.Edges(func(u, v int32, _ float64) bool {
		i++
		if err := b.AddWeightedEdge(u, v, 0.5*float64(1+i%4)); err != nil {
			t.Fatal(err)
		}
		return true
	})
	wg, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	path := writeEdgeFile(t, wg)
	var want *ds.Solution
	for _, workers := range []int{1, 2, 4, 8} {
		sol := solveOK(t, ds.Problem{Objective: ds.ObjectiveWeighted, Backend: ds.BackendStream, Eps: 0.5, Path: path}, ds.WithWorkers(workers))
		got := stripStats(sol)
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: weighted file solve differs", workers)
		}
	}
}

// TestOutOfCoreMapReduceSpillParity: the spill-enabled MapReduce
// backend must be bit-identical to the resident one, from both graph
// and file inputs, with spilling actually observed under tight
// budgets.
func TestOutOfCoreMapReduceSpillParity(t *testing.T) {
	spillDir := t.TempDir()
	for gi, g := range outOfCoreGraphs(t) {
		path := writeEdgeFile(t, g)
		var want, fwant *ds.Solution
		for i, cfg := range []ds.MRConfig{
			{Mappers: 4, Reducers: 4},
			{Mappers: 4, Reducers: 4, SpillBytes: 1 << 13, SpillDir: spillDir},
			{Mappers: 4, Reducers: 4, SpillBytes: 1, SpillDir: spillDir},
		} {
			sol := solveOK(t, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendMapReduce, Eps: 0.5, Graph: g}, ds.WithMapReduceConfig(cfg))
			if cfg.SpillBytes > 0 && sol.Stats.BytesSpilled == 0 {
				t.Fatalf("graph %d cfg %d: budget %d spilled nothing", gi, i, cfg.SpillBytes)
			}
			got := stripStats(sol)
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("graph %d cfg %d: spilled MR solve differs from resident", gi, i)
			}
			// Same config from the file input. The file drops isolated
			// nodes and re-interns labels, so it is its own baseline:
			// every budget must agree with the resident file-backed run
			// bit for bit.
			fsol := solveOK(t, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendMapReduce, Eps: 0.5, Path: path}, ds.WithMapReduceConfig(cfg))
			fgot := stripStats(fsol)
			if fwant == nil {
				fwant = fgot
			} else if !reflect.DeepEqual(fgot, fwant) {
				t.Fatalf("graph %d cfg %d: file-backed spilled MR differs from file-backed resident", gi, i)
			}
		}
	}
	entries, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("spill dir not cleaned: %d entries", len(entries))
	}
}
