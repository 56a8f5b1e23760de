package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randomEdges builds a shuffled multigraph edge list (duplicates
// included) with small-integer weights, so duplicate-weight sums are
// exact in float64 and independent of accumulation order.
func randomEdges(n, m int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		edges = append(edges, Edge{U: u, V: v, Weight: float64(1 + rng.Intn(4))})
	}
	return edges
}

func TestSortEdgesParallelMatchesSequential(t *testing.T) {
	edges := randomEdges(500, 200000, 17)
	seq := append([]Edge(nil), edges...)
	old := sortRunSize
	defer func() { sortRunSize = old }()

	sortRunSize = len(edges) + 1 // sequential path
	sortEdges(seq)
	for _, runSize := range []int{1 << 10, 1 << 14} {
		parallel := append([]Edge(nil), edges...)
		sortRunSize = runSize
		sortEdges(parallel)
		for i := 1; i < len(parallel); i++ {
			if compareEdges(parallel[i], parallel[i-1]) < 0 {
				t.Fatalf("runSize=%d: out of order at %d", runSize, i)
			}
		}
		for i := range parallel {
			if parallel[i].U != seq[i].U || parallel[i].V != seq[i].V {
				t.Fatalf("runSize=%d: key order differs at %d: %+v vs %+v",
					runSize, i, parallel[i], seq[i])
			}
		}
	}
}

// referenceSortEdges is the order sortEdges must produce, ties
// included, written with sort.Slice: each run sorted on its own, then
// a stable sort of the whole, which is what merging the runs in a
// binary tree that prefers the left run on ties amounts to.
func referenceSortEdges(edges []Edge) {
	less := func(a, b Edge) bool { return a.U < b.U || a.U == b.U && a.V < b.V }
	for lo := 0; lo < len(edges); lo += sortRunSize {
		run := edges[lo:min(lo+sortRunSize, len(edges))]
		sort.Slice(run, func(i, j int) bool { return less(run[i], run[j]) })
	}
	sort.SliceStable(edges, func(i, j int) bool { return less(edges[i], edges[j]) })
}

// TestFreezeWeightedTieOrder freezes a multigraph whose parallel copies
// carry distinct non-integer weights, so the order in which the sort
// leaves tied edges decides the summed weights bit for bit. It checks
// the sort against the reference and Freeze's merged weights against
// sums taken in the reference order.
func TestFreezeWeightedTieOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 40 // 780 pairs for 150,000 edges: ~190 copies each
	edges := make([]Edge, 0, 150000)
	for len(edges) < cap(edges) {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u < v {
			edges = append(edges, Edge{U: u, V: v, Weight: 0.01 + rng.Float64()})
		}
	}
	old := sortRunSize
	defer func() { sortRunSize = old }()
	for _, runSize := range []int{len(edges) + 1, 1 << 10, 1 << 14, old} {
		sortRunSize = runSize
		got := append([]Edge(nil), edges...)
		sortEdges(got)
		want := append([]Edge(nil), edges...)
		referenceSortEdges(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("runSize=%d: sorted edges differ from the reference", runSize)
		}

		var sums []Edge
		for _, e := range want {
			if k := len(sums) - 1; k >= 0 && sums[k].U == e.U && sums[k].V == e.V {
				sums[k].Weight += e.Weight
			} else {
				sums = append(sums, e)
			}
		}
		b := NewBuilder(n)
		for _, e := range edges {
			if err := b.AddWeightedEdge(e.U, e.V, e.Weight); err != nil {
				t.Fatal(err)
			}
		}
		g, err := b.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g.EdgeList(), sums) {
			t.Fatalf("runSize=%d: merged weights differ from sums in reference order", runSize)
		}
	}
}

func TestFreezeParallelMatchesSequentialGraph(t *testing.T) {
	edges := randomEdges(300, 100000, 23)
	old := sortRunSize
	defer func() { sortRunSize = old }()

	freezeDirected := func(runSize int) *Directed {
		sortRunSize = runSize
		b := NewDirectedBuilder(300)
		for i, e := range edges {
			u, v := e.U, e.V
			if i%2 == 1 {
				u, v = v, u
			}
			if err := b.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
		g, err := b.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	seqDirected := freezeDirected(len(edges) + 1)
	for _, runSize := range []int{1 << 9, 1 << 13} {
		if !reflect.DeepEqual(freezeDirected(runSize), seqDirected) {
			t.Fatalf("runSize=%d: directed graph differs from sequential Freeze", runSize)
		}
	}

	freeze := func(runSize int) *Undirected {
		sortRunSize = runSize
		b := NewBuilder(300)
		for _, e := range edges {
			if err := b.AddWeightedEdge(e.U, e.V, e.Weight); err != nil {
				t.Fatal(err)
			}
		}
		g, err := b.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	seq := freeze(len(edges) + 1)
	for _, runSize := range []int{1 << 9, 1 << 13} {
		got := freeze(runSize)
		if got.NumNodes() != seq.NumNodes() || got.NumEdges() != seq.NumEdges() {
			t.Fatalf("runSize=%d: shape %d/%d vs %d/%d", runSize,
				got.NumNodes(), got.NumEdges(), seq.NumNodes(), seq.NumEdges())
		}
		type rec struct {
			U, V int32
			W    float64
		}
		collect := func(g *Undirected) []rec {
			var out []rec
			g.Edges(func(u, v int32, w float64) bool {
				out = append(out, rec{u, v, w})
				return true
			})
			return out
		}
		if !reflect.DeepEqual(collect(got), collect(seq)) {
			t.Fatalf("runSize=%d: merged edge set differs from sequential Freeze", runSize)
		}
	}
}

// BenchmarkFreezeSort measures the Freeze edge sort sequential vs
// parallel on a multi-million-edge builder (the ROADMAP CSR item's
// first step).
func BenchmarkFreezeSort(b *testing.B) {
	base := randomEdges(200000, 1<<21, 1)
	old := sortRunSize
	defer func() { sortRunSize = old }()
	for _, mode := range []struct {
		name string
		run  int
	}{
		{"sequential", len(base) + 1},
		{"parallel", old},
	} {
		b.Run(mode.name, func(b *testing.B) {
			sortRunSize = mode.run
			buf := make([]Edge, len(base))
			b.SetBytes(int64(len(base)) * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(buf, base)
				b.StartTimer()
				sortEdges(buf)
			}
		})
	}
}
