package graph

import (
	"reflect"
	"testing"
)

// compactReference computes the expected compaction through the
// existing InducedSubgraph machinery (order-preserving relabel of an
// ascending keep list gives the same ids).
func compactReference(t *testing.T, g *Undirected, keep []int32) *Undirected {
	t.Helper()
	sub, _, err := g.InducedSubgraph(keep)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

func TestCompactIntoUndirected(t *testing.T) {
	g := MustFromEdges(8, [][2]int32{
		{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {1, 7},
	})
	var s CompactScratch
	for _, keep := range [][]int32{
		{0, 1, 2, 3},
		{1, 2, 7},
		{0, 4, 6},
		{0, 1, 2, 3, 4, 5, 6, 7},
	} {
		got := g.CompactInto(keep, &s)
		if err := got.Validate(); err != nil {
			t.Fatalf("keep %v: %v", keep, err)
		}
		want := compactReference(t, g, keep)
		if !reflect.DeepEqual(got.EdgeList(), want.EdgeList()) {
			t.Fatalf("keep %v: edges %v, want %v", keep, got.EdgeList(), want.EdgeList())
		}
		if got.NumNodes() != len(keep) || got.NumEdges() != want.NumEdges() {
			t.Fatalf("keep %v: n=%d m=%d, want n=%d m=%d",
				keep, got.NumNodes(), got.NumEdges(), len(keep), want.NumEdges())
		}
	}
}

func TestCompactIntoWeighted(t *testing.T) {
	b := NewBuilder(5)
	for _, e := range []struct {
		u, v int32
		w    float64
	}{{0, 1, 0.5}, {1, 2, 1.25}, {2, 3, 2.5}, {3, 4, 4.75}, {0, 4, 8.125}} {
		if err := b.AddWeightedEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	var s CompactScratch
	keep := []int32{1, 2, 3, 4}
	got := g.CompactInto(keep, &s)
	if !got.Weighted() {
		t.Fatal("weighted graph compacted to unweighted")
	}
	want := compactReference(t, g, keep)
	if !reflect.DeepEqual(got.EdgeList(), want.EdgeList()) {
		t.Fatalf("edges %v, want %v", got.EdgeList(), want.EdgeList())
	}
	if got.TotalWeight() != want.TotalWeight() {
		t.Fatalf("total weight %v, want %v", got.TotalWeight(), want.TotalWeight())
	}
}

// TestCompactIntoScratchReuse compacts through the same scratch twice
// with shrinking keeps — the second result must be correct even though
// the buffers are recycled (the first graph is dead by then).
func TestCompactIntoScratchReuse(t *testing.T) {
	g := MustFromEdges(6, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}})
	var a, b CompactScratch
	g1 := g.CompactInto([]int32{0, 1, 2, 3, 4}, &a)
	g2 := g1.CompactInto([]int32{1, 2, 3}, &b)
	want := MustFromEdges(3, [][2]int32{{0, 1}, {1, 2}})
	if !reflect.DeepEqual(g2.EdgeList(), want.EdgeList()) {
		t.Fatalf("chained compaction edges %v, want %v", g2.EdgeList(), want.EdgeList())
	}
	// Reuse scratch a for a third generation.
	g3 := g2.CompactInto([]int32{0, 1}, &a)
	if g3.NumNodes() != 2 || g3.NumEdges() != 1 {
		t.Fatalf("generation 3: n=%d m=%d, want 2/1", g3.NumNodes(), g3.NumEdges())
	}
}
