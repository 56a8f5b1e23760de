package graph_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"densestream/internal/gen"
	"densestream/internal/graph"
	"densestream/internal/par"
)

// The piece sweep of the degree-ordered rebuild: shrinking
// graph.CompactGrain makes one rebuild cut many pieces, and the result
// at every grain and worker count must equal the one-piece rebuild —
// rows, permutation, RowBanks (whose slab view is the whole adjacency
// array) and totals. At grain 1 every row ends its own piece, so every
// kept row whose original row ends in dropped neighbors takes the
// guarded copy; the larger grains put piece boundaries mid-run, where
// the branch-free copy's stale write into the next row stays inside
// the piece. These tests live outside package graph so they can build
// their inputs with internal/gen.

// pieceGraphs returns the sweep inputs: a Chung–Lu power-law graph, a
// symmetrized RMAT graph, and the hub-and-leaves shape.
func pieceGraphs(t *testing.T) map[string]*graph.Undirected {
	t.Helper()
	cl, err := gen.ChungLu(3000, 15000, 2.2, 41)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := gen.RMAT(11, 12000, gen.DefaultRMAT, 43)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(dg.NumNodes())
	dg.Edges(func(u, v int32) bool {
		err = b.AddEdge(u, v)
		return err == nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rm, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Undirected{
		"chunglu": cl,
		"rmat":    rm,
		"hubs":    hubsAndLeaves(t),
	}
}

// hubsAndLeaves builds 64 hubs in a 16-regular circulant core, each
// carrying 48 leaves with larger ids, so a hub's row ends in its
// leaves.
func hubsAndLeaves(t *testing.T) *graph.Undirected {
	t.Helper()
	const hubs, leaves = 64, 48
	b := graph.NewBuilder(hubs * (1 + leaves))
	add := func(u, v int32) {
		if err := b.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	for h := 0; h < hubs; h++ {
		for s := 1; s <= 8; s++ {
			add(int32(h), int32((h+s)%hubs))
		}
		for l := 0; l < leaves; l++ {
			add(int32(h), int32(hubs+h*leaves+l))
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// pieceKeeps returns keep sets over g: everything, the degree ≥ 3
// survivors a mid-peel compaction sees, the lowest-id third (rows end
// in dropped higher ids), and two random halves.
func pieceKeeps(g *graph.Undirected, seed int64) map[string][]int32 {
	n := g.NumNodes()
	rng := rand.New(rand.NewSource(seed))
	var all, dense, low, rand1, rand2 []int32
	for u := int32(0); int(u) < n; u++ {
		all = append(all, u)
		if g.Degree(u) >= 3 {
			dense = append(dense, u)
		}
		if int(u) < n/3 {
			low = append(low, u)
		}
		if rng.Intn(2) == 0 {
			rand1 = append(rand1, u)
		}
		if rng.Intn(4) > 0 {
			rand2 = append(rand2, u)
		}
	}
	return map[string][]int32{"all": all, "dense": dense, "low": low, "rand50": rand1, "rand75": rand2}
}

// trailingDrops counts the kept rows that keep at least one neighbor
// but end in a dropped one: the rows whose branch-free copy would
// write past their end.
func trailingDrops(g *graph.Undirected, keep []int32) int {
	in := graph.NewBitset(g.NumNodes())
	for _, u := range keep {
		in.Set(u)
	}
	count := 0
	for _, u := range keep {
		row := g.Neighbors(u)
		if len(row) == 0 || in.Test(row[len(row)-1]) {
			continue
		}
		for _, v := range row {
			if in.Test(v) {
				count++
				break
			}
		}
	}
	return count
}

// layoutDiff describes the first difference between two degree-ordered
// rebuilds, or returns "".
func layoutDiff(got *graph.Undirected, gotOrder []int32, want *graph.Undirected, wantOrder []int32) string {
	switch {
	case got.NumNodes() != want.NumNodes():
		return fmt.Sprintf("n=%d, want %d", got.NumNodes(), want.NumNodes())
	case got.NumEdges() != want.NumEdges() || got.TotalWeight() != want.TotalWeight():
		return fmt.Sprintf("m=%d w=%v, want m=%d w=%v", got.NumEdges(), got.TotalWeight(), want.NumEdges(), want.TotalWeight())
	case !reflect.DeepEqual(gotOrder, wantOrder):
		return "permutation differs"
	case !reflect.DeepEqual(got.RowBanks(), want.RowBanks()):
		return "RowBanks (or the adjacency array they view) differ"
	}
	for r := int32(0); int(r) < got.NumNodes(); r++ {
		if !reflect.DeepEqual(got.Neighbors(r), want.Neighbors(r)) {
			return fmt.Sprintf("row %d differs", r)
		}
		if !reflect.DeepEqual(got.NeighborWeights(r), want.NeighborWeights(r)) {
			return fmt.Sprintf("row %d weights differ", r)
		}
	}
	return ""
}

func TestCompactDegreeOrderedPieces(t *testing.T) {
	defer func(grain int64) { graph.CompactGrain = grain }(graph.CompactGrain)
	drops := 0
	var s graph.CompactScratch // shared across runs: reuse must not leak state
	for name, g := range pieceGraphs(t) {
		for kname, keep := range pieceKeeps(g, 7) {
			drops += trailingDrops(g, keep)
			graph.CompactGrain = math.MaxInt64
			var sRef graph.CompactScratch
			want, wantOrder := g.CompactIntoDegreeOrdered(par.New(1), keep, &sRef)
			if err := want.Validate(); err != nil {
				t.Fatalf("%s/%s: one-piece rebuild: %v", name, kname, err)
			}
			for _, grain := range []int64{1, 3, 64, 1000} {
				graph.CompactGrain = grain
				for _, workers := range []int{1, 2, 3, 8} {
					got, order := g.CompactIntoDegreeOrdered(par.New(workers), keep, &s)
					if d := layoutDiff(got, order, want, wantOrder); d != "" {
						t.Fatalf("%s/%s grain=%d workers=%d: %s", name, kname, grain, workers, d)
					}
				}
			}
		}
	}
	if drops == 0 {
		t.Fatal("no kept row ends in a dropped neighbor; the guarded piece-final copy went untested")
	}
}
