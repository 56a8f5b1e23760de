package graph

import (
	"math/rand"
	"reflect"
	"testing"

	"densestream/internal/par"
)

// The relabel property sweep: over random unweighted graphs and random
// keep-sets, the degree-ordered compactor and the order-preserving one
// must describe the same subgraph — identical de-relabeled edge sets —
// while the degree-ordered layout additionally
// keeps its rank invariant (row lengths non-increasing) and a RowBanks
// view that agrees with the CSR row by row.

// buildRandom freezes a random simple unweighted graph on n nodes with
// roughly m distinct edges (duplicates merge).
func buildRandom(t *testing.T, n, m int, seed int64) *Undirected {
	t.Helper()
	b := NewBuilder(n)
	for _, e := range randomEdges(n, m, seed) {
		if err := b.AddEdge(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomKeep draws a non-empty ascending subset of [0, n).
func randomKeep(rng *rand.Rand, n int) []int32 {
	p := 0.1 + 0.8*rng.Float64()
	keep := make([]int32, 0, n)
	for u := 0; u < n; u++ {
		if rng.Float64() < p {
			keep = append(keep, int32(u))
		}
	}
	if len(keep) == 0 {
		keep = append(keep, int32(rng.Intn(n)))
	}
	return keep
}

// edgeSet canonicalizes a compacted graph back into original-id space
// through a rank → original-id map.
func edgeSet(g *Undirected, origOf func(int32) int32) map[[2]int32]float64 {
	set := make(map[[2]int32]float64)
	g.Edges(func(u, v int32, w float64) bool {
		a, b := origOf(u), origOf(v)
		if a > b {
			a, b = b, a
		}
		set[[2]int32{a, b}] = w
		return true
	})
	return set
}

func checkBanks(t *testing.T, g *Undirected, rng *rand.Rand) {
	t.Helper()
	b := g.RowBanks()
	if b == nil {
		t.Fatal("degree-ordered compaction produced no RowBanks")
	}
	n := g.NumNodes()
	// Spill prefix is exactly the over-stride rows.
	for r := int32(0); int(r) < n; r++ {
		if over := g.Degree(r) > bankMaxStride; over != (r < b.SpillEnd) {
			t.Fatalf("rank %d: degree %d vs SpillEnd %d", r, g.Degree(r), b.SpillEnd)
		}
	}
	// Class decomposition tiles [SpillEnd, n) and mirrors the CSR rows.
	at := b.SpillEnd
	for c := 0; c < b.Classes(); c++ {
		first, end, deg := b.Class(c)
		if first != at || end <= first {
			t.Fatalf("class %d covers [%d,%d), expected to start at %d", c, first, end, at)
		}
		at = end
		for r := first; r < end; r++ {
			if int32(g.Degree(r)) != deg {
				t.Fatalf("rank %d in class %d: degree %d, class stride %d", r, c, g.Degree(r), deg)
			}
		}
	}
	if int(at) != n {
		t.Fatalf("classes end at %d, want %d", at, n)
	}
	// CountLive against a brute-force recount under a random alive set.
	alive := NewBitset(n)
	var ids []int32
	for r := b.SpillEnd; int(r) < n; r++ {
		if rng.Intn(2) == 0 {
			alive.Set(r)
		}
		if rng.Intn(4) > 0 {
			ids = append(ids, r)
		}
	}
	got := make([]int32, n)
	want := make([]int32, n)
	var wantTotal int64
	for _, r := range ids {
		cnt := int32(0)
		for _, nb := range g.Neighbors(r) {
			cnt += alive.Bit(nb)
		}
		want[r] = cnt
		wantTotal += int64(cnt)
	}
	if gotTotal := b.CountLive(ids, alive, got); gotTotal != wantTotal {
		t.Fatalf("CountLive total %d, want %d", gotTotal, wantTotal)
	}
	for _, r := range ids {
		if got[r] != want[r] {
			t.Fatalf("CountLive rank %d: %d, want %d", r, got[r], want[r])
		}
	}
}

func TestCompactDegreeOrderedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(271828))
	var sOrd, sRef CompactScratch
	for trial := 0; trial < 40; trial++ {
		pool := par.New(1 + trial%4)
		n := 2 + rng.Intn(500)
		m := rng.Intn(4*n) + 1
		g := buildRandom(t, n, m, int64(1000+trial))
		keep := randomKeep(rng, n)

		got, order := g.CompactIntoDegreeOrdered(pool, keep, &sOrd)
		ref := g.CompactInto(keep, &sRef)
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		// Same subgraph after de-relabeling both layouts.
		gotSet := edgeSet(got, func(r int32) int32 { return order[r] })
		refSet := edgeSet(ref, func(i int32) int32 { return keep[i] })
		if !reflect.DeepEqual(gotSet, refSet) {
			t.Fatalf("trial %d (n=%d keep=%d): degree-ordered layout describes a different subgraph", trial, n, len(keep))
		}
		if got.NumEdges() != ref.NumEdges() || got.TotalWeight() != ref.TotalWeight() {
			t.Fatalf("trial %d: m=%d/%d w=%v/%v", trial, got.NumEdges(), ref.NumEdges(), got.TotalWeight(), ref.TotalWeight())
		}

		// Hub-first rank invariant, ties in ascending keep order.
		for r := 1; r < got.NumNodes(); r++ {
			if got.Degree(int32(r)) > got.Degree(int32(r-1)) {
				t.Fatalf("trial %d: rank %d degree %d exceeds rank %d's %d",
					trial, r, got.Degree(int32(r)), r-1, got.Degree(int32(r-1)))
			}
			if got.Degree(int32(r)) == got.Degree(int32(r-1)) && order[r] < order[r-1] {
				t.Fatalf("trial %d: equal-degree ranks %d,%d not in keep order", trial, r-1, r)
			}
		}
		checkBanks(t, got, rng)
	}
}

// TestCompactDegreeOrderedSpill forces the spill lane: a hub whose row
// is longer than any bank stride must land in the spill prefix while
// the leaf classes stay banked and consistent.
func TestCompactDegreeOrderedSpill(t *testing.T) {
	const leaves = bankMaxStride + 500
	b := NewBuilder(leaves + 1)
	for l := 1; l <= leaves; l++ {
		if err := b.AddEdge(0, int32(l)); err != nil {
			t.Fatal(err)
		}
		if err := b.AddEdge(int32(l), int32(1+l%leaves)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	keep := make([]int32, g.NumNodes())
	for i := range keep {
		keep[i] = int32(i)
	}
	var s CompactScratch
	got, order := g.CompactIntoDegreeOrdered(par.New(2), keep, &s)
	banks := got.RowBanks()
	if banks.SpillEnd != 1 || order[0] != 0 {
		t.Fatalf("SpillEnd=%d order[0]=%d; want the hub alone in the spill lane", banks.SpillEnd, order[0])
	}
	checkBanks(t, got, rand.New(rand.NewSource(7)))
}
