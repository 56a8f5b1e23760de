package graph

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"densestream/internal/par"
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

// chungLuEdges draws m edges with Chung–Lu endpoint weights (degree
// exponent 2.2) over n nodes, then permutes the ids, so the list is in
// load order: hubs anywhere in the id space, edges in no order. Edges
// are normalized to U < V, as Builder.AddEdge stores them, and carry a
// weight in (0, 1].
func chungLuEdges(n, m int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	cum := make([]float64, n+1)
	for i := range n {
		cum[i+1] = cum[i] + math.Pow(float64(i+1), -1/1.2)
	}
	perm := rng.Perm(n)
	node := func() int32 {
		i, _ := slices.BinarySearch(cum[1:], rng.Float64()*cum[n])
		return int32(perm[min(i, n-1)])
	}
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		if u, v := node(), node(); u != v {
			edges = append(edges, Edge{U: min(u, v), V: max(u, v), Weight: 1 - rng.Float64()})
		}
	}
	return edges
}

// rmatEdges draws m edges of the recursive matrix model (a=0.57,
// b=c=0.19, d=0.05) on 2^scale nodes, normalized and weighted as
// chungLuEdges does.
func rmatEdges(scale, m int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		var u, v int32
		for range scale {
			r := rng.Float64()
			u, v = u<<1, v<<1
			switch {
			case r < 0.57:
			case r < 0.76:
				v |= 1
			case r < 0.95:
				u |= 1
			default:
				u, v = u|1, v|1
			}
		}
		if u != v {
			edges = append(edges, Edge{U: min(u, v), V: max(u, v), Weight: 1 - rng.Float64()})
		}
	}
	return edges
}

// compareUV orders edges by (U, V).
func compareUV(a, b Edge) int {
	return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
}

// refFreeze is the sort-based reference build: sort the whole edge
// list by (U, V), merge parallel copies in the sorted order, then fill
// the rows by walking the merged list, which leaves every row
// ascending. The sort is not stable, so a weighted result is the
// reference only where no edge has more than two copies: a sum of two
// terms does not depend on their order.
func refFreeze(n int, edges []Edge, weighted bool) *Undirected {
	edges = slices.Clone(edges)
	slices.SortFunc(edges, compareUV)
	merged := edges[:0]
	for _, e := range edges {
		if k := len(merged); k > 0 && merged[k-1].U == e.U && merged[k-1].V == e.V {
			merged[k-1].Weight += e.Weight
			continue
		}
		merged = append(merged, e)
	}
	g := &Undirected{n: n, m: int64(len(merged)), offsets: make([]int32, n+1)}
	for _, e := range merged {
		g.offsets[e.U+1]++
		g.offsets[e.V+1]++
	}
	for i := range n {
		g.offsets[i+1] += g.offsets[i]
	}
	g.adj = make([]int32, 2*len(merged))
	if weighted {
		g.weights = make([]float64, 2*len(merged))
	}
	cursor := slices.Clone(g.offsets[:n])
	for _, e := range merged {
		g.adj[cursor[e.U]] = e.V
		g.adj[cursor[e.V]] = e.U
		if weighted {
			g.weights[cursor[e.U]] = e.Weight
			g.weights[cursor[e.V]] = e.Weight
		}
		cursor[e.U]++
		cursor[e.V]++
		g.totalW += e.Weight
	}
	if !weighted {
		g.totalW = float64(len(merged))
	}
	return g
}

// refFreezeDirected is refFreeze for a directed edge list.
func refFreezeDirected(n int, edges []Edge) *Directed {
	edges = slices.Clone(edges)
	slices.SortFunc(edges, compareUV)
	edges = slices.CompactFunc(edges, func(a, b Edge) bool { return compareUV(a, b) == 0 })
	g := &Directed{n: n, m: int64(len(edges)), outOffsets: make([]int32, n+1), inOffsets: make([]int32, n+1)}
	for _, e := range edges {
		g.outOffsets[e.U+1]++
		g.inOffsets[e.V+1]++
	}
	for i := range n {
		g.outOffsets[i+1] += g.outOffsets[i]
		g.inOffsets[i+1] += g.inOffsets[i]
	}
	g.outAdj = make([]int32, len(edges))
	g.inAdj = make([]int32, len(edges))
	outCur, inCur := slices.Clone(g.outOffsets[:n]), slices.Clone(g.inOffsets[:n])
	for _, e := range edges {
		g.outAdj[outCur[e.U]] = e.V
		outCur[e.U]++
		g.inAdj[inCur[e.V]] = e.U
		inCur[e.V]++
	}
	return g
}

// directedOf flips every other edge of an undirected list, so both
// directions of a pair occur.
func directedOf(edges []Edge) []Edge {
	out := slices.Clone(edges)
	for i := 1; i < len(out); i += 2 {
		out[i].U, out[i].V = out[i].V, out[i].U
	}
	return out
}

// unitWeights returns edges with every weight 1, as AddEdge stores them.
func unitWeights(edges []Edge) []Edge {
	out := slices.Clone(edges)
	for i := range out {
		out[i].Weight = 1
	}
	return out
}

// atMostTwoCopies drops the third and later copies of every edge.
func atMostTwoCopies(edges []Edge) []Edge {
	seen := map[[2]int32]int{}
	var out []Edge
	for _, e := range edges {
		if k := [2]int32{e.U, e.V}; seen[k] < 2 {
			seen[k]++
			out = append(out, e)
		}
	}
	return out
}

// freezeCase is one input of the Freeze parity sweeps.
type freezeCase struct {
	name  string
	n     int
	edges []Edge
}

func freezeCases() []freezeCase {
	var dups []Edge
	for range 100 {
		dups = append(dups, Edge{U: 0, V: 1, Weight: 0.5}, Edge{U: 2, V: 3, Weight: 0.25})
	}
	rng := rand.New(rand.NewSource(3))
	var hub []Edge
	for v := int32(1); v < 1000; v++ {
		hub = append(hub, Edge{U: 0, V: v, Weight: rng.Float64() + 0.1})
		if v%7 == 0 {
			hub = append(hub, Edge{U: 0, V: v, Weight: 2})
		}
	}
	rng.Shuffle(len(hub), func(i, j int) { hub[i], hub[j] = hub[j], hub[i] })
	multi := randomEdges(300, 20000, 23)
	rng.Shuffle(len(multi), func(i, j int) { multi[i], multi[j] = multi[j], multi[i] })
	return []freezeCase{
		{"empty", 0, nil},
		{"no-edges", 5, nil},
		{"n=1", 1, nil},
		{"isolated-trailing", 50, randomEdges(10, 40, 1)},
		{"all-duplicates", 4, dups},
		{"hub", 1000, hub},
		{"chung-lu", 3000, chungLuEdges(3000, 20000, 5)},
		{"rmat", 1 << 12, rmatEdges(12, 20000, 6)},
		{"multigraph", 300, multi},
	}
}

// parityPools and parityGrains are the worker counts and row-piece
// grains the Freeze parity sweeps run at: at grain 16 the scatter cuts
// as many pieces as the pool has workers, and the row sort many pieces.
var (
	parityPools  = []int{1, 2, 3, 8}
	parityGrains = []int64{CompactGrain, 16}
)

// forPoolsAndGrains runs fn at every parity pool width and grain.
func forPoolsAndGrains(t *testing.T, fn func(pool *par.Pool, label string)) {
	t.Helper()
	defer func(grain int64) { CompactGrain = grain }(CompactGrain)
	for _, grain := range parityGrains {
		CompactGrain = grain
		for _, w := range parityPools {
			fn(par.New(w), fmt.Sprintf("workers=%d grain=%d", w, grain))
		}
	}
}

// TestFreezeMatchesReference checks the counting build against the
// sort-based reference at every pool width and grain: unweighted and
// directed graphs field for field, and weighted graphs field for field
// where no edge has more than two copies. The rows' arrays must also
// have no spare capacity: a multigraph's scatter array, one entry per
// copy, must not stay resident behind the frozen graph.
func TestFreezeMatchesReference(t *testing.T) {
	for _, tc := range freezeCases() {
		unweighted := unitWeights(tc.edges)
		weighted := atMostTwoCopies(tc.edges)
		directed := directedOf(unweighted)
		wantU := refFreeze(tc.n, unweighted, false)
		wantW := refFreeze(tc.n, weighted, len(weighted) > 0)
		wantD := refFreezeDirected(tc.n, directed)
		forPoolsAndGrains(t, func(pool *par.Pool, label string) {
			g, err := freezeUndirected(pool, tc.n, unweighted, false)
			if err != nil || !reflect.DeepEqual(g, wantU) {
				t.Fatalf("%s %s: unweighted graph differs from the reference (err %v)", tc.name, label, err)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("%s %s: %v", tc.name, label, err)
			}
			g, err = freezeUndirected(pool, tc.n, weighted, len(weighted) > 0)
			if err != nil || !reflect.DeepEqual(g, wantW) {
				t.Fatalf("%s %s: weighted graph differs from the reference (err %v)", tc.name, label, err)
			}
			d, err := freezeDirected(pool, tc.n, directed)
			if err != nil || !reflect.DeepEqual(d, wantD) {
				t.Fatalf("%s %s: directed graph differs from the reference (err %v)", tc.name, label, err)
			}
			if cap(g.adj) != len(g.adj) || cap(g.weights) != len(g.weights) || cap(d.outAdj) != len(d.outAdj) || cap(d.inAdj) != len(d.inAdj) {
				t.Fatalf("%s %s: adjacency arrays keep spare capacity", tc.name, label)
			}
			if err := d.Validate(); err != nil {
				t.Fatalf("%s %s: %v", tc.name, label, err)
			}
		})
	}
}

// checkInsertionOrderSums checks g against the Freeze rule for the
// weighted edges: each edge's weight, in both endpoints' rows, is the
// sum of its copies' weights in insertion order, and the total weight
// is the sum of those in (U, V) order.
func checkInsertionOrderSums(t *testing.T, label string, g *Undirected, edges []Edge) {
	t.Helper()
	sums := map[[2]int32]float64{}
	for _, e := range edges {
		sums[[2]int32{e.U, e.V}] += e.Weight
	}
	merged := make([]Edge, 0, len(sums))
	for k, w := range sums {
		merged = append(merged, Edge{U: k[0], V: k[1], Weight: w})
	}
	slices.SortFunc(merged, compareUV)
	if !reflect.DeepEqual(g.EdgeList(), merged) {
		t.Fatalf("%s: merged edges differ from sums taken in insertion order", label)
	}
	for u := range int32(g.NumNodes()) {
		ws := g.NeighborWeights(u)
		for i, v := range g.Neighbors(u) {
			if want := sums[[2]int32{min(u, v), max(u, v)}]; ws[i] != want {
				t.Fatalf("%s: row %d holds %v for neighbor %d, want %v", label, u, ws[i], v, want)
			}
		}
	}
	total := 0.0
	for _, e := range merged {
		total += e.Weight
	}
	if g.TotalWeight() != total {
		t.Fatalf("%s: total weight %v, want %v", label, g.TotalWeight(), total)
	}
}

// TestFreezeWeightedTieOrder freezes a multigraph whose ~190 parallel
// copies per edge carry distinct non-integer weights, so the order in
// which they are summed decides the merged weights bit for bit. Each
// merged weight must be the sum in insertion order, the same in both
// endpoints' rows, at every pool width and grain.
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
	var first *Undirected
	forPoolsAndGrains(t, func(pool *par.Pool, label string) {
		g, err := freezeUndirected(pool, n, edges, true)
		if err != nil {
			t.Fatal(err)
		}
		checkInsertionOrderSums(t, label, g, edges)
		if first == nil {
			first = g
		} else if !reflect.DeepEqual(g, first) {
			t.Fatalf("%s: graph differs from the first pool's", label)
		}
	})
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddWeightedEdge(e.U, e.V, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	if g, err := b.Freeze(); err != nil || !reflect.DeepEqual(g, first) {
		t.Fatalf("Builder.Freeze differs from the pooled builds (err %v)", err)
	}
}

func TestFreezeParallelMatchesSequentialGraph(t *testing.T) {
	edges := randomEdges(300, 100000, 23)
	directed := directedOf(edges)
	seqDirected, err := freezeDirected(par.New(1), 300, directed)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := freezeUndirected(par.New(1), 300, edges, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8} {
		if got, err := freezeDirected(par.New(w), 300, directed); err != nil || !reflect.DeepEqual(got, seqDirected) {
			t.Fatalf("workers=%d: directed graph differs from the one-worker Freeze (err %v)", w, err)
		}
		if got, err := freezeUndirected(par.New(w), 300, edges, true); err != nil || !reflect.DeepEqual(got, seq) {
			t.Fatalf("workers=%d: weighted graph differs from the one-worker Freeze (err %v)", w, err)
		}
	}
}

// TestFreezeErrors checks that Freeze reports a bad node count and an
// adjacency too large for int32 offsets as errors. The size guard is
// checked on the count alone, before anything is allocated.
func TestFreezeErrors(t *testing.T) {
	if _, err := NewBuilder(-1).Freeze(); !errors.Is(err, ErrNodeRange) {
		t.Errorf("NewBuilder(-1).Freeze(): %v, want ErrNodeRange", err)
	}
	if _, err := NewDirectedBuilder(-1).Freeze(); !errors.Is(err, ErrNodeRange) {
		t.Errorf("NewDirectedBuilder(-1).Freeze(): %v, want ErrNodeRange", err)
	}
	b := NewBuilder(2)
	if _, err := b.Freeze(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Freeze(); err == nil {
		t.Error("second Freeze accepted")
	}
	type sizeCase struct {
		n, edges int
		side     rowSide
		ok       bool
	}
	cases := []sizeCase{
		{10, math.MaxInt32 / 2, bothRows, true},
		{10, math.MaxInt32/2 + 1, bothRows, false},
		{10, math.MaxInt32, outRows, true},
		{math.MaxInt32, 0, bothRows, true},
		{-1, 0, outRows, false},
	}
	if math.MaxInt > math.MaxInt32 {
		last := int64(math.MaxInt32) // a variable: MaxInt32+1 overflows a 32-bit int
		cases = append(cases, sizeCase{10, int(last + 1), inRows, false}, sizeCase{int(last + 1), 0, bothRows, false})
	}
	for _, tc := range cases {
		if _, err := csrEntries(tc.n, tc.edges, tc.side); (err == nil) != tc.ok {
			t.Errorf("csrEntries(%d, %d, %d): err %v, want ok=%v", tc.n, tc.edges, tc.side, err, tc.ok)
		}
	}
}

// BenchmarkFreeze builds the CSR of 2M Chung–Lu edges in load order,
// on one worker and on GOMAXPROCS.
func BenchmarkFreeze(b *testing.B) {
	const n = 400000
	edges := chungLuEdges(n, 1<<21, 1)
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			pool := par.New(w)
			b.SetBytes(int64(len(edges)) * 16)
			for b.Loop() {
				if _, err := freezeUndirected(pool, n, edges, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
