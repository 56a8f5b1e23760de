package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"densestream/internal/par"
)

// Builder accumulates undirected edges and freezes them into an Undirected
// graph. It tolerates parallel edges (merged, weights summed) and edges
// inserted in any order. A Builder must not be used after Freeze.
type Builder struct {
	n        int
	edges    []Edge
	weighted bool
	frozen   bool
}

// NewBuilder returns a builder for an undirected graph on n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// NumNodes returns the node count the builder was created with.
func (b *Builder) NumNodes() int { return b.n }

// AddEdge inserts the unweighted edge {u, v}.
func (b *Builder) AddEdge(u, v int32) error {
	return b.addEdge(u, v, 1, false)
}

// AddWeightedEdge inserts the edge {u, v} with weight w > 0. A graph that
// receives at least one weighted edge freezes as a weighted graph.
func (b *Builder) AddWeightedEdge(u, v int32, w float64) error {
	return b.addEdge(u, v, w, true)
}

func (b *Builder) addEdge(u, v int32, w float64, weighted bool) error {
	if b.frozen {
		return fmt.Errorf("graph: AddEdge after Freeze")
	}
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		return fmt.Errorf("%w: (%d,%d) with n=%d", ErrNodeRange, u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("%w: node %d", ErrSelfLoop, u)
	}
	if w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
		return fmt.Errorf("%w: %v", ErrBadWeight, w)
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, Edge{U: u, V: v, Weight: w})
	b.weighted = b.weighted || weighted
	return nil
}

// Freeze sorts, merges parallel edges, and returns the immutable graph.
func (b *Builder) Freeze() (*Undirected, error) {
	if b.frozen {
		return nil, fmt.Errorf("graph: Freeze called twice")
	}
	b.frozen = true
	sortEdges(b.edges)
	// Merge parallel edges in place (weights accumulate).
	merged := b.edges[:0]
	for _, e := range b.edges {
		if k := len(merged); k > 0 && merged[k-1].U == e.U && merged[k-1].V == e.V {
			merged[k-1].Weight += e.Weight
			continue
		}
		merged = append(merged, e)
	}

	g := &Undirected{n: b.n, m: int64(len(merged))}
	g.offsets = make([]int32, b.n+1)
	deg := make([]int32, b.n)
	for _, e := range merged {
		deg[e.U]++
		deg[e.V]++
	}
	for i := 0; i < b.n; i++ {
		g.offsets[i+1] = g.offsets[i] + deg[i]
	}
	g.adj = make([]int32, 2*len(merged))
	if b.weighted {
		g.weights = make([]float64, 2*len(merged))
	}
	cursor := make([]int32, b.n)
	copy(cursor, g.offsets[:b.n])
	for _, e := range merged {
		g.adj[cursor[e.U]] = e.V
		g.adj[cursor[e.V]] = e.U
		if b.weighted {
			g.weights[cursor[e.U]] = e.Weight
			g.weights[cursor[e.V]] = e.Weight
		}
		cursor[e.U]++
		cursor[e.V]++
		g.totalW += e.Weight
	}
	if !b.weighted {
		g.totalW = float64(len(merged))
	}
	b.edges = nil
	return g, nil
}

// sortRunSize is the fixed length of the initial sorted runs of the
// parallel edge sort. Like par.ChunkSize, it must stay constant — run
// boundaries depend only on the edge count, never on the worker count,
// so the final order (including the relative order of duplicate edges,
// whose weights later accumulate in that order) is identical on every
// machine. It is a variable only so tests can force the sequential
// path.
var sortRunSize = 1 << 15

// compareEdges orders edges by (U, V); duplicates compare equal and
// are merged by Freeze afterwards.
func compareEdges(a, b Edge) int {
	if c := cmp.Compare(a.U, b.U); c != 0 {
		return c
	}
	return cmp.Compare(a.V, b.V)
}

// sortEdges sorts either builder's edge list by (U, V) through
// internal/par: the slice is cut into fixed-size runs sorted
// concurrently, then merged pairwise in a fixed binary tree, each
// level's merges running concurrently. Ties always prefer the left
// (earlier) run, so the result is deterministic for any worker count.
// The O(m log m) single-threaded sort was the bottleneck of Freeze on
// large graphs.
func sortEdges(edges []Edge) {
	n := len(edges)
	if n <= sortRunSize {
		slices.SortFunc(edges, compareEdges)
		return
	}
	pool := par.Acquire(0)
	defer pool.Release()
	runs := (n + sortRunSize - 1) / sortRunSize
	pool.ForEach(runs, func(r int) {
		lo := r * sortRunSize
		hi := min(lo+sortRunSize, n)
		slices.SortFunc(edges[lo:hi], compareEdges)
	})
	buf := make([]Edge, n)
	src, dst := edges, buf
	for width := sortRunSize; width < n; width *= 2 {
		pairs := (n + 2*width - 1) / (2 * width)
		pool.ForEach(pairs, func(i int) {
			lo := i * 2 * width
			mid := min(lo+width, n)
			hi := min(lo+2*width, n)
			mergeRuns(src[lo:mid], src[mid:hi], dst[lo:hi])
		})
		src, dst = dst, src
	}
	if &src[0] != &edges[0] {
		copy(edges, src)
	}
}

// mergeRuns merges two sorted runs into out (len(out) == len(a)+len(b)),
// preferring a on ties so duplicate edges keep their run order.
func mergeRuns(a, b, out []Edge) {
	i, j := 0, 0
	for k := range out {
		if j >= len(b) || (i < len(a) && compareEdges(b[j], a[i]) >= 0) {
			out[k] = a[i]
			i++
		} else {
			out[k] = b[j]
			j++
		}
	}
}

// FromEdges is a convenience constructor for tests and examples: it builds
// an unweighted undirected graph on n nodes from the given edge pairs.
func FromEdges(n int, edges [][2]int32) (*Undirected, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return b.Freeze()
}

// MustFromEdges is FromEdges that panics on error; for tests only.
func MustFromEdges(n int, edges [][2]int32) *Undirected {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}
