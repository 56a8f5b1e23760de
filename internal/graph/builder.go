package graph

import (
	"fmt"
	"math"

	"densestream/internal/par"
)

// Builder accumulates undirected edges and freezes them into an Undirected
// graph. It tolerates parallel edges (merged, weights summed in insertion
// order) and edges inserted in any order. A Builder must not be used after
// Freeze.
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

// Freeze merges parallel edges and returns the immutable graph. Every
// row is ascending, and a merged edge's weight is the sum of its
// copies' weights taken in insertion order, the same in both endpoints'
// rows. The CSR is built on a pool of GOMAXPROCS workers and is
// identical for every worker count.
func (b *Builder) Freeze() (*Undirected, error) {
	if b.frozen {
		return nil, fmt.Errorf("graph: Freeze called twice")
	}
	b.frozen = true
	edges := b.edges
	b.edges = nil
	pool := par.Acquire(0)
	defer pool.Release()
	return freezeUndirected(pool, b.n, edges, b.weighted)
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
