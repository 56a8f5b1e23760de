// Package graph provides compact in-memory graph representations used by
// every algorithm in this repository.
//
// Nodes are dense integer ids in [0, N). Graphs are built through a
// Builder (arbitrary edge insertion) and then frozen into a CSR-style
// adjacency layout that is cheap to scan repeatedly — the access pattern
// of multi-pass peeling algorithms.
package graph

import (
	"errors"
	"fmt"
)

// Edge is a single (possibly weighted) edge. For undirected graphs the
// order of U and V carries no meaning; for directed graphs the edge points
// from U to V.
type Edge struct {
	U, V   int32
	Weight float64
}

// Errors shared by builders and parsers.
var (
	ErrNodeRange    = errors.New("graph: node id out of range")
	ErrSelfLoop     = errors.New("graph: self loops are not supported")
	ErrEmptyGraph   = errors.New("graph: graph has no nodes")
	ErrNotFrozen    = errors.New("graph: builder has not been frozen")
	ErrBadWeight    = errors.New("graph: edge weight must be positive and finite")
	ErrDuplicate    = errors.New("graph: duplicate edge")
	ErrInconsistent = errors.New("graph: inconsistent adjacency structure")
)

// Undirected is a frozen undirected graph in CSR form. The zero value is an
// empty graph. Parallel edges are merged at freeze time (weights summed for
// weighted graphs); self loops are rejected, matching the paper's model.
type Undirected struct {
	n       int
	offsets []int32   // len n+1
	adj     []int32   // len 2m
	weights []float64 // nil for unweighted; parallel to adj
	m       int64     // number of (merged) undirected edges
	totalW  float64   // sum of edge weights (== float64(m) when unweighted)
}

// NumNodes returns the number of nodes N; node ids are 0..N-1.
func (g *Undirected) NumNodes() int { return g.n }

// NumEdges returns the number of distinct undirected edges.
func (g *Undirected) NumEdges() int64 { return g.m }

// TotalWeight returns the sum of all edge weights. For unweighted graphs
// this equals float64(NumEdges()).
func (g *Undirected) TotalWeight() float64 { return g.totalW }

// Weighted reports whether the graph carries per-edge weights.
func (g *Undirected) Weighted() bool { return g.weights != nil }

// Degree returns the number of neighbors of node u.
func (g *Undirected) Degree(u int32) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// Neighbors returns the adjacency slice of u. The slice aliases internal
// storage and must not be modified.
func (g *Undirected) Neighbors(u int32) []int32 {
	return g.adj[g.offsets[u]:g.offsets[u+1]]
}

// NeighborWeights returns the weights parallel to Neighbors(u). It returns
// nil for unweighted graphs.
func (g *Undirected) NeighborWeights(u int32) []float64 {
	if g.weights == nil {
		return nil
	}
	return g.weights[g.offsets[u]:g.offsets[u+1]]
}

// WeightedDegree returns the sum of weights of edges incident on u. For
// unweighted graphs it equals float64(Degree(u)).
func (g *Undirected) WeightedDegree(u int32) float64 {
	if g.weights == nil {
		return float64(g.Degree(u))
	}
	var s float64
	for _, w := range g.NeighborWeights(u) {
		s += w
	}
	return s
}

// Edges calls fn once per undirected edge with u < v. Iteration stops early
// if fn returns false.
func (g *Undirected) Edges(fn func(u, v int32, w float64) bool) {
	for u := int32(0); int(u) < g.n; u++ {
		ws := g.NeighborWeights(u)
		for i, v := range g.Neighbors(u) {
			if u < v {
				w := 1.0
				if ws != nil {
					w = ws[i]
				}
				if !fn(u, v, w) {
					return
				}
			}
		}
	}
}

// EdgeList materializes all edges (u < v). Intended for tests and small
// graphs; large graphs should use Edges.
func (g *Undirected) EdgeList() []Edge {
	out := make([]Edge, 0, g.m)
	g.Edges(func(u, v int32, w float64) bool {
		out = append(out, Edge{U: u, V: v, Weight: w})
		return true
	})
	return out
}

// Density returns ρ(V) = |E| / |V| (total weight over |V| when weighted).
// An empty graph has density 0.
func (g *Undirected) Density() float64 {
	if g.n == 0 {
		return 0
	}
	return g.totalW / float64(g.n)
}

// SubgraphDensity returns ρ(S) for the node subset S, counting only edges
// with both endpoints in S. Nodes outside [0,N) cause an error.
func (g *Undirected) SubgraphDensity(s []int32) (float64, error) {
	if len(s) == 0 {
		return 0, nil
	}
	in := make(map[int32]bool, len(s))
	for _, u := range s {
		if u < 0 || int(u) >= g.n {
			return 0, fmt.Errorf("%w: %d (n=%d)", ErrNodeRange, u, g.n)
		}
		in[u] = true
	}
	var w float64
	for u := range in {
		ws := g.NeighborWeights(u)
		for i, v := range g.Neighbors(u) {
			if u < v && in[v] {
				if ws != nil {
					w += ws[i]
				} else {
					w++
				}
			}
		}
	}
	return w / float64(len(in)), nil
}

// InducedSubgraph returns the subgraph induced by S with nodes relabeled
// 0..len(S)-1 in the order given, plus the mapping from new id to old id.
// Duplicate ids in S are rejected.
func (g *Undirected) InducedSubgraph(s []int32) (*Undirected, []int32, error) {
	newID := make(map[int32]int32, len(s))
	for i, u := range s {
		if u < 0 || int(u) >= g.n {
			return nil, nil, fmt.Errorf("%w: %d (n=%d)", ErrNodeRange, u, g.n)
		}
		if _, dup := newID[u]; dup {
			return nil, nil, fmt.Errorf("%w: node %d listed twice", ErrDuplicate, u)
		}
		newID[u] = int32(i)
	}
	b := NewBuilder(len(s))
	for _, u := range s {
		ws := g.NeighborWeights(u)
		for i, v := range g.Neighbors(u) {
			nv, ok := newID[v]
			if !ok || u >= v {
				continue
			}
			var err error
			if ws != nil {
				err = b.AddWeightedEdge(newID[u], nv, ws[i])
			} else {
				err = b.AddEdge(newID[u], nv)
			}
			if err != nil {
				return nil, nil, err
			}
		}
	}
	sub, err := b.Freeze()
	if err != nil {
		return nil, nil, err
	}
	mapping := make([]int32, len(s))
	copy(mapping, s)
	return sub, mapping, nil
}

// Validate checks internal consistency (offsets sorted, symmetric
// adjacency, no self loops). It is O(n+m) and intended for tests.
func (g *Undirected) Validate() error {
	if len(g.offsets) != g.n+1 {
		return fmt.Errorf("%w: offsets length %d, want %d", ErrInconsistent, len(g.offsets), g.n+1)
	}
	var half int64
	seen := make(map[[2]int32]int, g.m)
	for u := int32(0); int(u) < g.n; u++ {
		if g.offsets[u] > g.offsets[u+1] {
			return fmt.Errorf("%w: offsets not monotone at %d", ErrInconsistent, u)
		}
		for _, v := range g.Neighbors(u) {
			if v == u {
				return fmt.Errorf("%w: node %d", ErrSelfLoop, u)
			}
			if v < 0 || int(v) >= g.n {
				return fmt.Errorf("%w: neighbor %d of %d", ErrNodeRange, v, u)
			}
			key := [2]int32{min32(u, v), max32(u, v)}
			seen[key]++
			half++
		}
	}
	if half != 2*g.m {
		return fmt.Errorf("%w: directed half-edge count %d, want %d", ErrInconsistent, half, 2*g.m)
	}
	for key, c := range seen {
		if c != 2 {
			return fmt.Errorf("%w: edge %v appears %d half-times, want 2", ErrInconsistent, key, c)
		}
	}
	return nil
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
