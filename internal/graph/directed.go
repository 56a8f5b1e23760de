package graph

import (
	"fmt"
	"math"

	"densestream/internal/par"
)

// Directed is a frozen directed graph with both out- and in-adjacency in
// CSR form so that Algorithm 3 can scan either side of each surviving
// edge set cheaply.
type Directed struct {
	n          int
	outOffsets []int32
	outAdj     []int32
	inOffsets  []int32
	inAdj      []int32
	m          int64
}

// NumNodes returns the node count.
func (g *Directed) NumNodes() int { return g.n }

// NumEdges returns the number of distinct directed edges.
func (g *Directed) NumEdges() int64 { return g.m }

// OutDegree returns |E(u, V)|.
func (g *Directed) OutDegree(u int32) int {
	return int(g.outOffsets[u+1] - g.outOffsets[u])
}

// InDegree returns |E(V, u)|.
func (g *Directed) InDegree(u int32) int {
	return int(g.inOffsets[u+1] - g.inOffsets[u])
}

// OutNeighbors returns nodes v with (u, v) ∈ E. The slice aliases internal
// storage and must not be modified.
func (g *Directed) OutNeighbors(u int32) []int32 {
	return g.outAdj[g.outOffsets[u]:g.outOffsets[u+1]]
}

// InNeighbors returns nodes v with (v, u) ∈ E.
func (g *Directed) InNeighbors(u int32) []int32 {
	return g.inAdj[g.inOffsets[u]:g.inOffsets[u+1]]
}

// Edges calls fn once per directed edge (u, v). Iteration stops early if fn
// returns false.
func (g *Directed) Edges(fn func(u, v int32) bool) {
	for u := int32(0); int(u) < g.n; u++ {
		for _, v := range g.OutNeighbors(u) {
			if !fn(u, v) {
				return
			}
		}
	}
}

// Density returns ρ(V, V) = |E| / sqrt(|V|·|V|) = |E| / |V|.
func (g *Directed) Density() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(g.m) / float64(g.n)
}

// SubgraphDensity returns ρ(S, T) = |E(S,T)| / sqrt(|S||T|). Empty S or T
// yields density 0.
func (g *Directed) SubgraphDensity(s, t []int32) (float64, error) {
	if len(s) == 0 || len(t) == 0 {
		return 0, nil
	}
	inT := make(map[int32]bool, len(t))
	for _, v := range t {
		if v < 0 || int(v) >= g.n {
			return 0, fmt.Errorf("%w: %d (n=%d)", ErrNodeRange, v, g.n)
		}
		inT[v] = true
	}
	var cnt int64
	seenS := make(map[int32]bool, len(s))
	for _, u := range s {
		if u < 0 || int(u) >= g.n {
			return 0, fmt.Errorf("%w: %d (n=%d)", ErrNodeRange, u, g.n)
		}
		if seenS[u] {
			continue
		}
		seenS[u] = true
		for _, v := range g.OutNeighbors(u) {
			if inT[v] {
				cnt++
			}
		}
	}
	return float64(cnt) / math.Sqrt(float64(len(seenS))*float64(len(inT))), nil
}

// Validate checks internal consistency; O(n+m), intended for tests.
func (g *Directed) Validate() error {
	if len(g.outOffsets) != g.n+1 || len(g.inOffsets) != g.n+1 {
		return fmt.Errorf("%w: offset lengths", ErrInconsistent)
	}
	var out, in int64
	for u := int32(0); int(u) < g.n; u++ {
		for _, v := range g.OutNeighbors(u) {
			if v < 0 || int(v) >= g.n {
				return fmt.Errorf("%w: out neighbor %d of %d", ErrNodeRange, v, u)
			}
			if v == u {
				return fmt.Errorf("%w: node %d", ErrSelfLoop, u)
			}
			out++
		}
		in += int64(g.InDegree(u))
	}
	if out != g.m || in != g.m {
		return fmt.Errorf("%w: out=%d in=%d m=%d", ErrInconsistent, out, in, g.m)
	}
	return nil
}

// DirectedBuilder accumulates directed edges and freezes them into a
// Directed graph. Parallel edges are merged; self loops are rejected.
type DirectedBuilder struct {
	n      int
	edges  []Edge
	frozen bool
}

// NewDirectedBuilder returns a builder for a directed graph on n nodes.
func NewDirectedBuilder(n int) *DirectedBuilder {
	return &DirectedBuilder{n: n}
}

// NumNodes returns the node count the builder was created with.
func (b *DirectedBuilder) NumNodes() int { return b.n }

// AddEdge inserts the directed edge (u, v).
func (b *DirectedBuilder) AddEdge(u, v int32) error {
	if b.frozen {
		return fmt.Errorf("graph: AddEdge after Freeze")
	}
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		return fmt.Errorf("%w: (%d,%d) with n=%d", ErrNodeRange, u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("%w: node %d", ErrSelfLoop, u)
	}
	b.edges = append(b.edges, Edge{U: u, V: v})
	return nil
}

// Freeze drops parallel edges and returns the immutable directed graph,
// its out- and in-rows ascending. Like Builder.Freeze it builds both
// adjacencies on a pool of GOMAXPROCS workers, identically for every
// worker count.
func (b *DirectedBuilder) Freeze() (*Directed, error) {
	if b.frozen {
		return nil, fmt.Errorf("graph: Freeze called twice")
	}
	b.frozen = true
	edges := b.edges
	b.edges = nil
	pool := par.Acquire(0)
	defer pool.Release()
	return freezeDirected(pool, b.n, edges)
}

// FromDirectedEdges builds a directed graph on n nodes from edge pairs.
func FromDirectedEdges(n int, edges [][2]int32) (*Directed, error) {
	b := NewDirectedBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return b.Freeze()
}

// MustFromDirectedEdges is FromDirectedEdges that panics on error; tests only.
func MustFromDirectedEdges(n int, edges [][2]int32) *Directed {
	g, err := FromDirectedEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}
