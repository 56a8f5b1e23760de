package core

import (
	"fmt"

	"densestream/internal/graph"
)

// AtLeastK runs Algorithm 2: find a dense subgraph with at least k nodes.
// Unlike Algorithm 1, each pass removes only the ⌊ε/(1+ε)·|S|⌋ (at least
// one) lowest-degree nodes among the below-threshold candidates Ã(S),
// ties broken by node id, so some intermediate subgraph lands close to
// size k. The returned set is a (3+3ε)-approximation to ρ*≥k (Theorem
// 9), improving to (2+2ε) when the optimal subgraph has more than k
// nodes (Lemma 10). The algorithm stops early once fewer than k nodes
// remain (Lemma 11).
//
// It runs Undirected's pass loop, with o as there: a pass's quota is
// one (degree, id) cut, the quota-th lowest candidate's key, found in
// expected time linear in the candidates.
func AtLeastK(g *graph.Undirected, k int, eps float64, o Opts) (*Result, error) {
	if err := checkEps(eps); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	if n == 0 {
		return nil, graph.ErrEmptyGraph
	}
	if g.Weighted() {
		return nil, fmt.Errorf("core: AtLeastK needs an unweighted graph")
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("core: k=%d out of range [1,%d]", k, n)
	}
	if err := o.Begin(); err != nil {
		return nil, err
	}
	return peel(g, k, eps, o)
}
