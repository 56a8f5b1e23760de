package densestream

import (
	"context"
	"fmt"

	"densestream/internal/charikar"
	"densestream/internal/core"
)

// DenseSubgraph is one member of an enumeration: a node-disjoint dense
// subgraph found on the residual graph after removing all previous ones.
type DenseSubgraph struct {
	Set     []int32 // original node ids
	Density float64
	Passes  int // passes (or peels, for the greedy enumerator) this round
}

// EnumerateDense iteratively extracts up to maxSets node-disjoint dense
// subgraphs, as sketched in §6 of the paper: find an (approximately)
// densest subgraph, delete its nodes, and recurse on the residual graph.
// Each returned subgraph carries the approximation guarantee *relative to
// the residual graph it was found in*. Enumeration stops early when the
// residual's best density falls below minDensity or the graph is
// exhausted.
//
// With eps > 0 each round runs Algorithm 1; eps == 0 selects the exact
// greedy peel (Charikar), which gives sharper boundaries at the cost of
// one peel per node — the right choice when the graph fits in memory.
func EnumerateDense(g *UndirectedGraph, maxSets int, eps, minDensity float64) ([]DenseSubgraph, error) {
	if maxSets < 1 {
		return nil, fmt.Errorf("densestream: maxSets must be >= 1, got %d", maxSets)
	}
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("densestream: empty graph")
	}
	alive := make([]bool, g.NumNodes())
	for i := range alive {
		alive[i] = true
	}
	var out []DenseSubgraph
	for round := 0; round < maxSets; round++ {
		var ids []int32
		for u, ok := range alive {
			if ok {
				ids = append(ids, int32(u))
			}
		}
		if len(ids) < 2 {
			break
		}
		sub, mapping, err := g.InducedSubgraph(ids)
		if err != nil {
			return nil, err
		}
		if sub.NumEdges() == 0 {
			break
		}
		var set []int32
		var density float64
		var passes int
		if eps > 0 {
			r, err := core.Undirected(sub, eps, core.Opts{Workers: 1})
			if err != nil {
				return nil, err
			}
			set, density, passes = r.Set, r.Density, r.Passes
		} else {
			r, err := charikar.Densest(context.TODO(), sub)
			if err != nil {
				return nil, err
			}
			set, density, passes = r.Set, r.Density, r.Peels
		}
		if density < minDensity {
			break
		}
		members := make([]int32, len(set))
		for i, u := range set {
			members[i] = mapping[u]
			alive[mapping[u]] = false
		}
		out = append(out, DenseSubgraph{Set: members, Density: density, Passes: passes})
	}
	return out, nil
}
