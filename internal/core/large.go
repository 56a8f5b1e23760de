package core

import (
	"fmt"
	"sort"

	"densestream/internal/graph"
)

// AtLeastK runs Algorithm 2: find a dense subgraph with at least k nodes.
// Unlike Algorithm 1, each pass removes only the ⌊ε/(1+ε)·|S|⌋ (at least
// one) lowest-degree nodes among the below-threshold candidates Ã(S), so
// some intermediate subgraph lands close to size k. The returned set is a
// (3+3ε)-approximation to ρ*≥k (Theorem 9), improving to (2+2ε) when the
// optimal subgraph has more than k nodes (Lemma 10). The algorithm stops
// early once fewer than k nodes remain (Lemma 11).
//
// o sets the execution: the candidate scan walks the live-vertex
// frontier and the decrement pass runs push- or pull-directed as in
// Undirected; the quota selection sort stays sequential on the
// deterministically merged candidate list.
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
	st := newPeelState(g, o, false)
	defer st.release()
	s := &st.sides[0]
	edges := g.NumEdges()
	nodes := n

	bestPass := -1 // -1: no snapshot of size >= k seen yet
	bestDensity := -1.0
	if nodes >= k {
		bestPass = 0
		bestDensity = g.Density()
	}
	trace := []PassStat{{Pass: 0, Nodes: nodes, Edges: edges, Density: g.Density()}}

	threshold := 2 * (1 + eps)
	frac := eps / (1 + eps)
	pass := 0
	for nodes >= k {
		if err := o.Checkpoint(trace[len(trace)-1]); err != nil {
			return nil, &PartialError{Passes: pass, Trace: trace, Err: err}
		}
		pass++
		rho := float64(edges) / float64(nodes)
		cut := threshold * rho
		if err := st.scanCandidates(o, cut); err != nil {
			return nil, &PartialError{Passes: pass - 1, Trace: trace, Err: err}
		}
		candidates := st.batch
		if len(candidates) == 0 {
			return nil, fmt.Errorf("core: pass %d found no candidates (ρ=%v)", pass, rho)
		}
		// Remove the ⌊ε/(1+ε)·|S|⌋ lowest-degree candidates, at least one.
		// Ties break on vertex id: the engine never relabels, so these are
		// the input's ids and the selected set is the same at every
		// worker count.
		quota := int(frac * float64(nodes))
		if quota < 1 {
			quota = 1
		}
		if quota > len(candidates) {
			quota = len(candidates)
		}
		deg := s.deg
		sort.Slice(candidates, func(i, j int) bool {
			if deg[candidates[i]] != deg[candidates[j]] {
				return deg[candidates[i]] < deg[candidates[j]]
			}
			return candidates[i] < candidates[j]
		})
		batch := candidates[:quota]
		pushVol, degSum := st.markRemoved(batch, pass)
		st.filterLive(pushVol)
		edges = st.decrement(o, s, s, batch, pass, edges, pushVol, degSum)
		nodes -= len(batch)
		var rhoAfter float64
		if nodes > 0 {
			rhoAfter = float64(edges) / float64(nodes)
		}
		trace = append(trace, PassStat{Pass: pass, Nodes: nodes, Edges: edges, Density: rhoAfter, Removed: len(batch)})
		if nodes >= k && rhoAfter > bestDensity {
			bestDensity = rhoAfter
			bestPass = pass
		}
	}
	if bestPass < 0 {
		return nil, fmt.Errorf("core: no intermediate subgraph of size >= %d", k)
	}

	return &Result{
		Set:     survivorsAfter(s.removedAt, bestPass),
		Density: bestDensity,
		Passes:  pass,
		Trace:   trace,
	}, nil
}
