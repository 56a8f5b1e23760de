package flow

import (
	"context"
	"fmt"

	"densestream/internal/graph"
)

// Result is an exact densest-subgraph solution.
type Result struct {
	Set     []int32 // nodes of the optimal subgraph
	Edges   int64   // |E(Set)|
	Density float64 // Edges / |Set|, exact rational evaluated in float64
	// NumerDenom gives the density as an exact rational.
	Numer, Denom int64
	FlowCalls    int // number of max-flow computations performed
}

// maxDinkelbachRounds caps the parametric iteration. Each round strictly
// improves the achieved density and the number of distinct densities is
// finite, so this is a defense against bugs, not a tuning knob.
const maxDinkelbachRounds = 200

// ExactDensest computes the exact maximum-density subgraph of an
// unweighted undirected graph using Goldberg's flow characterization.
//
// For a guess g = a/b, build a network with source s, sink t and
//
//	s→v capacity m·b, v→t capacity m·b + 2a − deg(v)·b,
//	u↔v capacity b per undirected edge,
//
// whose min cut equals b·(m·n) − 2·max_S(|E(S)|·b − a·|S|). The flow is
// therefore < m·n·b exactly when some subgraph has density > a/b, and the
// source side of the min cut is the maximizer. Iterating with the best
// achieved density converges to ρ*(G) after finitely many flows.
//
// Cancellation is cooperative: ctx is polled between Dinkelbach rounds
// and inside each max-flow computation (per phase and per augmentation
// batch), so even one long flow call aborts promptly with ctx.Err(). A
// nil ctx never cancels.
func ExactDensest(ctx context.Context, g *graph.Undirected) (*Result, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, graph.ErrEmptyGraph
	}
	if g.Weighted() {
		return nil, fmt.Errorf("flow: exact solver supports unweighted graphs only")
	}
	m := g.NumEdges()
	if m == 0 {
		return &Result{Set: []int32{0}, Numer: 0, Denom: 1}, nil
	}

	// Current best: the full node set.
	best := make([]int32, n)
	for i := range best {
		best[i] = int32(i)
	}
	bestEdges := m
	bestNumer, bestDenom := m, int64(n) // ρ = m/n

	flowCalls := 0
	for round := 0; round < maxDinkelbachRounds; round++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		set, edges, improved, err := denserThan(ctx, g, bestNumer, bestDenom)
		if err != nil {
			return nil, err
		}
		flowCalls++
		if !improved {
			return &Result{
				Set:       best,
				Edges:     bestEdges,
				Density:   float64(bestNumer) / float64(bestDenom),
				Numer:     bestNumer,
				Denom:     bestDenom,
				FlowCalls: flowCalls,
			}, nil
		}
		best = set
		bestEdges = edges
		bestNumer, bestDenom = edges, int64(len(set))
	}
	return nil, fmt.Errorf("flow: parametric iteration did not converge in %d rounds", maxDinkelbachRounds)
}

// denserThan tests whether G contains a subgraph with density strictly
// greater than a/b; if so it returns such a subgraph and its edge count.
func denserThan(ctx context.Context, g *graph.Undirected, a, b int64) ([]int32, int64, bool, error) {
	n := int64(g.NumNodes())
	m := g.NumEdges()
	// Overflow guard: the total flow is bounded by m·n·b.
	if b <= 0 || a < 0 {
		return nil, 0, false, fmt.Errorf("flow: invalid guess %d/%d", a, b)
	}
	if m > 0 && n > 0 && b > (int64(1)<<62)/m/n {
		return nil, 0, false, ErrOverflow
	}

	s := int32(n)
	t := int32(n + 1)
	nw := NewNetwork(int(n)+2, int(2*n+2*m))
	for v := int32(0); int64(v) < n; v++ {
		if err := nw.AddArc(s, v, m*b); err != nil {
			return nil, 0, false, err
		}
		capVT := m*b + 2*a - int64(g.Degree(v))*b
		if capVT < 0 {
			// Cannot happen: deg(v) <= m, so m·b − deg(v)·b >= 0.
			return nil, 0, false, fmt.Errorf("flow: negative sink capacity for node %d", v)
		}
		if err := nw.AddArc(v, t, capVT); err != nil {
			return nil, 0, false, err
		}
	}
	var addErr error
	g.Edges(func(u, v int32, _ float64) bool {
		addErr = nw.AddArcPair(u, v, b)
		return addErr == nil
	})
	if addErr != nil {
		return nil, 0, false, addErr
	}

	maxFlow, err := nw.MaxFlow(ctx, s, t)
	if err != nil {
		return nil, 0, false, err
	}
	if maxFlow >= m*n*b {
		return nil, 0, false, nil // no strictly denser subgraph
	}
	side := nw.MinCutSource(s)
	set := make([]int32, 0, len(side))
	for _, u := range side {
		if u != s && u != t {
			set = append(set, u)
		}
	}
	if len(set) == 0 {
		return nil, 0, false, fmt.Errorf("flow: min cut below bound but empty source side")
	}
	edges, err := countInducedEdges(g, set)
	if err != nil {
		return nil, 0, false, err
	}
	return set, edges, true, nil
}

func countInducedEdges(g *graph.Undirected, set []int32) (int64, error) {
	in := make(map[int32]bool, len(set))
	for _, u := range set {
		if u < 0 || int(u) >= g.NumNodes() {
			return 0, fmt.Errorf("%w: %d", graph.ErrNodeRange, u)
		}
		in[u] = true
	}
	var cnt int64
	for u := range in {
		for _, v := range g.Neighbors(u) {
			if u < v && in[v] {
				cnt++
			}
		}
	}
	return cnt, nil
}
