package core

import (
	"fmt"
	"math"

	"densestream/internal/graph"
)

// Result is the output of the undirected peeling algorithms.
type Result struct {
	Set     []int32    `json:"set"`     // S̃, the densest intermediate subgraph
	Density float64    `json:"density"` // ρ(S̃)
	Passes  int        `json:"passes"`  // while-loop iterations (graph passes in streaming)
	Trace   []PassStat `json:"trace"`   // per-pass statistics, Trace[0] is the initial state
}

// Undirected runs Algorithm 1 on an unweighted graph: starting from S = V,
// every pass removes A(S) = {i ∈ S : deg_S(i) ≤ 2(1+ε)ρ(S)} and keeps the
// densest intermediate subgraph. It returns a (2+2ε)-approximation in
// O(log_{1+ε} n) passes (Lemmas 3 and 4).
//
// ε = 0 is allowed: the threshold 2ρ(S) is at least the minimum degree
// (min ≤ avg = 2ρ), so at least one node is removed per pass and the
// algorithm still terminates, in up to n passes.
//
// o sets the execution: the candidate scan walks the live-vertex
// frontier in fixed chunks with per-chunk batch buffers merged in index
// order, and each pass either pushes decrements in one sequential loop
// or recounts the survivors' degrees in parallel chunks (see peel.go).
// The worker count may change that direction but never the result,
// which is bit-identical to the sequential run for every worker count.
func Undirected(g *graph.Undirected, eps float64, o Opts) (*Result, error) {
	if err := checkEps(eps); err != nil {
		return nil, err
	}
	if err := o.Begin(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	if n == 0 {
		return nil, graph.ErrEmptyGraph
	}
	if g.Weighted() {
		return nil, fmt.Errorf("core: Undirected needs an unweighted graph; use UndirectedWeighted")
	}
	st := newPeelState(g, o, false)
	defer st.release()
	s := &st.sides[0]
	edges := g.NumEdges()
	nodes := n

	bestPass := 0
	bestDensity := g.Density()
	trace := []PassStat{{Pass: 0, Nodes: nodes, Edges: edges, Density: bestDensity}}

	threshold := 2 * (1 + eps)
	pass := 0
	for nodes > 0 {
		if err := o.Checkpoint(trace[len(trace)-1]); err != nil {
			return nil, &PartialError{Passes: pass, Trace: trace, Err: err}
		}
		pass++
		rho := float64(edges) / float64(nodes)
		cut := threshold * rho
		pushVol, degSum, err := st.scanRemove(o, s, cut, pass)
		if err != nil {
			return nil, &PartialError{Passes: pass - 1, Trace: trace, Err: err}
		}
		batch := st.batch
		if len(batch) == 0 {
			// Unreachable: a minimum-degree node always satisfies
			// deg ≤ 2ρ ≤ cut. Guard against float surprises regardless.
			return nil, fmt.Errorf("core: pass %d removed no nodes (ρ=%v)", pass, rho)
		}
		edges = st.decrement(o, s, s, batch, pass, edges, pushVol, degSum)
		nodes -= len(batch)
		var rhoAfter float64
		if nodes > 0 {
			rhoAfter = float64(edges) / float64(nodes)
		}
		trace = append(trace, PassStat{Pass: pass, Nodes: nodes, Edges: edges, Density: rhoAfter, Removed: len(batch)})
		if nodes > 0 && rhoAfter > bestDensity {
			bestDensity = rhoAfter
			bestPass = pass
		}
	}

	return &Result{
		Set:     survivorsAfter(s.removedAt, bestPass),
		Density: bestDensity,
		Passes:  pass,
		Trace:   trace,
	}, nil
}

// UndirectedWeighted is Algorithm 1 over weighted degrees: the removal
// rule becomes wdeg_S(i) ≤ 2(1+ε)·ρ_w(S) with ρ_w(S) the total remaining
// weight over |S|. Unweighted graphs are accepted (unit weights).
//
// o sets the execution. Because float accumulation is order sensitive,
// the decrement pass is always pull-based and its partials are grouped
// by fixed chunks of the original vertex space (see
// peelState.weightedPull) — deterministic for every worker count, and
// stable across CSR compactions.
func UndirectedWeighted(g *graph.Undirected, eps float64, o Opts) (*Result, error) {
	if err := checkEps(eps); err != nil {
		return nil, err
	}
	if err := o.Begin(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	if n == 0 {
		return nil, graph.ErrEmptyGraph
	}
	st := newPeelState(g, o, true)
	defer st.release()
	weight := g.TotalWeight()
	var edges int64 = g.NumEdges()
	nodes := n

	bestPass := 0
	bestDensity := g.Density()
	trace := []PassStat{{Pass: 0, Nodes: nodes, Edges: edges, Density: bestDensity}}

	threshold := 2 * (1 + eps)
	pass := 0
	for nodes > 0 {
		if err := o.Checkpoint(trace[len(trace)-1]); err != nil {
			return nil, &PartialError{Passes: pass, Trace: trace, Err: err}
		}
		pass++
		rho := weight / float64(nodes)
		cut := threshold * rho
		pushVol, err := st.scanRemoveWeighted(o, cut, pass)
		if err != nil {
			return nil, &PartialError{Passes: pass - 1, Trace: trace, Err: err}
		}
		batch := st.batch
		if len(batch) == 0 {
			return nil, fmt.Errorf("core: weighted pass %d removed no nodes (ρ=%v)", pass, rho)
		}
		st.weightedPull()
		for c := range st.wSlots {
			weight -= st.wSlots[c]
			edges -= st.eSlots[c]
		}
		st.filterLive(pushVol)
		st.clearBatch(batch)
		nodes -= len(batch)
		if weight < 0 && weight > -1e-9 {
			weight = 0 // clamp float drift at the very end
		}
		var rhoAfter float64
		if nodes > 0 {
			rhoAfter = weight / float64(nodes)
		}
		trace = append(trace, PassStat{Pass: pass, Nodes: nodes, Edges: edges, Density: rhoAfter, Removed: len(batch)})
		if nodes > 0 && rhoAfter > bestDensity {
			bestDensity = rhoAfter
			bestPass = pass
		}
		st.maybeCompactWeighted(o, edges)
	}

	return &Result{
		Set:     survivorsAfter(st.sides[0].removedAt, bestPass),
		Density: bestDensity,
		Passes:  pass,
		Trace:   trace,
	}, nil
}

func checkEps(eps float64) error {
	if eps < 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return fmt.Errorf("core: epsilon must be a finite value >= 0, got %v", eps)
	}
	return nil
}
