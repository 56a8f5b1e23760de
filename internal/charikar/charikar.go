// Package charikar implements Charikar's greedy 2-approximation for the
// densest subgraph problem: repeatedly remove a minimum-degree node and
// return the densest intermediate subgraph.
//
// This is the algorithm the paper's Algorithm 1 relaxes; it serves as the
// quality baseline (ε → 0 limit, one node per pass) in the ablation
// benchmarks. The unweighted version runs in O(n + m) using a bucket
// queue over exact remaining degrees; the weighted version uses a binary
// heap, O(m log n).
package charikar

import (
	"container/heap"
	"context"
	"fmt"

	"densestream/internal/graph"
)

// Result reports the greedy solution and the work performed.
type Result struct {
	Set     []int32 // densest intermediate subgraph
	Density float64
	Peels   int // nodes removed before the best prefix was reached (n - |Set|)
}

// peelCheckMask throttles the context poll inside the greedy peel
// loops: one Ctx.Err() load every peelCheckMask+1 removals.
const peelCheckMask = 1<<12 - 1

// Densest runs the greedy peel on an unweighted graph. For weighted
// graphs use DensestWeighted.
//
// The bucket queue stores every remaining node in a doubly linked list
// keyed by its exact current degree, so each pop is a true minimum-degree
// node and the maintained edge counter is exact. Total work is O(n + m).
//
// Cancellation is cooperative: ctx is polled every peelCheckMask+1
// peels, returning ctx.Err() mid-run instead of finishing the peel. A
// nil ctx never cancels.
func Densest(ctx context.Context, g *graph.Undirected) (*Result, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, graph.ErrEmptyGraph
	}
	if g.Weighted() {
		return nil, fmt.Errorf("charikar: use DensestWeighted for weighted graphs")
	}
	deg := make([]int32, n)
	maxDeg := int32(0)
	for u := 0; u < n; u++ {
		deg[u] = int32(g.Degree(int32(u)))
		if deg[u] > maxDeg {
			maxDeg = deg[u]
		}
	}
	// Doubly linked bucket lists over exact degrees.
	head := make([]int32, maxDeg+1) // head[d] = first node with degree d, -1 if none
	for d := range head {
		head[d] = -1
	}
	next := make([]int32, n)
	prev := make([]int32, n)
	for u := n - 1; u >= 0; u-- {
		d := deg[u]
		next[u] = head[d]
		prev[u] = -1
		if head[d] != -1 {
			prev[head[d]] = int32(u)
		}
		head[d] = int32(u)
	}
	unlink := func(u int32) {
		if prev[u] != -1 {
			next[prev[u]] = next[u]
		} else {
			head[deg[u]] = next[u]
		}
		if next[u] != -1 {
			prev[next[u]] = prev[u]
		}
	}
	relink := func(u int32) { // insert u at head of its (new) degree bucket
		d := deg[u]
		next[u] = head[d]
		prev[u] = -1
		if head[d] != -1 {
			prev[head[d]] = u
		}
		head[d] = u
	}

	removed := make([]bool, n)
	peelOrder := make([]int32, 0, n)
	edges := g.NumEdges()
	bestDensity := g.Density()
	bestRemaining := n
	cur := int32(0)
	for len(peelOrder) < n-1 {
		if len(peelOrder)&peelCheckMask == 0 && ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for cur <= maxDeg && head[cur] == -1 {
			cur++
		}
		if cur > maxDeg {
			return nil, fmt.Errorf("charikar: bucket queue exhausted with %d nodes left", n-len(peelOrder))
		}
		u := head[cur]
		unlink(u)
		removed[u] = true
		peelOrder = append(peelOrder, u)
		for _, v := range g.Neighbors(u) {
			if removed[v] {
				continue
			}
			unlink(v)
			deg[v]--
			relink(v)
			edges--
		}
		// A neighbor may have dropped to cur-1.
		if cur > 0 {
			cur--
		}
		remaining := n - len(peelOrder)
		d := float64(edges) / float64(remaining)
		if d > bestDensity {
			bestDensity = d
			bestRemaining = remaining
		}
	}
	inPeeled := make([]bool, n)
	for _, u := range peelOrder[:n-bestRemaining] {
		inPeeled[u] = true
	}
	set := make([]int32, 0, bestRemaining)
	for u := 0; u < n; u++ {
		if !inPeeled[u] {
			set = append(set, int32(u))
		}
	}
	return &Result{Set: set, Density: bestDensity, Peels: n - bestRemaining}, nil
}

// DensestWeighted runs the greedy peel minimizing current weighted degree.
// It accepts unweighted graphs too (weights of 1), at heap cost. ctx
// cancels as in Densest.
func DensestWeighted(ctx context.Context, g *graph.Undirected) (*Result, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, graph.ErrEmptyGraph
	}
	wdeg := make([]float64, n)
	for u := 0; u < n; u++ {
		wdeg[u] = g.WeightedDegree(int32(u))
	}
	h := &nodeHeap{}
	heap.Init(h)
	for u := 0; u < n; u++ {
		heap.Push(h, nodeEntry{node: int32(u), key: wdeg[u]})
	}
	removed := make([]bool, n)
	removedOrder := make([]int32, 0, n)
	weight := g.TotalWeight()
	bestDensity := g.Density()
	bestRemaining := n
	remaining := n
	var pops int64
	for remaining > 1 {
		if pops&peelCheckMask == 0 && ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		pops++
		e := heap.Pop(h).(nodeEntry)
		u := e.node
		if removed[u] {
			continue
		}
		if e.key > wdeg[u]+1e-12 {
			continue // stale heap entry; a fresh one exists
		}
		removed[u] = true
		removedOrder = append(removedOrder, u)
		remaining--
		ws := g.NeighborWeights(u)
		for i, v := range g.Neighbors(u) {
			if removed[v] {
				continue
			}
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			weight -= w
			wdeg[v] -= w
			heap.Push(h, nodeEntry{node: v, key: wdeg[v]})
		}
		d := weight / float64(remaining)
		if d > bestDensity {
			bestDensity = d
			bestRemaining = remaining
		}
	}
	inRemoved := make([]bool, n)
	for _, u := range removedOrder[:n-bestRemaining] {
		inRemoved[u] = true
	}
	set := make([]int32, 0, bestRemaining)
	for u := 0; u < n; u++ {
		if !inRemoved[u] {
			set = append(set, int32(u))
		}
	}
	return &Result{Set: set, Density: bestDensity, Peels: n - bestRemaining}, nil
}

type nodeEntry struct {
	node int32
	key  float64
}

type nodeHeap []nodeEntry

func (h nodeHeap) Len() int           { return len(h) }
func (h nodeHeap) Less(i, j int) bool { return h[i].key < h[j].key }
func (h nodeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)        { *h = append(*h, x.(nodeEntry)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
