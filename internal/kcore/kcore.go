// Package kcore implements core decomposition of undirected graphs.
//
// The d-core (Definition 8 in the paper) is the largest induced subgraph
// whose minimum degree is at least d. Core numbers are computed with the
// classic O(n+m) bucket-peeling algorithm (Batagelj–Zaveršnik, the same
// structure as Charikar's greedy), and the package also exposes the
// "best core" baseline: the densest of all cores, which is a
// 2-approximation to the densest subgraph.
package kcore

import (
	"fmt"

	"densestream/internal/graph"
)

// Decomposition holds the core number of every node plus the peeling
// order, which is enough to reconstruct any d-core and the best core.
type Decomposition struct {
	Core    []int32 // Core[u] is the core number of node u
	Order   []int32 // nodes in the order they were peeled (non-decreasing core)
	MaxCore int32
}

// Decompose computes the core decomposition in O(n+m).
func Decompose(g *graph.Undirected) (*Decomposition, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, graph.ErrEmptyGraph
	}
	deg := make([]int32, n)
	maxDeg := int32(0)
	for u := 0; u < n; u++ {
		deg[u] = int32(g.Degree(int32(u)))
		if deg[u] > maxDeg {
			maxDeg = deg[u]
		}
	}
	// Bucket sort nodes by degree.
	binStart := make([]int32, maxDeg+2)
	for u := 0; u < n; u++ {
		binStart[deg[u]+1]++
	}
	for d := int32(1); d <= maxDeg+1; d++ {
		binStart[d] += binStart[d-1]
	}
	pos := make([]int32, n)   // position of node in order
	order := make([]int32, n) // nodes sorted by current degree
	fill := make([]int32, maxDeg+1)
	copy(fill, binStart[:maxDeg+1])
	for u := 0; u < n; u++ {
		p := fill[deg[u]]
		order[p] = int32(u)
		pos[u] = p
		fill[deg[u]]++
	}
	// binStart[d] now points at the first node with degree >= d in order.
	core := make([]int32, n)
	curDeg := make([]int32, n)
	copy(curDeg, deg)
	for i := 0; i < n; i++ {
		u := order[i]
		core[u] = curDeg[u]
		for _, v := range g.Neighbors(u) {
			if curDeg[v] > curDeg[u] {
				dv := curDeg[v]
				pv := pos[v]
				// Swap v with the first node of its degree bucket.
				pw := binStart[dv]
				w := order[pw]
				if v != w {
					order[pv], order[pw] = w, v
					pos[v], pos[w] = pw, pv
				}
				binStart[dv]++
				curDeg[v]--
			}
		}
	}
	maxCore := int32(0)
	for _, c := range core {
		if c > maxCore {
			maxCore = c
		}
	}
	return &Decomposition{Core: core, Order: order, MaxCore: maxCore}, nil
}

// DCore returns the nodes of the d-core C_d(G): all nodes with core number
// >= d. The result may be empty.
func (d *Decomposition) DCore(dmin int32) []int32 {
	var out []int32
	for u, c := range d.Core {
		if c >= dmin {
			out = append(out, int32(u))
		}
	}
	return out
}

// Degeneracy returns the maximum core number, i.e. the graph degeneracy.
func (d *Decomposition) Degeneracy() int32 { return d.MaxCore }

// BestCore returns the densest suffix of the peeling order — equivalently
// the densest of the subgraphs visited by Charikar's greedy peel — along
// with its density. It is a 2-approximation to the densest subgraph.
// Cores are defined by degree counts, so every density it compares and
// returns is unweighted (edges over nodes), on a weighted graph too.
func BestCore(g *graph.Undirected) ([]int32, float64, error) {
	d, err := Decompose(g)
	if err != nil {
		return nil, 0, err
	}
	n := g.NumNodes()
	// Walk the peeling order, removing nodes one at a time and tracking
	// density of the remaining suffix. Edges within the suffix shrink by
	// the removed node's residual degree.
	inSuffix := make([]bool, n)
	for i := range inSuffix {
		inSuffix[i] = true
	}
	edges := g.NumEdges()
	bestDensity := float64(edges) / float64(n)
	bestLen := n
	for i := 0; i < n-1; i++ {
		u := d.Order[i]
		inSuffix[u] = false
		for _, v := range g.Neighbors(u) {
			if inSuffix[v] {
				edges--
			}
		}
		rem := n - i - 1
		dens := float64(edges) / float64(rem)
		if dens > bestDensity {
			bestDensity = dens
			bestLen = rem
		}
	}
	best := make([]int32, 0, bestLen)
	for _, u := range d.Order[n-bestLen:] {
		best = append(best, u)
	}
	return best, bestDensity, nil
}

// Verify checks the defining property of the decomposition: within the
// d-core, every node has at least d neighbors inside the core, and no
// strictly larger subgraph does for d = core number + 1. O(n+m) per call;
// tests only.
func Verify(g *graph.Undirected, d *Decomposition) error {
	n := g.NumNodes()
	if len(d.Core) != n {
		return fmt.Errorf("kcore: core array length %d, want %d", len(d.Core), n)
	}
	for dd := int32(0); dd <= d.MaxCore; dd++ {
		members := make(map[int32]bool)
		for u, c := range d.Core {
			if c >= dd {
				members[int32(u)] = true
			}
		}
		for u := range members {
			cnt := int32(0)
			for _, v := range g.Neighbors(u) {
				if members[v] {
					cnt++
				}
			}
			if cnt < dd {
				return fmt.Errorf("kcore: node %d has %d neighbors in %d-core, want >= %d", u, cnt, dd, dd)
			}
		}
	}
	return nil
}
