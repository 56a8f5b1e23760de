// Package flow implements an exact densest-subgraph solver.
//
// The paper computes the optimal density ρ*(G) with an LP (Charikar's
// formulation, solved by COIN-OR CLP). This repository is stdlib-only, so
// we substitute Goldberg's max-flow characterization, which computes the
// same value exactly: for a guess g, the min s-t cut of an auxiliary
// network reveals whether some subgraph has density > g, and the source
// side of the cut is a witness. Iterating with g set to the best density
// found so far (Dinkelbach iteration) converges to the exact optimum.
//
// All capacities are scaled integers: a guess g = a/b is handled by
// multiplying every capacity by b, so the solver is exact with no
// floating-point tolerance anywhere.
package flow

import (
	"context"
	"errors"
	"fmt"
)

// ErrOverflow is returned when scaled capacities would exceed int64.
var ErrOverflow = errors.New("flow: capacity overflow; graph too large for exact solver")

// Network is a directed flow network with integer capacities supporting
// max-flow via Dinic's algorithm and min-cut extraction.
type Network struct {
	n     int
	heads []int32 // arc target
	caps  []int64 // residual capacity, paired arcs at 2k, 2k+1
	next  []int32 // next arc index in adjacency list, -1 terminates
	first []int32 // first arc index per node, -1 if none

	// Scratch for Dinic.
	level []int32
	iter  []int32
}

// NewNetwork creates a network with n nodes (0..n-1) and capacity hint
// for arcCap arcs.
func NewNetwork(n int, arcCap int) *Network {
	nw := &Network{
		n:     n,
		first: make([]int32, n),
		heads: make([]int32, 0, 2*arcCap),
		caps:  make([]int64, 0, 2*arcCap),
		next:  make([]int32, 0, 2*arcCap),
		level: make([]int32, n),
		iter:  make([]int32, n),
	}
	for i := range nw.first {
		nw.first[i] = -1
	}
	return nw
}

// AddArc inserts a directed arc u→v with the given capacity and its
// residual twin v→u with capacity 0.
func (nw *Network) AddArc(u, v int32, cap_ int64) error {
	if u < 0 || int(u) >= nw.n || v < 0 || int(v) >= nw.n {
		return fmt.Errorf("flow: arc (%d,%d) out of range n=%d", u, v, nw.n)
	}
	if cap_ < 0 {
		return fmt.Errorf("flow: negative capacity %d on arc (%d,%d)", cap_, u, v)
	}
	nw.pushArc(u, v, cap_)
	nw.pushArc(v, u, 0)
	return nil
}

// AddArcPair inserts arcs u→v and v→u each with the given capacity,
// sharing residual storage (used for undirected unit edges).
func (nw *Network) AddArcPair(u, v int32, cap_ int64) error {
	if u < 0 || int(u) >= nw.n || v < 0 || int(v) >= nw.n {
		return fmt.Errorf("flow: arc pair (%d,%d) out of range n=%d", u, v, nw.n)
	}
	if cap_ < 0 {
		return fmt.Errorf("flow: negative capacity %d on arc pair (%d,%d)", cap_, u, v)
	}
	nw.pushArc(u, v, cap_)
	nw.pushArc(v, u, cap_)
	return nil
}

func (nw *Network) pushArc(u, v int32, cap_ int64) {
	idx := int32(len(nw.heads))
	nw.heads = append(nw.heads, v)
	nw.caps = append(nw.caps, cap_)
	nw.next = append(nw.next, nw.first[u])
	nw.first[u] = idx
}

// maxFlowCheckMask throttles the context poll inside the augmentation
// loop: one Ctx.Err() load every maxFlowCheckMask+1 augmenting paths.
// Each Dinic phase additionally polls once before its BFS, so even a
// single long phase notices cancellation.
const maxFlowCheckMask = 1<<10 - 1

// MaxFlow computes the maximum s-t flow with Dinic's algorithm. The
// network's residual capacities are consumed; call once per build.
//
// Cancellation is cooperative: ctx is polled once per phase and once
// every maxFlowCheckMask+1 augmenting paths, returning ctx.Err()
// mid-computation instead of running the flow to completion. A nil ctx
// never cancels.
func (nw *Network) MaxFlow(ctx context.Context, s, t int32) (int64, error) {
	if s < 0 || int(s) >= nw.n || t < 0 || int(t) >= nw.n || s == t {
		return 0, fmt.Errorf("flow: bad terminals s=%d t=%d n=%d", s, t, nw.n)
	}
	var total int64
	var augments int64
	queue := make([]int32, 0, nw.n)
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		// BFS to build level graph.
		for i := range nw.level {
			nw.level[i] = -1
		}
		nw.level[s] = 0
		queue = queue[:0]
		queue = append(queue, s)
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for a := nw.first[u]; a != -1; a = nw.next[a] {
				v := nw.heads[a]
				if nw.caps[a] > 0 && nw.level[v] == -1 {
					nw.level[v] = nw.level[u] + 1
					queue = append(queue, v)
				}
			}
		}
		if nw.level[t] == -1 {
			return total, nil
		}
		copy(nw.iter, nw.first)
		for {
			if augments&maxFlowCheckMask == 0 && ctx != nil {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
			}
			augments++
			f := nw.dfs(s, t, int64(1)<<62)
			if f == 0 {
				break
			}
			total += f
		}
	}
}

func (nw *Network) dfs(u, t int32, limit int64) int64 {
	if u == t {
		return limit
	}
	for ; nw.iter[u] != -1; nw.iter[u] = nw.next[nw.iter[u]] {
		a := nw.iter[u]
		v := nw.heads[a]
		if nw.caps[a] <= 0 || nw.level[v] != nw.level[u]+1 {
			continue
		}
		d := limit
		if nw.caps[a] < d {
			d = nw.caps[a]
		}
		f := nw.dfs(v, t, d)
		if f > 0 {
			nw.caps[a] -= f
			nw.caps[a^1] += f
			return f
		}
	}
	return 0
}

// MinCutSource returns the set of nodes reachable from s in the residual
// network after MaxFlow — the source side of a minimum cut (including s).
func (nw *Network) MinCutSource(s int32) []int32 {
	seen := make([]bool, nw.n)
	seen[s] = true
	queue := []int32{s}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for a := nw.first[u]; a != -1; a = nw.next[a] {
			v := nw.heads[a]
			if nw.caps[a] > 0 && !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	var out []int32
	for u, ok := range seen {
		if ok {
			out = append(out, int32(u))
		}
	}
	return out
}
