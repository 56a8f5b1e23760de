package graph

// Delta rebuild for the dynamic maintenance layer: a frozen CSR is the
// natural checkpoint of an epoch — when a re-peel is due, the live graph
// differs from the checkpoint by a (usually small) set of inserted and
// deleted edges, and re-running Builder.Freeze over all m live edges
// would count, scatter and sort every row again for a Δ-sized change.
// ApplyDelta merges the delta into the checkpoint row by row in
// O(n + m + Δ) instead.
//
// Bit-parity contract: every row Freeze builds is ascending and
// duplicate-free. ApplyDelta produces exactly that layout by an ordered
// merge, so the rebuilt graph is reflect.DeepEqual to Builder.Freeze
// over the live edge list; the peel engines therefore return
// bit-identical results from either construction.

import "fmt"

// ApplyDelta returns the graph obtained from g by inserting the edges
// of add and removing the edges of del, on the same node set. Both
// slices must be strictly (U,V)-sorted with U < V and duplicate-free;
// add edges must be absent from g, del edges present. Only unweighted
// graphs are supported (the dynamic edge log tracks multiplicities
// itself and presents a distinct edge set). g is not modified.
func (g *Undirected) ApplyDelta(add, del []Edge) (*Undirected, error) {
	if g.weights != nil {
		return nil, fmt.Errorf("graph: ApplyDelta supports unweighted graphs only")
	}
	if err := checkDelta(g.n, add); err != nil {
		return nil, fmt.Errorf("graph: ApplyDelta add: %w", err)
	}
	if err := checkDelta(g.n, del); err != nil {
		return nil, fmt.Errorf("graph: ApplyDelta del: %w", err)
	}

	// Per-node delta rows, cursor-filled from the sorted edge lists, so
	// each row comes out ascending like Freeze's.
	addRows := deltaRows(g.n, add)
	delRows := deltaRows(g.n, del)

	out := &Undirected{n: g.n, m: g.m + int64(len(add)) - int64(len(del))}
	if out.m < 0 {
		return nil, fmt.Errorf("graph: ApplyDelta removes %d edges from a graph with %d", len(del), g.m)
	}
	out.totalW = float64(out.m)
	out.offsets = make([]int32, g.n+1)
	for u := 0; u < g.n; u++ {
		deg := int32(g.Degree(int32(u))) + int32(len(addRows.row(u))) - int32(len(delRows.row(u)))
		if deg < 0 {
			return nil, fmt.Errorf("graph: ApplyDelta del lists more edges at node %d than exist", u)
		}
		out.offsets[u+1] = out.offsets[u] + deg
	}
	out.adj = make([]int32, out.offsets[g.n])

	for u := 0; u < g.n; u++ {
		old := g.Neighbors(int32(u))
		ins := addRows.row(u)
		dels := delRows.row(u)
		cur := out.offsets[u]
		i, j, k := 0, 0, 0
		for i < len(old) || j < len(ins) {
			// Drop old neighbors matched by the delete row.
			if i < len(old) && k < len(dels) && old[i] == dels[k] {
				i++
				k++
				continue
			}
			if j < len(ins) && (i >= len(old) || ins[j] < old[i]) {
				out.adj[cur] = ins[j]
				cur++
				j++
				continue
			}
			if j < len(ins) && ins[j] == old[i] {
				return nil, fmt.Errorf("graph: ApplyDelta add edge {%d,%d} already present", u, ins[j])
			}
			out.adj[cur] = old[i]
			cur++
			i++
		}
		if k < len(dels) {
			return nil, fmt.Errorf("graph: ApplyDelta del edge {%d,%d} not present", u, dels[k])
		}
		if cur != out.offsets[u+1] {
			return nil, fmt.Errorf("%w: node %d row filled %d of %d", ErrInconsistent, u, cur-out.offsets[u], out.offsets[u+1]-out.offsets[u])
		}
	}
	return out, nil
}

// checkDelta validates one delta list: in-range ids, U < V, strictly
// (U,V)-ascending (which also rules out duplicates).
func checkDelta(n int, edges []Edge) error {
	for i, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return fmt.Errorf("%w: (%d,%d) with n=%d", ErrNodeRange, e.U, e.V, n)
		}
		if e.U == e.V {
			return fmt.Errorf("%w: node %d", ErrSelfLoop, e.U)
		}
		if e.U > e.V {
			return fmt.Errorf("edge %d (%d,%d) not normalized to U < V", i, e.U, e.V)
		}
		if i > 0 {
			p := edges[i-1]
			if e.U < p.U || (e.U == p.U && e.V <= p.V) {
				return fmt.Errorf("edge %d (%d,%d) not strictly (U,V)-sorted after (%d,%d)", i, e.U, e.V, p.U, p.V)
			}
		}
	}
	return nil
}

// deltaAdj is a compact per-node row view over a delta edge list.
type deltaAdj struct {
	offsets []int32
	adj     []int32
}

func (d deltaAdj) row(u int) []int32 {
	if d.offsets == nil {
		return nil
	}
	return d.adj[d.offsets[u]:d.offsets[u+1]]
}

// deltaRows cursor-fills the per-node rows of a (U,V)-sorted edge list:
// the row of x receives its smaller neighbors in ascending U order, then
// its larger ones in ascending V order, so every row is ascending.
func deltaRows(n int, edges []Edge) deltaAdj {
	if len(edges) == 0 {
		return deltaAdj{}
	}
	offsets := make([]int32, n+1)
	for _, e := range edges {
		offsets[e.U+1]++
		offsets[e.V+1]++
	}
	for u := 0; u < n; u++ {
		offsets[u+1] += offsets[u]
	}
	adj := make([]int32, 2*len(edges))
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	for _, e := range edges {
		adj[cursor[e.U]] = e.V
		adj[cursor[e.V]] = e.U
		cursor[e.U]++
		cursor[e.V]++
	}
	return deltaAdj{offsets: offsets, adj: adj}
}
