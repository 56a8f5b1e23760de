package graph

// Compaction support for the weighted peel engine: once most vertices
// of a frozen CSR are dead, every remaining pass still walks adjacency
// rows full of removed neighbors scattered across the original layout.
// The weighted peeler rebuilds a dense CSR of the surviving subgraph
// once its survivors' rows have decayed (see core's
// maybeCompactWeighted), so later passes scan compact adjacency. The
// unweighted and directed peelers never rebuild: they finish in a
// handful of passes, too few to repay the copy.
//
// CompactInto is the one relabel, order-preserving (keep[i] becomes
// node i), the same ascending-id relabel the LabelMap loaders and
// InducedSubgraph use. Any scan in ascending new-id order then visits
// vertices in ascending original-id order — the property the weighted
// peeler's chunk-grouped float reductions depend on. It stays
// sequential: its weighted total is one float sum in row order.

// CompactScratch holds the reusable buffers behind CompactInto, so a
// peel run that compacts several times allocates each buffer class
// once (buffers only grow). The zero value is ready to use. A scratch
// must not be reused while a graph returned from a compaction on it is
// still alive: the returned graph aliases the scratch storage.
type CompactScratch struct {
	offsets []int32
	adj     []int32
	weights []float64
	newID   []int32
}

// grow returns buf resized to n, reallocating only when capacity is
// insufficient.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// newIDs fills s.newID with the order-preserving relabel of keep over
// [0, n): keep[i] maps to i, everything else to -1.
func (s *CompactScratch) newIDs(n int, keep []int32) []int32 {
	s.newID = grow(s.newID, n)
	ids := s.newID
	for i := range ids {
		ids[i] = -1
	}
	for i, u := range keep {
		ids[u] = int32(i)
	}
	return ids
}

// CompactInto builds the subgraph of g induced by keep — ascending,
// duplicate-free node ids — into the scratch buffers and returns it.
// The relabel is order-preserving (keep[i] becomes node i). Adjacency
// order is preserved: the neighbors of a kept vertex appear in the same
// relative order as in g, restricted to kept vertices, and edge weights
// are copied bit-exactly. The returned graph aliases s; it dies when s
// is next reused.
func (g *Undirected) CompactInto(keep []int32, s *CompactScratch) *Undirected {
	n := len(keep)
	newID := s.newIDs(g.n, keep)

	s.offsets = grow(s.offsets, n+1)
	offsets := s.offsets
	offsets[0] = 0
	for i, u := range keep {
		cnt := int32(0)
		for _, v := range g.Neighbors(u) {
			if newID[v] >= 0 {
				cnt++
			}
		}
		offsets[i+1] = offsets[i] + cnt
	}
	total := int(offsets[n])
	s.adj = grow(s.adj, total)
	adj := s.adj
	weighted := g.weights != nil
	var weights []float64
	if weighted {
		s.weights = grow(s.weights, total)
		weights = s.weights
	}
	var totalW float64
	for i, u := range keep {
		cur := offsets[i]
		ws := g.NeighborWeights(u)
		for j, v := range g.Neighbors(u) {
			nv := newID[v]
			if nv < 0 {
				continue
			}
			adj[cur] = nv
			if weighted {
				w := ws[j]
				weights[cur] = w
				if nv > int32(i) {
					totalW += w
				}
			}
			cur++
		}
	}
	m := int64(total) / 2
	if !weighted {
		totalW = float64(m)
	}
	return &Undirected{n: n, offsets: offsets, adj: adj, weights: weights, m: m, totalW: totalW}
}
