package graph

import "densestream/internal/par"

// Compaction support for the peeling hot loops: once most vertices of a
// frozen CSR are dead, every remaining pass still walks adjacency rows
// full of removed neighbors scattered across the original layout. The
// undirected peel engines periodically rebuild a dense CSR of the
// surviving subgraph so later passes scan compact, cache-resident
// adjacency. (The directed peeler never rebuilds: on power-law
// directed inputs a rebuild measured 1.5–4× slower than none.)
//
// Two relabels are offered:
//
//   - CompactInto keeps the order-preserving relabel (keep[i] becomes
//     node i), the same ascending-id relabel the LabelMap loaders and
//     InducedSubgraph use. Any scan in ascending new-id order then
//     visits vertices in ascending original-id order — the property the
//     weighted peeler's chunk-grouped float reductions depend on.
//
//   - CompactIntoDegreeOrdered relabels hub-first: vertices are ranked
//     by surviving degree, descending (ties in ascending keep order, so
//     the permutation is a pure function of graph shape). Dense rows
//     pack together at the front of the CSR, equal-length rows become
//     contiguous fixed-stride banks (RowBanks), and the frontier's hot
//     vertices share cache lines. The permutation is returned so
//     callers can compose their current→original id maps through it;
//     the integer peel engines do exactly that and stay bit-identical
//     to the id-ordered layout at every worker count. It takes
//     unweighted graphs only. Its two row scans run on a par.Pool over
//     pieces of about CompactGrain original-row volume, cut by graph
//     shape alone, so the rebuilt CSR does not depend on the worker
//     count either.
//
// CompactInto stays sequential: its weighted total is one float sum in
// row order.

// CompactScratch holds the reusable buffers behind CompactInto and
// CompactIntoDegreeOrdered, so a peel run that compacts several times
// allocates each buffer class once (buffers only grow). The zero value
// is ready to use. A scratch must not be reused while a graph returned
// from a compaction call on it is still alive: the returned graph (and
// its RowBanks and permutation) alias the scratch storage.
type CompactScratch struct {
	offsets []int32
	adj     []int32
	weights []float64
	newID   []int32

	// degree-ordered relabel state
	bits   Bitset  // keep membership over the old vertex space
	cnt    []int32 // surviving degree by keep index
	rdeg   []int32 // surviving degree by new rank
	bucket []int32 // counting-sort buckets
	order  []int32 // new rank -> old vertex id
	banks  RowBanks

	cuts     []int32 // piece boundaries of the current parallel loop
	pieceMax []int32 // per-piece max surviving degree
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

// keepBits fills s.bits with the membership set of keep over [0, n).
func (s *CompactScratch) keepBits(n int, keep []int32) Bitset {
	s.bits = grow(s.bits, (n+63)>>6)
	s.bits.Zero()
	for _, u := range keep {
		s.bits.Set(u)
	}
	return s.bits
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

// CompactGrain is the original-row volume — adjacency entries plus one
// per row — of one piece of the degree-ordered rebuild's two parallel
// loops and of Freeze's row sort; Freeze's scatter cuts at most one
// piece per CompactGrain entries. Like par.ChunkSize it must stay
// constant: piece boundaries depend on the graph and the keep set only,
// never on the worker count. It is an exported variable only so the
// tests of this package and of the peel engines can shrink it to force
// many-piece rebuilds on small graphs; nothing else may change it.
var CompactGrain int64 = 1 << 16

// cutPieces fills s.cuts with the boundaries of consecutive runs of
// ids whose original-row volume reaches CompactGrain (the last run may
// fall short) and returns them: piece p covers ids[cuts[p]:cuts[p+1]].
func (s *CompactScratch) cutPieces(g *Undirected, ids []int32) []int32 {
	cuts := append(s.cuts[:0], 0)
	var vol int64
	for i, u := range ids {
		vol += int64(g.offsets[u+1]-g.offsets[u]) + 1
		if vol >= CompactGrain {
			cuts = append(cuts, int32(i+1))
			vol = 0
		}
	}
	if vol > 0 {
		cuts = append(cuts, int32(len(ids)))
	}
	s.cuts = cuts
	return cuts
}

// CompactIntoDegreeOrdered builds the same induced subgraph as
// CompactInto but relabels hub-first: new id r goes to the vertex with
// the r-th largest surviving degree (counting sort; equal degrees keep
// ascending keep order, so the permutation is deterministic). It
// returns the compacted graph — carrying a RowBanks view of the
// degree-class layout — and the permutation order, where order[r] is
// the keep-space (old current-space) id of new vertex r. Within a row,
// adjacency keeps g's relative neighbor order; row contents are the
// relabeled ids. The returned graph, banks, and order all alias s.
//
// g must be unweighted: only the unweighted peel engines call it, and
// it copies no weight column (the weighted engine compacts with
// CompactInto).
//
// The two O(row volume) loops — the surviving-degree count in keep
// order and the filtered row copy in rank order — run on pool over
// pieces of about CompactGrain original-row volume. Both are per-row
// integer work whose only cross-row reduction is the max degree, so
// the output is identical for every worker count and every piece cut.
// The counting sort, the offsets prefix sum and the RowBanks classes
// stay sequential O(live).
func (g *Undirected) CompactIntoDegreeOrdered(pool *par.Pool, keep []int32, s *CompactScratch) (*Undirected, []int32) {
	n := len(keep)
	bits := s.keepBits(g.n, keep)

	// Surviving degree per keep index; each piece folds its own max.
	s.cnt = grow(s.cnt, n)
	cnt := s.cnt
	cuts := s.cutPieces(g, keep)
	s.pieceMax = grow(s.pieceMax, len(cuts)-1)
	pieceMax := s.pieceMax
	pool.ForEach(len(pieceMax), func(p int) {
		m := int32(0)
		for i := cuts[p]; i < cuts[p+1]; i++ {
			c := int32(0)
			for _, v := range g.Neighbors(keep[i]) {
				c += bits.Bit(v)
			}
			cnt[i] = c
			m = max(m, c)
		}
		pieceMax[p] = m
	})
	maxd := int32(0)
	for _, m := range pieceMax {
		maxd = max(maxd, m)
	}

	// Counting sort descending, stable in keep order.
	s.bucket = grow(s.bucket, int(maxd)+1)
	bucket := s.bucket
	for d := range bucket {
		bucket[d] = 0
	}
	for _, c := range cnt {
		bucket[c]++
	}
	pos := int32(0)
	for d := int(maxd); d >= 0; d-- {
		b := bucket[d]
		bucket[d] = pos
		pos += b
	}
	// Ranks [0, nz) have a non-empty row; the rows after them are empty
	// and need no copy.
	nz := int(bucket[0])
	s.order = grow(s.order, n)
	s.rdeg = grow(s.rdeg, n)
	s.newID = grow(s.newID, g.n) // dead entries stale; bits guards every read
	order, rdeg, newID := s.order, s.rdeg, s.newID
	for i, u := range keep {
		r := bucket[cnt[i]]
		bucket[cnt[i]] = r + 1
		order[r] = u
		rdeg[r] = cnt[i]
		newID[u] = r
	}

	s.offsets = grow(s.offsets, n+1)
	offsets := s.offsets
	offsets[0] = 0
	for r := 0; r < n; r++ {
		offsets[r+1] = offsets[r] + rdeg[r]
	}
	total := int(offsets[n])
	s.adj = grow(s.adj, total)
	adj := s.adj
	cuts = s.cutPieces(g, order[:nz])
	pool.ForEach(len(cuts)-1, func(p int) {
		lo, hi := cuts[p], cuts[p+1]
		// Branch-free filter-copy: kept/dropped neighbors interleave
		// unpredictably in a decayed row, so a membership branch
		// mispredicts constantly; writing unconditionally and advancing
		// the cursor by the membership bit keeps the pipeline full. A
		// dropped neighbor after the row's last kept one writes a stale
		// entry into the first slot of row r+1, which is non-empty (r+1
		// < nz) and overwrites it. The piece's last row takes the
		// guarded copy instead: row hi belongs to another piece, and
		// another worker.
		for r := lo; r < hi-1; r++ {
			cur := offsets[r]
			for _, v := range g.Neighbors(order[r]) {
				adj[cur] = newID[v]
				cur += bits.Bit(v)
			}
		}
		cur := offsets[hi-1]
		for _, v := range g.Neighbors(order[hi-1]) {
			if bits.Test(v) {
				adj[cur] = newID[v]
				cur++
			}
		}
	})
	m := int64(total) / 2

	// Degree classes over the ranked layout: runs of equal row length,
	// descending; over-stride hubs form the spill prefix.
	b := &s.banks
	b.adj = adj
	b.degs, b.starts, b.base = b.degs[:0], b.starts[:0], b.base[:0]
	spill := 0
	for spill < n && rdeg[spill] > bankMaxStride {
		spill++
	}
	b.SpillEnd = int32(spill)
	for r := spill; r < n; {
		d := rdeg[r]
		b.degs = append(b.degs, d)
		b.starts = append(b.starts, int32(r))
		b.base = append(b.base, offsets[r])
		for r < n && rdeg[r] == d {
			r++
		}
	}
	b.starts = append(b.starts, int32(n))

	ng := &Undirected{n: n, offsets: offsets, adj: adj, m: m, totalW: float64(m), banks: b}
	return ng, order
}
