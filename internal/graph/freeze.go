package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"densestream/internal/par"
)

// Freeze's CSR build. Both builders hand their edge lists, in insertion
// order, to buildRows, which fills the adjacency rows without sorting
// the edges themselves: a counting pass sizes every row, a scatter
// drops each edge into its rows, and each row is then sorted and
// deduplicated on its own. Every step is parallel, and no step depends
// on the worker count:
//
//   - The edge list is cut into k contiguous pieces, each counted into
//     its own histogram. Prefixing the histograms row-major hands piece
//     c the slots of every row after those of pieces 0..c-1, so the
//     scatter leaves each row holding its entries in insertion order,
//     whatever k is.
//   - Rows are sorted ascending and deduplicated over row ranges of
//     about CompactGrain volume. A row's result depends on its own
//     entries only, so the cut does not matter either.
//
// The frozen rows are therefore ascending and duplicate-free, exactly
// the rows a sort of the whole edge list by (U, V) would fill. Weighted
// rows are sorted stably, so the parallel copies of an edge stay in
// insertion order and their weights are summed left to right in that
// order — the same sum in both endpoints' rows.

// rowSide names the adjacency rows an edge (U, V) lands in.
type rowSide uint8

const (
	bothRows rowSide = iota // undirected: V in row U and U in row V
	outRows                 // directed out-adjacency: V in row U
	inRows                  // directed in-adjacency: U in row V
)

// csrRows is one frozen adjacency: row offsets (len n+1), the rows'
// entries and, when weighted, their weights parallel to adj.
type csrRows struct {
	offsets []int32
	adj     []int32
	weights []float64
}

// csrEntries returns how many adjacency entries side receives from
// edges edges on n nodes, or an error when n is not a valid node count
// or the entries would overflow the int32 row offsets. buildRows checks
// it before allocating anything.
func csrEntries(n, edges int, side rowSide) (int, error) {
	if n < 0 || n > math.MaxInt32 {
		return 0, fmt.Errorf("%w: n=%d", ErrNodeRange, n)
	}
	entries := edges
	if side == bothRows {
		entries = 2 * edges
	}
	if entries > math.MaxInt32 {
		return 0, fmt.Errorf("graph: %d edges need %d adjacency entries, more than int32 offsets address", edges, entries)
	}
	return entries, nil
}

// freezeUndirected builds the undirected graph of edges on n nodes on
// pool. Its total weight is the sum of the merged weights in (U, V)
// order.
func freezeUndirected(pool *par.Pool, n int, edges []Edge, weighted bool) (*Undirected, error) {
	rows, err := buildRows(pool, n, edges, bothRows, weighted)
	if err != nil {
		return nil, err
	}
	g := &Undirected{n: n, offsets: rows.offsets, adj: rows.adj, weights: rows.weights, m: int64(len(rows.adj) / 2)}
	g.totalW = float64(g.m)
	if weighted {
		g.totalW = 0
		for u := range n {
			for i := g.offsets[u]; i < g.offsets[u+1]; i++ {
				if g.adj[i] > int32(u) {
					g.totalW += g.weights[i]
				}
			}
		}
	}
	return g, nil
}

// freezeDirected builds the directed graph of edges on n nodes on pool.
func freezeDirected(pool *par.Pool, n int, edges []Edge) (*Directed, error) {
	out, err := buildRows(pool, n, edges, outRows, false)
	if err != nil {
		return nil, err
	}
	in, err := buildRows(pool, n, edges, inRows, false)
	if err != nil {
		return nil, err
	}
	return &Directed{n: n, outOffsets: out.offsets, outAdj: out.adj, inOffsets: in.offsets, inAdj: in.adj, m: int64(len(out.adj))}, nil
}

// buildRows returns the CSR rows of side over edges on n nodes, every
// row ascending with duplicates merged (weights summed in insertion
// order when weighted). Edge endpoints must lie in [0, n); the rows
// hold exactly one entry per distinct edge and side. edges is only
// read.
func buildRows(pool *par.Pool, n int, edges []Edge, side rowSide, weighted bool) (csrRows, error) {
	entries, err := csrEntries(n, len(edges), side)
	if err != nil {
		return csrRows{}, err
	}
	rows := csrRows{offsets: make([]int32, n+1), adj: make([]int32, entries)}
	if weighted {
		rows.weights = make([]float64, entries)
	}
	if entries == 0 {
		return rows, nil
	}

	// 1. Per-piece row histograms. k never exceeds entries/n, so the k
	// histograms together are no larger than adj, and tiny inputs stay
	// on one piece.
	k := max(1, min(pool.Workers(), entries/n, int(int64(entries)/CompactGrain)))
	piece := func(c int) []Edge {
		return edges[c*len(edges)/k : (c+1)*len(edges)/k]
	}
	hist := make([]int32, k*n)
	pool.ForEach(k, func(c int) {
		h := hist[c*n : (c+1)*n]
		for _, e := range piece(c) {
			if side != inRows {
				h[e.U]++
			}
			if side != outRows {
				h[e.V]++
			}
		}
	})

	// 2. Row offsets, and each piece's cursor into every row.
	pos := int32(0)
	for r := 0; r < n; r++ {
		rows.offsets[r] = pos
		for c := r; c < len(hist); c += n {
			cnt := hist[c]
			hist[c] = pos
			pos += cnt
		}
	}
	rows.offsets[n] = pos

	// 3. Scatter, each piece through its own cursors.
	adj, ws := rows.adj, rows.weights
	pool.ForEach(k, func(c int) {
		h := hist[c*n : (c+1)*n]
		for _, e := range piece(c) {
			if side != inRows {
				i := h[e.U]
				h[e.U] = i + 1
				adj[i] = e.V
				if weighted {
					ws[i] = e.Weight
				}
			}
			if side != outRows {
				i := h[e.V]
				h[e.V] = i + 1
				adj[i] = e.U
				if weighted {
					ws[i] = e.Weight
				}
			}
		}
	})

	// 4. Sort and deduplicate every row; kept[r] is row r's new length.
	// The cursors are spent, so the histogram memory holds it.
	kept := hist[:n]
	cuts := rowCuts(rows.offsets)
	pool.ForEach(len(cuts)-1, func(p int) {
		var buf []weightedEntry
		for r := cuts[p]; r < cuts[p+1]; r++ {
			lo, hi := rows.offsets[r], rows.offsets[r+1]
			if weighted {
				kept[r] = mergeWeightedRow(adj[lo:hi], ws[lo:hi], &buf)
			} else {
				kept[r] = mergeRow(adj[lo:hi])
			}
		}
	})

	// 5. Squeeze the merged rows into exact-size arrays, if any
	// duplicate was dropped.
	total := 0
	for _, c := range kept {
		total += int(c)
	}
	if total == entries {
		return rows, nil
	}
	out := csrRows{offsets: make([]int32, n+1), adj: make([]int32, total)}
	if weighted {
		out.weights = make([]float64, total)
	}
	for r := 0; r < n; r++ {
		out.offsets[r+1] = out.offsets[r] + kept[r]
	}
	pool.ForEach(len(cuts)-1, func(p int) {
		for r := cuts[p]; r < cuts[p+1]; r++ {
			src, dst := rows.offsets[r], out.offsets[r]
			copy(out.adj[dst:dst+kept[r]], adj[src:])
			if weighted {
				copy(out.weights[dst:dst+kept[r]], ws[src:])
			}
		}
	})
	return out, nil
}

// CompactGrain is the row volume — adjacency entries plus one per
// row — of one piece of Freeze's row sort; Freeze's scatter cuts at
// most one piece per CompactGrain entries. Like par.ChunkSize it must
// stay constant: piece boundaries depend on the graph only, never on
// the worker count. It is an exported variable only so the tests of
// this package can shrink it to force many-piece builds on small
// graphs; nothing else may change it.
var CompactGrain int64 = 1 << 16

// rowCuts cuts the rows of offsets into consecutive runs whose volume —
// entries plus one per row — reaches CompactGrain (the last run may
// fall short): run p covers rows [cuts[p], cuts[p+1]).
func rowCuts(offsets []int32) []int32 {
	n := len(offsets) - 1
	vol := int64(offsets[n]) + int64(n)
	cuts := make([]int32, 1, vol/CompactGrain+2)
	vol = 0
	for r := 0; r < n; r++ {
		vol += int64(offsets[r+1]-offsets[r]) + 1
		if vol >= CompactGrain {
			cuts = append(cuts, int32(r+1))
			vol = 0
		}
	}
	if vol > 0 {
		cuts = append(cuts, int32(n))
	}
	return cuts
}

// mergeRow sorts row ascending, moves its distinct entries to the front
// and returns their count.
func mergeRow(row []int32) int32 {
	if len(row) < 2 {
		return int32(len(row))
	}
	slices.Sort(row)
	k := 1
	for _, v := range row[1:] {
		if row[k-1] != v {
			row[k] = v
			k++
		}
	}
	return int32(k)
}

// weightedEntry is one row entry of a weighted row being merged.
type weightedEntry struct {
	v int32
	w float64
}

// mergeWeightedRow is mergeRow for a weighted row: a stable sort by
// neighbour keeps the parallel copies of an edge in insertion order,
// and their weights are summed left to right into the distinct entry.
// buf is scratch reused across rows.
func mergeWeightedRow(row []int32, ws []float64, buf *[]weightedEntry) int32 {
	if len(row) < 2 {
		return int32(len(row))
	}
	b := (*buf)[:0]
	for i, v := range row {
		b = append(b, weightedEntry{v, ws[i]})
	}
	slices.SortStableFunc(b, func(x, y weightedEntry) int { return cmp.Compare(x.v, y.v) })
	k := 0
	for _, e := range b {
		if k > 0 && row[k-1] == e.v {
			ws[k-1] += e.w
			continue
		}
		row[k], ws[k] = e.v, e.w
		k++
	}
	*buf = b
	return int32(k)
}
