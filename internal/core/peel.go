package core

import (
	"cmp"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"

	"densestream/internal/graph"
	"densestream/internal/par"
)

// This file is the shared layout machinery of the peel hot path. The
// paper's promise is that one pass is a cheap linear scan, so the
// in-memory engines are built to run at memory bandwidth:
//
//   - one state, one or two sides: every engine peels a peelState. A
//     side is a frontier, row volume, alive bits, removal passes and
//     degrees over one CSR row set (graph.Rows). Undirected, AtLeastK
//     and UndirectedWeighted peel sides[0] over the graph's rows;
//     Directed (Algorithm 3) peels S = sides[0] along the out-rows and
//     T = sides[1] along the in-rows. One scan, one push, one pull and
//     one decrement serve all three integer engines;
//   - a live-vertex frontier: the candidate scan walks a compacted,
//     ascending slice of the surviving vertex ids in fixed 2048-id
//     blocks (par.Sweeper), so a pass costs O(live), not O(n), once the
//     graph has started to shrink. For the integer engines the scan is
//     fused: one sweep collects the batch — the live vertices at or
//     below a (degree, id) cut, which Algorithm 2 sets at its quota
//     (quotaCut) — stamps it removed, filters the frontier in place,
//     and accumulates the pass sums the decrement needs;
//   - bitset membership: aliveness (and the weighted engine's batch
//     membership) lives in packed bitsets (n/8 bytes instead of 4n), so
//     the random membership gathers of the pull recount and the
//     weighted decrement stay L1/L2-resident instead of missing on a
//     4-byte-per-vertex stamp array;
//   - push or pull by one measured cost: a pass of the integer engines
//     either pushes decrements along the removed batch's rows into the
//     other side's degrees — one sequential scatter of blind decrements
//     with no membership gather, since a dead vertex's degree slot is
//     stale by construction and never read again, and the removed edges
//     follow from the batch's degree sums — or pulls, recounting every
//     survivor's live degree directly from the CSR in parallel chunks.
//     A pushed entry costs about pushPullCost pulled ones on one core,
//     and the pull runs on w = min(pool workers, GOMAXPROCS) cores
//     while the push runs on one, so an undirected pass pulls when the
//     survivors' rows hold fewer than pushPullCost·w times the batch's
//     entries: the direction-optimizing trade of Beamer-style BFS,
//     priced at the width each direction runs at. A directed pass pulls
//     only when the batch's rows outweigh the other side's live rows.
//     The integer engines peel their input CSR to the end and never
//     relabel a vertex: they finish in O(log_{1+ε} n) passes, and on
//     the measured shapes, up to a 2,522-pass peel at ε=0, a rebuild
//     did not measurably pay for itself;
//   - a weighted-only rebuild: the weighted decrement always pulls (a
//     push would reorder its float subtractions), so every pass walks
//     the survivors' whole rows, dead entries included. Once those rows
//     have decayed (maybeCompactWeighted), it rebuilds the surviving
//     subgraph with the order-preserving graph.CompactInto and maps ids
//     back through origOf, so ascending current order stays ascending
//     original order — the invariant its chunk-grouped float
//     reductions need;
//   - recycled scratch: every per-solve buffer, both sides and the
//     compaction scratches included, lives in a peelState that
//     statePool hands from one solve to the next — and from each run of
//     a directed sweep to the next — so a warm solve neither allocates
//     nor zeroes O(n + m) memory it already had. The GC may drop an
//     idle state at any time.
//
// The direction is the one decision above that reads the worker count,
// and it never changes a Result: both directions leave every
// survivor's degree and the edge count the same. Every other decision
// is a function of the graph shape only, which preserves the engines'
// bit-identical determinism contract (see internal/par).
const (
	// pushPullCost is the cost of a pushed adjacency entry in pulled
	// ones, both on one core: an undirected pass pulls when
	// rowVol < pushPullCost·w·pushVol, w being the pull's width.
	// BenchmarkCorePushVsPull times pushDecrement over a batch and
	// pullRecount over its survivors on the 2M-edge RMAT graph, the
	// batch being every node of degree ≤ c × the average (2-vCPU Xeon,
	// GOMAXPROCS 2, 3 runs of 20 iterations): at one worker a pushed
	// entry cost 2.9–3.3 pulled ones at c = 3 and 4.8–4.9 at c = 1; at
	// two workers, where only the pull runs wider, 5.5–6.1 and 8.9–9.9,
	// nearly twice as many, which is what the w factor charges. The
	// constant was rounded to 4 from 3.7–3.9, read while the push still
	// gathered an in-batch bit per entry. It stays 4: constants 3, 6
	// and 8 ran within the spread of 4 on whole peels, and 4 keeps
	// every pass's direction as it was. A retune is its own measured
	// change.
	pushPullCost = 4
	// compactMinNodes: the weighted engine never compacts a CSR smaller
	// than this — it is already cache resident and the rebuild
	// bookkeeping would dominate.
	compactMinNodes = 1 << 10
	// compactLiveDivisor: the weighted engine compacts only once the
	// live set is at most 1/compactLiveDivisor of the current CSR's
	// node count (see maybeCompactWeighted).
	compactLiveDivisor = 4
)

// peelHooks are package-internal observation points for the layout
// tests: the parity sweeps use them to assert that both decrement
// directions and the weighted compactor actually ran. Nil hooks are
// never called; all hooks fire on the driver goroutine.
type peelHooks struct {
	mode      func(pass int, pull bool) // an integer engine's decrement direction
	compacted func(liveN, prevN int)    // the weighted engine rebuilt its CSR
}

// side is one peeled vertex set over one CSR row set: the undirected
// engines' S over the graph's rows, or one of Algorithm 3's S (over
// the out-rows) and T (over the in-rows). deg counts, for each live
// vertex, the row entries whose other end is alive on the opposite
// side — the side itself when the peel is undirected.
type side struct {
	rows      graph.Rows   // the row set deg counts over
	live      []int32      // ascending ids of the surviving vertices
	rowVol    int64        // Σ row length over live (the pull cost)
	alive     graph.Bitset // bit set = not yet removed
	removedAt []int32      // original space; 0 = never removed
	deg       []int32      // live degrees (integer engines)
}

// peelState is the mutable state of one in-memory peel run. Undirected
// and AtLeastK peel sides[0] over the input CSR; Directed peels S =
// sides[0] and T = sides[1]. The integer engines never relabel, so
// their ids are the input's throughout. The weighted engine peels
// sides[0] in two id spaces: the "current" space of the (possibly
// compacted) CSR, in which all per-pass state is indexed, and the
// original space of the input graph, in which removal passes are
// recorded for the final Set. Its relabel is order-preserving, so
// ascending current order is always ascending original order.
type peelState struct {
	pool     *par.Pool
	sides    [2]side
	pullCost int64 // pushed-entry cost in pulled ones at the pull's width

	// The weighted engine's own fields.
	g       *graph.Undirected // current CSR (input graph or a compaction of it)
	n       int               // current CSR node count
	origN   int
	origOf  []int32      // current id -> original id; nil = identity
	inBatch graph.Bitset // current space; bit set = removed this pass
	wdeg    []float64    // live weighted degrees

	col      *par.Collector
	batch    []int32
	candDeg  []int32 // quotaCut's candidate degrees
	sel      []int32 // lowestKey's copy of them
	sweep    par.Sweeper
	volSlots []int64   // per-chunk row-volume partials of the fused scan
	degSlots []int64   // per-chunk live-degree partials of the fused scan
	wSlots   []float64 // per-original-chunk weight partials of weightedPull
	eSlots   []int64   // per-original-chunk edge partials of weightedPull
	// cs alternates between compactions: CompactInto reads the current
	// CSR, which aliases the other scratch.
	cs     [2]graph.CompactScratch
	csTurn int
	// origBuf is the storage behind a compacted origOf, which
	// compactWeighted composes in place.
	origBuf []int32
}

// statePool recycles peel scratch across solves, so a warm solve
// reuses the previous run's buffers instead of allocating and zeroing
// them afresh. Being a sync.Pool, it lets the GC drop idle states: a
// long-lived process does not keep its largest graph's scratch
// forever.
var statePool sync.Pool

// resize returns buf with length n, reusing its storage when the
// capacity suffices. Reused contents are stale; callers overwrite or
// clear them.
func resize[S ~[]E, E any](buf S, n int) S {
	if cap(buf) < n {
		return make(S, n)
	}
	return buf[:n]
}

// takeState takes a state from statePool (or a fresh one) and readies
// the scratch every engine shares for an n-node peel on a pool
// acquired for o.Workers. Its callers reset the sides they peel, so
// no run sees its predecessor's contents. Pair it with release.
func takeState(n int, o Opts) *peelState {
	st, _ := statePool.Get().(*peelState)
	if st == nil {
		st = &peelState{col: par.NewCollector(n)}
	}
	st.pool = o.pool()
	st.col.Grow(n)
	chunks := par.NumChunks(n)
	st.volSlots = resize(st.volSlots, chunks)
	st.degSlots = resize(st.degSlots, chunks)
	clear(st.volSlots)
	clear(st.degSlots)
	return st
}

// reset readies s to peel rows over n nodes: every vertex is live and
// alive, none is removed, rowVol is the rows' total length, and, when
// withDeg is set, each degree is its row's length.
func (s *side) reset(pool *par.Pool, rows graph.Rows, n int, rowVol int64, withDeg bool) {
	s.rows, s.rowVol = rows, rowVol
	s.live = resize(s.live, n)
	s.alive = resize(s.alive, (n+63)>>6)
	s.alive.Fill(n)
	s.removedAt = resize(s.removedAt, n)
	clear(s.removedAt)
	if withDeg {
		s.deg = resize(s.deg, n)
	}
	pool.ForChunks(n, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			s.live[u] = int32(u)
		}
		if withDeg {
			for u := lo; u < hi; u++ {
				s.deg[u] = int32(rows.Len(int32(u)))
			}
		}
	})
}

// newPeelState takes a state for an undirected peel of g: sides[0]
// over g's rows, and the weighted engine's fields when weighted is
// set. An unweighted pass pulls when the survivors' rows hold fewer
// than pushPullCost·w times the batch's entries, w being the cores a
// pull runs on.
func newPeelState(g *graph.Undirected, o Opts, weighted bool) *peelState {
	n := g.NumNodes()
	st := takeState(n, o)
	st.pullCost = pushPullCost * int64(min(st.pool.Workers(), runtime.GOMAXPROCS(0)))
	st.g, st.n, st.origN = g, n, n
	st.sides[0].reset(st.pool, g.Rows(), n, 2*g.NumEdges(), !weighted)
	if weighted {
		st.inBatch = resize(st.inBatch, (n+63)>>6)
		st.inBatch.Zero()
		chunks := par.NumChunks(n)
		st.wSlots = resize(st.wSlots, chunks)
		st.eSlots = resize(st.eSlots, chunks)
		clear(st.wSlots)
		clear(st.eSlots)
		st.wdeg = resize(st.wdeg, n)
		st.pool.ForChunks(n, func(_, lo, hi int) {
			for u := lo; u < hi; u++ {
				st.wdeg[u] = g.WeightedDegree(int32(u))
			}
		})
	}
	return st
}

// newDirectedState takes a state for Algorithm 3 on g: S = sides[0]
// over the out-rows and T = sides[1] over the in-rows. A pass pulls
// only when the batch's rows outweigh the other side's live rows.
func newDirectedState(g *graph.Directed, o Opts) *peelState {
	n := g.NumNodes()
	st := takeState(n, o)
	st.pullCost = 1
	st.sides[0].reset(st.pool, g.OutRows(), n, g.NumEdges(), true)
	st.sides[1].reset(st.pool, g.InRows(), n, g.NumEdges(), true)
	return st
}

// release hands the state back to statePool and its worker pool back
// for reuse, dropping every reference to the graph so a parked state
// pins none. The emitted Result must not alias the state: Set, S, T and
// Trace are always fresh allocations. Nothing may touch st afterwards.
func (st *peelState) release() {
	st.pool.Release()
	st.pool, st.g, st.origOf = nil, nil, nil
	st.sides[0].rows, st.sides[1].rows = graph.Rows{}, graph.Rows{}
	statePool.Put(st)
}

// orig maps a current vertex id back to its original id.
func (st *peelState) orig(u int32) int32 {
	if st.origOf == nil {
		return u
	}
	return st.origOf[u]
}

// cutKey is a removal cut in (degree, id) order: a vertex is at or
// below it when its degree is below deg, or is deg and its id ≤ id.
type cutKey struct{ deg, id int32 }

// cutAt floors the removal threshold to the integer domain the
// unweighted scans compare in: deg ≤ cut ⟺ deg ≤ ⌊cut⌋ for integer
// degrees, and the floor turns a float compare per vertex into an
// int32 one. Every id is at or below the key's.
func cutAt(cut float64) cutKey {
	f := math.Floor(cut)
	if f >= math.MaxInt32 {
		return cutKey{math.MaxInt32, math.MaxInt32}
	}
	return cutKey{int32(f), math.MaxInt32}
}

// clearBatch retires the weighted pass's inBatch bits once its
// decrement is done.
func (st *peelState) clearBatch(batch []int32) {
	for _, u := range batch {
		st.inBatch.Clear(u)
	}
}

// scanRemove is the fused per-pass sweep of the integer engines over
// side s: one batched walk over its live frontier collects the vertices
// at or below cut (ascending, chunk-merged), records their removal
// pass, filters them out of the frontier in place, and accumulates the
// two pass sums the decrement needs — the batch's row volume (the push
// cost) and its live-degree sum. The batch's alive bits are cleared
// after the sweep, on the driver goroutine: bitset words are shared
// between neighboring ids.
func (st *peelState) scanRemove(o Opts, s *side, cut cutKey, pass int) (pushVol, degSum int64, err error) {
	st.col.Reset()
	rows, deg, removedAt := s.rows, s.deg, s.removedAt
	p32 := int32(pass)
	kd, kid := cut.deg, cut.id
	chunks := par.NumChunks(len(s.live))
	live, err := st.sweep.Sweep(o.Ctx, st.pool, s.live, func(c int, block []int32) int {
		var vol, ds int64
		w := 0
		for _, u := range block {
			if d := deg[u]; d > kd || d == kd && u > kid {
				block[w] = u
				w++
				continue
			}
			st.col.Append(c, u)
			removedAt[u] = p32
			vol += int64(rows.Len(u))
			ds += int64(deg[u])
		}
		st.volSlots[c] = vol
		st.degSlots[c] = ds
		return w
	})
	if err != nil {
		return 0, 0, err
	}
	s.live = live
	st.batch = st.col.Merge(st.batch[:0])
	for _, u := range st.batch {
		s.alive.Clear(u)
	}
	for c := 0; c < chunks; c++ {
		pushVol += st.volSlots[c]
		degSum += st.degSlots[c]
	}
	s.rowVol -= pushVol
	return pushVol, degSum, nil
}

// scanRemoveWeighted is the weighted fused sweep: it collects and
// stamps the batch and sums its row volume, but leaves the frontier
// unfiltered — weightedPull needs the live slice to still contain this
// pass's removals. Call filterLive(pushVol) after the pull.
func (st *peelState) scanRemoveWeighted(o Opts, cut float64, pass int) (pushVol int64, err error) {
	st.col.Reset()
	s := &st.sides[0]
	g, wdeg := st.g, st.wdeg
	origOf, removedAt := st.origOf, s.removedAt
	p32 := int32(pass)
	chunks := par.NumChunks(len(s.live))
	_, err = st.sweep.Sweep(o.Ctx, st.pool, s.live, func(c int, block []int32) int {
		var vol int64
		for _, u := range block {
			if wdeg[u] <= cut+1e-12 { // historical slack on the cut
				st.col.Append(c, u)
				ou := u
				if origOf != nil {
					ou = origOf[u]
				}
				removedAt[ou] = p32
				vol += int64(g.Degree(u))
			}
		}
		st.volSlots[c] = vol
		return len(block)
	})
	if err != nil {
		return 0, err
	}
	st.batch = st.col.Merge(st.batch[:0])
	for _, u := range st.batch {
		s.alive.Clear(u)
		st.inBatch.Set(u)
	}
	for c := 0; c < chunks; c++ {
		pushVol += st.volSlots[c]
	}
	return pushVol, nil
}

// quotaCut narrows an Algorithm 2 pass's cut to its quota: the key of
// the quota-th lowest live vertex at or below cut, or cut itself when
// the quota covers them all. The candidates are collected in ascending
// order at every worker count.
func (st *peelState) quotaCut(o Opts, cut cutKey, quota int) (cutKey, error) {
	st.col.Reset()
	deg, kd := st.sides[0].deg, cut.deg
	if _, err := st.sweep.Sweep(o.Ctx, st.pool, st.sides[0].live, func(c int, block []int32) int {
		for _, u := range block {
			if deg[u] <= kd {
				st.col.Append(c, u)
			}
		}
		return len(block)
	}); err != nil {
		return cut, err
	}
	st.batch = st.col.Merge(st.batch[:0])
	if quota >= len(st.batch) {
		return cut, nil
	}
	st.candDeg = resize(st.candDeg, len(st.batch))
	for i, u := range st.batch {
		st.candDeg[i] = deg[u]
	}
	d, id := lowestKey(st.batch, st.candDeg, &st.sel, quota)
	return cutKey{d, id}, nil
}

// lowestKey returns the (degree, id) key of the quota-th lowest of the
// ascending ids with degrees degs (1 ≤ quota ≤ len(ids)), degrees in
// cmp.Compare order. A quickselect around random pivots on a copy of
// degs in *sel finds the key's degree in expected linear time, its
// three-way partition settling a run of ties, however long, at once;
// one walk of the ids then finds the tie where the quota runs out, so
// ties go in id order with no sort. Every runtime's Algorithm 2 picks
// its quota through it.
func lowestKey[D int32 | float64](ids []int32, degs []D, sel *[]D, quota int) (D, int32) {
	x := append((*sel)[:0], degs...)
	*sel = x
	i, below := quota-1, 0 // the key's degree is x's i-th lowest; below counts those under x
	for {
		p := x[rand.IntN(len(x))]
		lt, j, gt := 0, 0, len(x) // x[:lt] < p, x[lt:j] == p, x[gt:] > p
		for j < gt {
			switch c := cmp.Compare(x[j], p); {
			case c < 0:
				x[lt], x[j] = x[j], x[lt]
				lt++
				j++
			case c > 0:
				gt--
				x[j], x[gt] = x[gt], x[j]
			default:
				j++
			}
		}
		if i < lt {
			x = x[:lt]
			continue
		}
		if i >= gt {
			x, i, below = x[gt:], i-gt, below+gt
			continue
		}
		for k, d := range degs { // below+lt degrees lie under p: count p's ties in id order
			if cmp.Compare(d, p) == 0 {
				if lt++; below+lt == quota {
					return p, ids[k]
				}
			}
		}
		panic("core: lowestKey: degs changed under the selection")
	}
}

// filterLive drops this pass's removals from sides[0]'s frontier and
// deducts their row volume. The in-place ascending filter is
// sequential — it is a single O(live) sweep over memory the candidate
// scan just touched — and therefore trivially worker-invariant. Only
// the weighted engine calls it: its pull needs the frontier to hold the
// pass's removals, which the integer engines' fused sweep filters out.
func (st *peelState) filterLive(pushVol int64) {
	s := &st.sides[0]
	live := s.live[:0]
	for _, u := range s.live {
		if s.alive.Test(u) {
			live = append(live, u)
		}
	}
	s.live = live
	s.rowVol -= pushVol
}

// pushDecrement scatters the removed batch's rows in from into to's
// degrees and returns the number of edges removed this pass. It is one
// sequential loop at every worker count, which is the width decrement
// prices it at. The decrements are blind — a dead vertex's degree slot
// is stale by construction and never read again — so the hot loop
// carries no membership gather at all, and the edge count is pure
// algebra: it is (degSum + left)/2. A directed push (from ≠ to) never
// touches the batch's own degrees, so left = degSum and the count is
// degSum, each removed S–T edge counted once. An undirected push also
// decrements each batch vertex once per batch neighbor, so left, the
// batch's degrees summed after the push, is degSum less twice the
// intra-batch edges, which degSum counted twice.
func (st *peelState) pushDecrement(from, to *side, batch []int32, degSum int64) int64 {
	rows, deg := from.rows, to.deg
	for _, u := range batch {
		for _, v := range rows.Row(u) {
			deg[v]--
		}
	}
	left := degSum
	if from == to {
		left = 0
		for _, u := range batch {
			left += int64(deg[u])
		}
	}
	return (degSum + left) / 2
}

// pullRecount recomputes each of to's survivors' live degrees over
// to.rows against from.alive, in parallel chunks, and returns their
// sum; to's frontier must already be filtered. Each row entry costs
// one branch-free alive-bit gather. An undirected sum (from == to)
// counts every surviving edge twice.
func (st *peelState) pullRecount(from, to *side) int64 {
	rows, deg, alive, live := to.rows, to.deg, from.alive, to.live
	return st.pool.SumInt64(len(live), func(_, lo, hi int) int64 {
		var s int64
		for _, v := range live[lo:hi] {
			cnt := int32(0)
			for _, nb := range rows.Row(v) {
				cnt += alive.Bit(nb)
			}
			deg[v] = cnt
			s += int64(cnt)
		}
		return s
	})
}

// decrement applies one pass's removals from side from to side to's
// degrees and returns the new surviving edge count. A push walks the
// batch's rows (pushVol entries) on one core, a pull to's survivors'
// rows (to.rowVol); a pushed entry costs about pullCost pulled ones at
// the pull's width, so the pass pulls exactly when to.rowVol <
// pullCost·pushVol. Both directions produce identical integer state,
// so the choice is a wall-clock trade that never changes a Result.
func (st *peelState) decrement(o Opts, from, to *side, batch []int32, pass int, edges, pushVol, degSum int64) int64 {
	pull := to.rowVol < st.pullCost*pushVol
	if o.hooks.mode != nil {
		o.hooks.mode(pass, pull)
	}
	switch {
	case !pull:
		return edges - st.pushDecrement(from, to, batch, degSum)
	case from == to:
		return st.pullRecount(from, to) / 2
	default:
		return st.pullRecount(from, to)
	}
}

// weightedPull is the weighted decrement pass: each survivor pulls the
// weights of its just-removed neighbors out of its weighted degree, in
// adjacency order; an edge between two removed vertices is charged
// once, to its larger endpoint. To keep the weighted trace
// bit-identical across worker counts AND compactions, the float
// reductions are grouped by fixed ChunkSize-id blocks of the ORIGINAL
// vertex space: each original chunk's weight/edge partial is summed by
// exactly one task in ascending original order (the frontier is sorted
// and the weighted relabel is order-preserving), and the caller folds
// the slots in ascending chunk order — exactly the grouping a
// frontier-less chunked sweep over [0, n) used, so the density trace
// never moves by a ULP. A push direction is deliberately absent here:
// pushing would reorder float subtractions into batch-adjacency order.
//
// Call BEFORE filterLive: the frontier must still contain this pass's
// removals (alive bit off, inBatch bit on).
func (st *peelState) weightedPull() {
	g, wdeg, live := st.g, st.wdeg, st.sides[0].live
	wslots, eslots := st.wSlots, st.eSlots
	alive, inBatch := st.sides[0].alive, st.inBatch
	chunks := par.NumChunks(st.origN)
	st.pool.ForEach(chunks, func(c int) {
		lo32 := int32(c * par.ChunkSize)
		hi32 := lo32 + par.ChunkSize
		i := sort.Search(len(live), func(i int) bool { return st.orig(live[i]) >= lo32 })
		j := i + sort.Search(len(live)-i, func(j int) bool { return st.orig(live[i+j]) >= hi32 })
		var wsub float64
		var esub int64
		for _, v := range live[i:j] {
			switch {
			case alive.Test(v):
				ws := g.NeighborWeights(v)
				for k, u := range g.Neighbors(v) {
					if inBatch.Test(u) {
						w := 1.0
						if ws != nil {
							w = ws[k]
						}
						wdeg[v] -= w
						wsub += w
						esub++
					}
				}
			case inBatch.Test(v):
				ws := g.NeighborWeights(v)
				for k, u := range g.Neighbors(v) {
					if u < v && inBatch.Test(u) {
						w := 1.0
						if ws != nil {
							w = ws[k]
						}
						wsub += w
						esub++
					}
				}
			}
		}
		wslots[c] = wsub
		eslots[c] = esub
	})
}

// maybeCompactWeighted is the weighted peeler's end-of-pass compaction
// policy, the only CSR rebuild in the peel engines. The weighted
// decrement pulls over the survivors' whole rows on every pass, so
// their dead entries cost every later pass; a compaction is a whole
// extra O(rowVol) scan over the surviving rows. It pays only once
// those rows have actually decayed: when at least half their entries
// point at dead neighbors (rowVol ≥ 2·2·edges), every future pass
// saves at least half the rebuild cost.
// That shape arises when survivors are hubs that just lost their
// leaves; a dense core whose rows are still mostly alive — the usual
// power-law collapse — skips the rebuild, because it would trade a
// full scan for marginal savings on the final pass or two.
func (st *peelState) maybeCompactWeighted(o Opts, edges int64) {
	s := &st.sides[0]
	if len(s.live) == 0 || st.n < compactMinNodes || len(s.live)*compactLiveDivisor > st.n {
		return
	}
	if s.rowVol < 4*edges {
		return
	}
	st.compactWeighted(o)
}

// compactWeighted rebuilds the CSR around the live set with the
// order-preserving relabel the weighted engine requires (see
// weightedPull) and resets the current-space state: every kept vertex
// is alive, no pass is in flight, and the frontier is the identity
// over the new space. Weighted degrees are running float accumulators
// and are copied bit-exactly. keep is ascending, so keep[i] ≥ i: the
// degrees and origOf both move down in place without overwriting an
// entry still unread.
func (st *peelState) compactWeighted(o Opts) {
	s := &st.sides[0]
	keep := s.live
	prevN, nn := st.n, len(keep)
	ng := st.g.CompactInto(keep, &st.cs[st.csTurn])
	st.csTurn ^= 1
	// Once origOf aliases origBuf, nn ≤ len(origOf) and resize keeps
	// the storage, so the map composes in place.
	origOf := resize(st.origBuf, nn)
	st.origBuf = origOf
	for i, u := range keep {
		origOf[i] = st.orig(u)
		st.wdeg[i] = st.wdeg[u]
		keep[i] = int32(i)
	}
	st.wdeg = st.wdeg[:nn]
	s.alive.Fill(nn)
	st.inBatch.Zero()
	st.g, st.n, st.origOf = ng, nn, origOf
	s.rows, s.rowVol = ng.Rows(), 2*ng.NumEdges()
	if o.hooks.compacted != nil {
		o.hooks.compacted(nn, prevN)
	}
}

// survivorsAfter returns the original-space nodes still alive strictly
// after bestPass (removedAt == 0 means never removed).
func survivorsAfter(removedAt []int32, bestPass int) []int32 {
	var out []int32
	for u, p := range removedAt {
		if p == 0 || int(p) > bestPass {
			out = append(out, int32(u))
		}
	}
	return out
}
