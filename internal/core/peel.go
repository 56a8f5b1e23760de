package core

import (
	"math"
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
//   - a live-vertex frontier: the candidate scan walks a compacted,
//     ascending slice of the surviving vertex ids in fixed 2048-id
//     blocks (par.Sweeper), so a pass costs O(live), not O(n), once the
//     graph has started to shrink. For the integer engines the scan is
//     fused: one sweep collects the batch, stamps it removed, filters
//     the frontier in place, and accumulates the pass sums the
//     decrement needs;
//   - bitset membership: aliveness and batch membership live in packed
//     bitsets (n/8 bytes instead of 4n), so the random membership
//     gathers of the pull recount and the weighted decrement stay
//     L1/L2-resident instead of missing on a 4-byte-per-vertex stamp
//     array;
//   - push or pull by one measured cost: a pass of the unweighted
//     engines either pushes decrements along the removed batch's rows —
//     one sequential scatter of blind decrements with no aliveness
//     gather; a dead vertex's degree slot is stale by construction and
//     never read again — or pulls, recounting every survivor's live
//     degree directly from the CSR in parallel chunks. A pushed entry
//     costs about pushPullCost pulled ones on one core, and the pull
//     runs on w = min(pool workers, GOMAXPROCS) cores while the push
//     runs on one, so a pass pulls when the survivors' rows hold fewer
//     than pushPullCost·w times the batch's entries: the
//     direction-optimizing trade of Beamer-style BFS, priced at the
//     width each direction runs at. The unweighted engines peel their
//     input CSR to the end and never relabel a vertex: they finish in
//     O(log_{1+ε} n) passes, and on the measured shapes, up to a
//     2,522-pass peel at ε=0, a rebuild did not measurably pay for
//     itself;
//   - a weighted-only rebuild: the weighted decrement always pulls (a
//     push would reorder its float subtractions), so every pass walks
//     the survivors' whole rows, dead entries included. Once those rows
//     have decayed (maybeCompactWeighted), it rebuilds the surviving
//     subgraph with the order-preserving graph.CompactInto and maps ids
//     back through origOf, so ascending current order stays ascending
//     original order — the invariant its chunk-grouped float
//     reductions need;
//   - recycled scratch: every per-solve buffer, the compaction
//     scratches included, lives in a peelState that statePool hands
//     from one solve to the next, so a warm solve neither allocates
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
	// ones, both on one core: decrement pulls when
	// liveRowVol < pushPullCost·w·pushVol, w being the pull's width.
	// BenchmarkCorePushVsPull times pushDecrement over a batch and
	// pullRecount over its survivors on the 2M-edge RMAT graph, the
	// batch being every node of degree ≤ c × the average (2-vCPU Xeon,
	// GOMAXPROCS 2, 3 runs of 20 iterations): at one worker a pushed
	// entry cost 3.7–3.9 pulled ones at c = 3 and 5.5–6.5 at c = 1; at
	// two workers, where only the pull runs wider, 6.3–6.9 and
	// 8.5–11.6, nearly twice as many, which is what the w factor
	// charges. Rounded from one worker at c = 3: 4.
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
	mode      func(pass int, pull bool) // an unweighted or directed decrement's direction
	compacted func(liveN, prevN int)    // the weighted engine rebuilt its CSR
}

// peelState is the mutable state of an undirected peel run. The
// unweighted engines peel the input CSR to the end, so their ids are
// the input's throughout. The weighted engine's ids live in two spaces:
// the "current" space of the (possibly compacted) CSR, in which all
// per-pass state is indexed, and the original space of the input
// graph, in which removal passes are recorded for the final Set. Its
// relabel is order-preserving, so ascending current order is always
// ascending original order.
type peelState struct {
	pool  *par.Pool
	g     *graph.Undirected // current CSR (input graph or a compaction of it)
	n     int               // current CSR node count
	origN int

	origOf     []int32      // current id -> original id; nil = identity
	live       []int32      // ascending current ids of the surviving vertices
	liveRowVol int64        // Σ CSR row length over live (the pull cost)
	pullWidth  int64        // w = min(pool workers, GOMAXPROCS): cores a pull runs on
	alive      graph.Bitset // current space; bit set = not yet removed
	inBatch    graph.Bitset // current space; bit set = removed this pass
	removedAt  []int32      // original space; 0 = never removed
	deg        []int32      // live degrees (unweighted peelers)
	wdeg       []float64    // live weighted degrees (weighted peeler)

	col      *par.Collector
	batch    []int32
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

// newPeelState takes a state from statePool (or a fresh one) and
// initializes it for a peel of g on a pool acquired for o.Workers.
// Every buffer is resized to g and every field the engines read before
// writing is reset, so no run sees its predecessor's contents. Pair it
// with release.
func newPeelState(g *graph.Undirected, o Opts, weighted bool) *peelState {
	n := g.NumNodes()
	st, _ := statePool.Get().(*peelState)
	if st == nil {
		st = &peelState{col: par.NewCollector(n)}
	}
	pool := o.pool()
	st.pool, st.g, st.n, st.origN = pool, g, n, n
	st.pullWidth = int64(min(pool.Workers(), runtime.GOMAXPROCS(0)))
	st.origOf = nil
	st.live = resize(st.live, n)
	st.liveRowVol = 2 * g.NumEdges()
	st.alive = resize(st.alive, (n+63)>>6)
	st.alive.Fill(n)
	st.inBatch = resize(st.inBatch, (n+63)>>6)
	st.inBatch.Zero()
	st.removedAt = resize(st.removedAt, n)
	clear(st.removedAt)
	st.col.Grow(n)
	chunks := par.NumChunks(n)
	st.volSlots = resize(st.volSlots, chunks)
	st.degSlots = resize(st.degSlots, chunks)
	clear(st.volSlots)
	clear(st.degSlots)
	if weighted {
		st.wSlots = resize(st.wSlots, chunks)
		st.eSlots = resize(st.eSlots, chunks)
		clear(st.wSlots)
		clear(st.eSlots)
		st.wdeg = resize(st.wdeg, n)
		pool.ForChunks(n, func(_, lo, hi int) {
			for u := lo; u < hi; u++ {
				st.live[u] = int32(u)
				st.wdeg[u] = g.WeightedDegree(int32(u))
			}
		})
	} else {
		st.deg = resize(st.deg, n)
		pool.ForChunks(n, func(_, lo, hi int) {
			for u := lo; u < hi; u++ {
				st.live[u] = int32(u)
				st.deg[u] = int32(g.Degree(int32(u)))
			}
		})
	}
	return st
}

// release hands the state back to statePool and its worker pool back
// for reuse. The emitted Result must not alias the state: Set and
// Trace are always fresh allocations. Nothing may touch st afterwards.
func (st *peelState) release() {
	st.pool.Release()
	st.pool, st.g, st.origOf = nil, nil, nil
	statePool.Put(st)
}

// orig maps a current vertex id back to its original id.
func (st *peelState) orig(u int32) int32 {
	if st.origOf == nil {
		return u
	}
	return st.origOf[u]
}

// cutToInt floors the removal threshold to the integer domain the
// unweighted scans compare in: deg ≤ cut ⟺ deg ≤ ⌊cut⌋ for integer
// degrees, and the floor turns a float compare per vertex into an
// int32 one.
func cutToInt(cut float64) int32 {
	f := math.Floor(cut)
	if f >= math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(f)
}

// stampBatch flips the batch's bits out of alive and into inBatch.
// Bitset words are shared between neighboring ids, so bit mutation is
// confined to this driver-goroutine loop rather than the parallel
// scan.
func (st *peelState) stampBatch(batch []int32) {
	for _, u := range batch {
		st.alive.Clear(u)
		st.inBatch.Set(u)
	}
}

// clearBatch retires the pass's inBatch bits once the decrement is
// done.
func (st *peelState) clearBatch(batch []int32) {
	for _, u := range batch {
		st.inBatch.Clear(u)
	}
}

// scanRemove is the fused per-pass sweep of the unweighted engines:
// one batched walk over the live frontier collects the below-cut
// vertices (ascending, chunk-merged), records their removal pass,
// filters them out of the frontier in place, and accumulates the two
// pass sums the decrement needs — the batch's CSR row volume (the push
// cost) and its live-degree sum (exactly the edges the pass takes
// down, counting intra-batch edges twice). The batch's bitset stamps
// are applied after the sweep, on the driver goroutine.
func (st *peelState) scanRemove(o Opts, cut float64, pass int) (pushVol, degSum int64, err error) {
	st.col.Reset()
	g, deg, removedAt := st.g, st.deg, st.removedAt
	p32 := int32(pass)
	icut := cutToInt(cut)
	chunks := par.NumChunks(len(st.live))
	live, err := st.sweep.Sweep(o.Ctx, st.pool, st.live, func(c int, block []int32) int {
		var vol, ds int64
		w := 0
		for _, u := range block {
			if deg[u] > icut {
				block[w] = u
				w++
				continue
			}
			st.col.Append(c, u)
			removedAt[u] = p32
			vol += int64(g.Degree(u))
			ds += int64(deg[u])
		}
		st.volSlots[c] = vol
		st.degSlots[c] = ds
		return w
	})
	if err != nil {
		return 0, 0, err
	}
	st.live = live
	st.batch = st.col.Merge(st.batch[:0])
	st.stampBatch(st.batch)
	for c := 0; c < chunks; c++ {
		pushVol += st.volSlots[c]
		degSum += st.degSlots[c]
	}
	st.liveRowVol -= pushVol
	return pushVol, degSum, nil
}

// scanRemoveWeighted is the weighted fused sweep: it collects and
// stamps the batch and sums its row volume, but leaves the frontier
// unfiltered — weightedPull needs st.live to still contain this
// pass's removals. Call filterLive(pushVol) after the pull.
func (st *peelState) scanRemoveWeighted(o Opts, cut float64, pass int) (pushVol int64, err error) {
	st.col.Reset()
	g, wdeg := st.g, st.wdeg
	origOf, removedAt := st.origOf, st.removedAt
	p32 := int32(pass)
	chunks := par.NumChunks(len(st.live))
	_, err = st.sweep.Sweep(o.Ctx, st.pool, st.live, func(c int, block []int32) int {
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
	st.stampBatch(st.batch)
	for c := 0; c < chunks; c++ {
		pushVol += st.volSlots[c]
	}
	return pushVol, nil
}

// scanCandidates collects the live vertices with degree at most cut
// into st.batch without removing anything: AtLeastK keeps only a
// quota of the candidates, so stamping and filtering wait for the
// selection (markRemoved, filterLive).
func (st *peelState) scanCandidates(o Opts, cut float64) error {
	st.col.Reset()
	deg := st.deg
	icut := cutToInt(cut)
	if _, err := st.sweep.Sweep(o.Ctx, st.pool, st.live, func(c int, block []int32) int {
		for _, u := range block {
			if deg[u] <= icut {
				st.col.Append(c, u)
			}
		}
		return len(block)
	}); err != nil {
		return err
	}
	st.batch = st.col.Merge(st.batch[:0])
	return nil
}

// markRemoved stamps a selected batch (not necessarily ascending)
// removed and returns its CSR row volume and live-degree sum — the
// same pass sums the fused scans produce.
func (st *peelState) markRemoved(batch []int32, pass int) (pushVol, degSum int64) {
	g, deg := st.g, st.deg
	p32 := int32(pass)
	chunks := par.NumChunks(len(batch))
	st.pool.ForChunks(len(batch), func(c, lo, hi int) {
		var vol, ds int64
		for _, u := range batch[lo:hi] {
			st.removedAt[u] = p32
			vol += int64(g.Degree(u))
			ds += int64(deg[u])
		}
		st.volSlots[c] = vol
		st.degSlots[c] = ds
	})
	st.stampBatch(batch)
	for c := 0; c < chunks; c++ {
		pushVol += st.volSlots[c]
		degSum += st.degSlots[c]
	}
	return pushVol, degSum
}

// filterLive drops this pass's removals from the frontier and deducts
// their row volume. The in-place ascending filter is sequential — it
// is a single O(live) sweep over memory the candidate scan just
// touched — and therefore trivially worker-invariant. The unweighted
// engines fuse this into scanRemove; only the quota and weighted
// paths, whose removal sets are fixed after the scan, still call it.
func (st *peelState) filterLive(pushVol int64) {
	alive := st.alive
	live := st.live[:0]
	for _, u := range st.live {
		if alive.Test(u) {
			live = append(live, u)
		}
	}
	st.live = live
	st.liveRowVol -= pushVol
}

// pushDecrement scatters the removed batch's adjacency into the degree
// array and returns the number of edges removed this pass. It is one
// sequential loop at every worker count, which is the width decrement
// prices it at. The decrements are blind — a dead neighbor's degree
// slot is stale by construction and never read again — so the hot loop
// carries no aliveness gather at all; the only lookup is the
// L1-resident in-batch bitset that discounts each intra-batch edge
// once. The edge count is then pure algebra: the batch's live-degree
// sum counts a batch↔survivor edge once and an intra-batch edge twice.
func (st *peelState) pushDecrement(batch []int32, degSum int64) int64 {
	g, deg, inBatch := st.g, st.deg, st.inBatch
	var dup int64
	for _, u := range batch {
		// Branch-free discount: the v>u comparison is a coin flip on
		// intra-batch edges, so testing it with a branch mispredicts
		// half the loop; the sign-bit mask and the L1-resident bit
		// gather keep the pipeline full.
		for _, v := range g.Neighbors(u) {
			deg[v]--
			dup += int64((uint32(u-v) >> 31) & uint32(inBatch.Bit(v)))
		}
	}
	return degSum - dup
}

// pullRecount recomputes every survivor's degree directly from the CSR
// and returns the surviving edge count; the frontier must already be
// filtered. Each row entry costs one branch-free alive-bit gather.
func (st *peelState) pullRecount() int64 {
	g, deg, alive, live := st.g, st.deg, st.alive, st.live
	total := st.pool.SumInt64(len(live), func(_, lo, hi int) int64 {
		var s int64
		for _, v := range live[lo:hi] {
			cnt := int32(0)
			for _, nb := range g.Neighbors(v) {
				cnt += alive.Bit(nb)
			}
			deg[v] = cnt
			s += int64(cnt)
		}
		return s
	})
	return total / 2
}

// decrement applies one pass's removals to the degree state and
// returns the new surviving edge count. A push walks the batch's rows
// (pushVol entries) on one core, a pull the survivors' (liveRowVol) on
// pullWidth cores; a pushed entry costs about pushPullCost pulled ones,
// so the pass pulls exactly when that makes it the sooner direction.
// Both directions produce identical integer state, so the choice is a
// wall-clock trade that never changes a Result.
func (st *peelState) decrement(o Opts, batch []int32, pass int, edges, pushVol, degSum int64) int64 {
	pull := st.liveRowVol < pushPullCost*st.pullWidth*pushVol
	if o.hooks.mode != nil {
		o.hooks.mode(pass, pull)
	}
	if pull {
		edges = st.pullRecount()
	} else {
		edges -= st.pushDecrement(batch, degSum)
	}
	st.clearBatch(batch)
	return edges
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
// Call BEFORE filterLive: st.live must still contain this pass's
// removals (alive bit off, inBatch bit on).
func (st *peelState) weightedPull() {
	g, wdeg, live := st.g, st.wdeg, st.live
	wslots, eslots := st.wSlots, st.eSlots
	alive, inBatch := st.alive, st.inBatch
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
// extra O(liveRowVol) scan over the surviving rows. It pays only once
// those rows have actually decayed: when at least half their entries
// point at dead neighbors (liveRowVol ≥ 2·2·edges), every future pass
// saves at least half the rebuild cost.
// That shape arises when survivors are hubs that just lost their
// leaves; a dense core whose rows are still mostly alive — the usual
// power-law collapse — skips the rebuild, because it would trade a
// full scan for marginal savings on the final pass or two.
func (st *peelState) maybeCompactWeighted(o Opts, edges int64) {
	if len(st.live) == 0 || st.n < compactMinNodes || len(st.live)*compactLiveDivisor > st.n {
		return
	}
	if st.liveRowVol < 4*edges {
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
	keep := st.live
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
	st.alive.Fill(nn)
	st.inBatch.Zero()
	st.g, st.n, st.origOf = ng, nn, origOf
	st.liveRowVol = 2 * ng.NumEdges()
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
