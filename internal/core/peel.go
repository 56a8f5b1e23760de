package core

import (
	"math"
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
//   - adaptive push/pull decrements: a small removed batch pushes
//     decrements along its own adjacency — blind scatter decrements
//     with no aliveness gather at all; a dead vertex's degree slot is
//     stale by construction and never read again — while a batch whose
//     adjacency outweighs the survivors' flips to a pull pass that
//     recounts every survivor's live degree directly from the CSR, the
//     direction-optimizing trade of Beamer-style BFS, decided by graph
//     shape alone so every worker count takes the same path;
//   - periodic CSR compaction with a hub-first relabel: a pull pass of
//     the unweighted engines rebuilds the surviving subgraph into a
//     dense CSR ordered by surviving degree
//     (graph.CompactIntoDegreeOrdered, whose two row scans run on the
//     solve's pool over pieces of fixed original-row volume) once the
//     survivors' rows hold at most 1/compactVolDivisor of the current
//     CSR's entries. Until then the survivors are typically the hubs,
//     whose rows still carry most of the adjacency, so the rebuild's
//     gather would walk nearly all of it; such a pull recounts in
//     place and keeps the CSR. Dense rows pack to the front,
//     equal-length rows become fixed-stride banks the pull recount
//     walks with counted branch-light loops, and the orig() mapping
//     composes through the permutation so emitted Solutions are
//     unchanged. The weighted engine keeps the order-preserving
//     relabel and its own node-count rule (maybeCompactWeighted): its
//     float reductions are grouped by original-id chunks and depend on
//     the frontier staying ascending in original order;
//   - recycled scratch: every per-solve buffer, the compaction
//     scratches included, lives in a peelState that statePool hands
//     from one solve to the next, so a warm solve neither allocates
//     nor zeroes O(n + m) memory it already had. The GC may drop an
//     idle state at any time.
//
// Every decision above is a function of the graph shape only — never
// of the worker count — which preserves the engines' bit-identical
// determinism contract (see internal/par).
const (
	// compactMinNodes: CSRs smaller than this are never compacted —
	// they are already cache resident and the rebuild bookkeeping
	// would dominate.
	compactMinNodes = 1 << 10
	// compactLiveDivisor: a compaction is "due" — and tilts the
	// decrement direction toward pull (see compactTilt) — once the live
	// set is at most 1/compactLiveDivisor of the current CSR's node
	// count. It steers only the direction: whether a pull pass, due or
	// cost-chosen, fuses a rebuild is compactVolDivisor's test. The
	// weighted engine's own rule (maybeCompactWeighted) starts from
	// this node count.
	compactLiveDivisor = 4
	// compactVolDivisor (D): an unweighted pull pass fuses a rebuild
	// only while the survivors' rows hold at most 1/D of the current
	// CSR's adjacency entries (liveRowVol·D ≤ 2|E|); otherwise it
	// recounts with pullRecount and keeps the CSR. D is the measured
	// cost of a rebuilt entry over a pulled one, so the rule reads
	// "rebuild only when it costs no more than one pull over the whole
	// current CSR". A rebuild then leaves a CSR of at most 1/D of the
	// previous one's entries, so total rebuild work is a geometric
	// series within D/(D−1) full pulls of the input: O(n + m) per run.
	// BenchmarkCoreRebuildVsPull on the 2M-edge RMAT graph (2-vCPU
	// Xeon, GOMAXPROCS 2, 20 iterations × 3 runs): the rebuild cost
	// 6.4–7.9 ns per entry against 1.4–1.8 for the pull at one worker,
	// and 3.0–4.7 against 0.71–1.06 at two; the ratio ran 4.0–5.0 over
	// both keep sets and worker counts, median 4.4. The same benchmark
	// on a Chung–Lu 400K/2M graph (peel-mem's shape) gave 3.6–4.5.
	// Rounded: 4.
	compactVolDivisor = 4
)

// peelHooks are package-internal observation points for the layout
// tests: the parity sweep uses them to assert that both decrement
// modes, the compactor, a pull that keeps the CSR, the degree-ordered
// relabel, and the banked pull path actually ran. Nil hooks are never called; all hooks fire
// on the driver goroutine.
type peelHooks struct {
	mode      func(pass int, pull bool)
	compacted func(liveN, prevN int)
	kept      func(liveN int)          // a pull pass on a compactable CSR kept it (row volume too large)
	relabeled func(liveN int)          // a degree-ordered (hub-first) rebuild ran
	banked    func(liveN, classes int) // a pull recount took the fixed-stride banks
}

// peelState is the mutable state of an undirected peel run. Vertex ids
// live in two spaces: the "current" space of the (possibly compacted)
// CSR, in which all per-pass state is indexed, and the original space
// of the input graph, in which removal passes are recorded for the
// final Set. The unweighted engines relabel hub-first at compaction
// (composing origOf through the permutation); the weighted engine
// relabels order-preservingly, so for it ascending current order is
// always ascending original order — the invariant its chunk-grouped
// float reductions need.
type peelState struct {
	pool  *par.Pool
	g     *graph.Undirected // current CSR (input graph or a compaction of it)
	n     int               // current CSR node count
	origN int

	origOf     []int32      // current id -> original id; nil = identity
	live       []int32      // ascending current ids of the surviving vertices
	liveRowVol int64        // Σ CSR row length over live (the pull cost)
	alive      graph.Bitset // current space; bit set = not yet removed
	inBatch    graph.Bitset // current space; bit set = removed this pass
	removedAt  []int32      // original space; 0 = never removed
	deg        []int32      // live degrees (unweighted peelers)
	wdeg       []float64    // live weighted degrees (weighted peeler)

	col      *par.Collector
	batch    []int32
	router   *par.Router
	sweep    par.Sweeper
	volSlots []int64   // per-chunk row-volume partials of the fused scan
	degSlots []int64   // per-chunk live-degree partials of the fused scan
	wSlots   []float64 // per-original-chunk weight partials of weightedPull
	eSlots   []int64   // per-original-chunk edge partials of weightedPull
	cs       [2]graph.CompactScratch
	csTurn   int
	// origBuf is the ping-pong storage behind origOf: a compaction
	// composes the new map from the old one, so the two never share
	// storage.
	origBuf  [2][]int32
	origTurn int

	// compactTilt scales how far the survivors' rows may exceed the
	// push cost on a due pass before the engine still pulls (see
	// decrement), hoping the pull fuses a rebuild. A rebuild is an
	// investment repaid by later passes, and the pass count grows as
	// log_{1+ε} n: slow sweeps (ε < 1) amortize an expensive rebuild
	// over many passes and use 4; aggressive sweeps peel out in a
	// handful of passes, so only a pull within 2× of the push cost can
	// pay for itself. The tilt reads node counts only; a tilted pull
	// whose rows fail compactVolDivisor recounts in place. Direction
	// choices are shape-only — the tilt never changes emitted
	// Solutions, only wall-clock.
	compactTilt int64
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
	if st.router != nil && st.router.Lanes() != par.NumLanes(n) {
		st.router = nil
	}
	chunks := par.NumChunks(n)
	st.volSlots = resize(st.volSlots, chunks)
	st.degSlots = resize(st.degSlots, chunks)
	clear(st.volSlots)
	clear(st.degSlots)
	st.compactTilt = 2
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

// nextOrigOf returns the origBuf half that the current origOf does not
// use, sized to nn.
func (st *peelState) nextOrigOf(nn int) []int32 {
	st.origTurn ^= 1
	st.origBuf[st.origTurn] = resize(st.origBuf[st.origTurn], nn)
	return st.origBuf[st.origTurn]
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
// done (compaction resets the bitsets wholesale instead).
func (st *peelState) clearBatch(batch []int32) {
	for _, u := range batch {
		st.inBatch.Clear(u)
	}
}

// scanRemove is the fused per-pass sweep of the unweighted engines:
// one batched walk over the live frontier collects the below-cut
// vertices (ascending, chunk-merged), records their removal pass in
// original space, filters them out of the frontier in place, and
// accumulates the two pass sums the decrement needs — the batch's CSR
// row volume (the push cost) and its live-degree sum (exactly the
// edges the pass takes down, counting intra-batch edges twice). The
// batch's bitset stamps are applied after the sweep, on the driver
// goroutine.
func (st *peelState) scanRemove(o Opts, cut float64, pass int) (pushVol, degSum int64, err error) {
	st.col.Reset()
	g, deg := st.g, st.deg
	origOf, removedAt := st.origOf, st.removedAt
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
			ou := u
			if origOf != nil {
				ou = origOf[u]
			}
			removedAt[ou] = p32
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
// removed in both id spaces and returns its CSR row volume and
// live-degree sum — the same pass sums the fused scans produce.
func (st *peelState) markRemoved(batch []int32, pass int) (pushVol, degSum int64) {
	g, deg := st.g, st.deg
	p32 := int32(pass)
	chunks := par.NumChunks(len(batch))
	st.pool.ForChunks(len(batch), func(c, lo, hi int) {
		var vol, ds int64
		for _, u := range batch[lo:hi] {
			st.removedAt[st.orig(u)] = p32
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
// array and returns the number of edges removed this pass. The
// sequential decrements are blind — a dead neighbor's degree slot is
// stale by construction and never read again — so the hot loop carries
// no aliveness gather at all; the only lookup is the L1-resident
// in-batch bitset that discounts each intra-batch edge once. The edge
// count is then pure algebra: the batch's live-degree sum counts a
// batch↔survivor edge once and an intra-batch edge twice. Past one
// worker the decrements ride the owned-lane router (no atomics); only
// live targets are routed, which skips the same dead slots the
// sequential path silently corrupts — divergence confined to memory
// no path reads.
func (st *peelState) pushDecrement(batch []int32, degSum int64) int64 {
	g, deg, inBatch := st.g, st.deg, st.inBatch
	if st.pool.Workers() == 1 {
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
	if st.router == nil {
		st.router = par.NewRouter(st.origN)
	}
	st.router.Begin(par.NumChunks(len(batch)))
	alive := st.alive
	dup := st.pool.SumInt64(len(batch), func(c, lo, hi int) int64 {
		var d int64
		for _, u := range batch[lo:hi] {
			for _, v := range g.Neighbors(u) {
				if alive.Test(v) {
					st.router.Route(c, v)
				} else if v > u && inBatch.Test(v) {
					d++
				}
			}
		}
		return d
	})
	st.router.Drain(st.pool, func(_ int, ids []int32) {
		for _, v := range ids {
			deg[v]--
		}
	})
	return degSum - dup
}

// pullRecount recomputes every survivor's degree directly from the CSR
// and returns the surviving edge count; the frontier must already be
// filtered. Chosen over push when the removed batch's adjacency
// outweighs the survivors' (huge removal batches), where rescanning
// the survivors is the cheaper direction. On a degree-ordered CSR the
// banked region runs fixed-stride counted loops (graph.RowBanks);
// spill-lane hubs and pre-compaction graphs walk plain CSR rows. Both
// use the branch-free alive-bit gather.
func (st *peelState) pullRecount() int64 {
	g, deg, alive, live := st.g, st.deg, st.alive, st.live
	banks := g.RowBanks()
	total := st.pool.SumInt64(len(live), func(_, lo, hi int) int64 {
		ids := live[lo:hi]
		if banks == nil {
			return pullRows(g, deg, alive, ids)
		}
		spill := sort.Search(len(ids), func(i int) bool { return ids[i] >= banks.SpillEnd })
		s := pullRows(g, deg, alive, ids[:spill])
		return s + banks.CountLive(ids[spill:], alive, deg)
	})
	return total / 2
}

// pullRows is the per-row pull recount over plain CSR rows.
func pullRows(g *graph.Undirected, deg []int32, alive graph.Bitset, ids []int32) int64 {
	var s int64
	for _, v := range ids {
		cnt := int32(0)
		for _, nb := range g.Neighbors(v) {
			cnt += alive.Bit(nb)
		}
		deg[v] = cnt
		s += int64(cnt)
	}
	return s
}

// decrement applies one pass's removals to the degree state through
// whichever direction is cheaper and returns the new surviving edge
// count. A pull pass on a compactable CSR fuses with a rebuild —
// compacting IS the pull, since a survivor's row length in the
// compacted CSR is exactly its live-neighbor count — when the
// survivors' rows are at most 1/compactVolDivisor of the CSR's
// entries. A pull whose survivors' rows are larger recounts in place
// and keeps the CSR: the rebuild's gather would walk nearly the whole
// adjacency, at about compactVolDivisor times a pull's cost per entry.
// All paths produce identical integer state; the choices are pure
// wall-clock trades fixed by the graph shape.
func (st *peelState) decrement(o Opts, batch []int32, pass int, edges, pushVol, degSum int64) int64 {
	canCompact := st.n >= compactMinNodes
	// The direction is the per-pass cost minimum — push touches the
	// batch's rows, pull the survivors' — except that a due compaction
	// (live set under 1/compactLiveDivisor of the CSR) tilts the choice
	// toward pull while the survivors' rows stay within compactTilt
	// pushes: the same scan may then also yield a dense, degree-ordered
	// CSR for every later pass. Survivors whose rows dwarf even that —
	// on skewed graphs the hubs carrying most of the adjacency volume —
	// keep pushing until the ratio improves. The tilt reads node counts
	// only; the row-volume test below decides whether a pull rebuilds.
	due := canCompact && len(st.live)*compactLiveDivisor <= st.n
	pull := pushVol > st.liveRowVol || (due && st.liveRowVol < st.compactTilt*pushVol)
	if o.hooks.mode != nil {
		o.hooks.mode(pass, pull)
	}
	// An emptied frontier skips the rebuild: the loop is about to exit,
	// so compacting to a zero-node CSR would be pure waste.
	compactable := pull && canCompact && len(st.live) > 0
	switch {
	case compactable && st.liveRowVol*compactVolDivisor <= 2*st.g.NumEdges():
		st.compact(o)
		return st.g.NumEdges()
	case pull:
		if compactable && o.hooks.kept != nil {
			o.hooks.kept(len(st.live))
		}
		if o.hooks.banked != nil && st.g.RowBanks() != nil {
			o.hooks.banked(len(st.live), st.g.RowBanks().Classes())
		}
		st.clearBatch(batch)
		return st.pullRecount()
	default:
		sub := st.pushDecrement(batch, degSum)
		st.clearBatch(batch)
		return edges - sub
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
// policy. The weighted decrement can never fuse with a rebuild (its
// float subtractions are pinned to original-chunk order), so a
// compaction is a whole extra O(liveRowVol) scan over the surviving
// rows. It pays only once those rows have actually decayed: when at
// least half their entries point at dead neighbors (liveRowVol ≥
// 2·2·edges), every future pass saves at least half the rebuild cost.
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

// compact rebuilds the CSR around the live set through the hub-first
// relabel: graph.CompactIntoDegreeOrdered ranks survivors by surviving
// degree and returns the permutation, which origOf composes through,
// so the recorded Solutions never see the reordering. Integer degrees
// are read off the compacted row lengths — each row holds exactly the
// live neighbors, which is what lets the unweighted pull pass fuse
// into the rebuild — and later pull recounts ride the fixed-stride
// row banks the ordered layout exposes.
func (st *peelState) compact(o Opts) {
	keep := st.live
	prevN := st.n
	ng, order := st.g.CompactIntoDegreeOrdered(st.pool, keep, &st.cs[st.csTurn])
	st.csTurn ^= 1
	nn := len(keep)
	origOf := st.nextOrigOf(nn)
	for r, u := range order[:nn] {
		origOf[r] = st.orig(u)
	}
	// The compaction read nothing from deg, so the new degrees can
	// overwrite it.
	nd := st.deg[:nn]
	for i := range nd {
		nd[i] = int32(ng.Degree(int32(i)))
	}
	st.deg = nd
	st.finishCompact(o, ng, origOf, prevN)
	if o.hooks.relabeled != nil {
		o.hooks.relabeled(nn)
	}
}

// compactWeighted rebuilds the CSR around the live set with the
// order-preserving relabel the weighted engine requires (see
// weightedPull); weighted degrees are running float accumulators and
// are copied bit-exactly. keep is ascending, so keep[i] ≥ i and the
// degrees move down in place without overwriting one still unread.
func (st *peelState) compactWeighted(o Opts) {
	keep := st.live
	prevN := st.n
	ng := st.g.CompactInto(keep, &st.cs[st.csTurn])
	st.csTurn ^= 1
	nn := len(keep)
	origOf := st.nextOrigOf(nn)
	for i, u := range keep {
		origOf[i] = st.orig(u)
		st.wdeg[i] = st.wdeg[u]
	}
	st.wdeg = st.wdeg[:nn]
	st.finishCompact(o, ng, origOf, prevN)
}

// finishCompact swaps in the rebuilt CSR and resets the current-space
// state: every kept vertex is alive, no pass is in flight, and the
// frontier is the identity over the new space (st.live aliases the
// keep slice the caller passed to the compactor).
func (st *peelState) finishCompact(o Opts, ng *graph.Undirected, origOf []int32, prevN int) {
	keep := st.live
	nn := len(keep)
	for i := range keep {
		keep[i] = int32(i)
	}
	st.alive.Fill(nn)
	st.inBatch.Zero()
	st.g = ng
	st.n = nn
	st.origOf = origOf
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
