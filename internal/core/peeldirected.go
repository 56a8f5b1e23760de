package core

import (
	"densestream/internal/graph"
	"densestream/internal/par"
)

// directedState is the peelState analogue for Algorithm 3: two live
// frontiers (S and T) over the input directed CSR. A run peels that CSR
// to the end and never rebuilds it (on power-law directed inputs a
// rebuild measured 1.5–4× slower than none), so there is one id space,
// the input's. Side membership lives in packed bitsets so the pull
// recount's membership gathers stay cache-resident.
type directedState struct {
	pool *par.Pool
	g    *graph.Directed

	aliveS, aliveT         graph.Bitset // bit set = alive on that side
	removedAtS, removedAtT []int32      // 0 = never removed
	liveS, liveT           []int32      // ascending ids per side
	outdeg, indeg          []int32      // |E(u, T)| and |E(S, v)|
	outRowVolS             int64        // Σ out-row length over liveS
	inRowVolT              int64        // Σ in-row length over liveT

	col      *par.Collector
	batch    []int32
	sweep    par.Sweeper
	volSlots []int64
	degSlots []int64
}

func newDirectedState(g *graph.Directed, pool *par.Pool) *directedState {
	n := g.NumNodes()
	st := &directedState{
		pool: pool, g: g,
		aliveS:     graph.NewBitset(n),
		aliveT:     graph.NewBitset(n),
		removedAtS: make([]int32, n),
		removedAtT: make([]int32, n),
		liveS:      make([]int32, n),
		liveT:      make([]int32, n),
		outdeg:     make([]int32, n),
		indeg:      make([]int32, n),
		outRowVolS: g.NumEdges(),
		inRowVolT:  g.NumEdges(),
		col:        par.NewCollector(n),
		volSlots:   make([]int64, par.NumChunks(n)),
		degSlots:   make([]int64, par.NumChunks(n)),
	}
	st.aliveS.Fill(n)
	st.aliveT.Fill(n)
	pool.ForChunks(n, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			st.liveS[u] = int32(u)
			st.liveT[u] = int32(u)
			st.outdeg[u] = int32(g.OutDegree(int32(u)))
			st.indeg[u] = int32(g.InDegree(int32(u)))
		}
	})
	return st
}

// scanSideRemove is the fused per-pass sweep for one side: one batched
// walk collects the below-cut vertices (ascending, chunk-merged),
// records their removal pass, filters them out of the side's frontier
// in place, and accumulates the batch's cross row volume (the push
// cost) and live-degree sum (exactly the E(S, T) edges the pass
// removes, since a cross degree counts only opposite-side-alive
// targets). Side bit stamps apply after the sweep, on the driver
// goroutine — bitset words are shared between neighboring ids.
func (st *directedState) scanSideRemove(o Opts, pass int, live, deg []int32, rowLen func(int32) int, alive graph.Bitset, removedAt []int32, cut float64) ([]int32, int64, int64, error) {
	st.col.Reset()
	p32 := int32(pass)
	icut := cutToInt(cut)
	chunks := par.NumChunks(len(live))
	nl, err := st.sweep.Sweep(o.Ctx, st.pool, live, func(c int, block []int32) int {
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
			vol += int64(rowLen(u))
			ds += int64(deg[u])
		}
		st.volSlots[c] = vol
		st.degSlots[c] = ds
		return w
	})
	if err != nil {
		return live, 0, 0, err
	}
	st.batch = st.col.Merge(st.batch[:0])
	for _, u := range st.batch {
		alive.Clear(u)
	}
	var pushVol, degSum int64
	for c := 0; c < chunks; c++ {
		pushVol += st.volSlots[c]
		degSum += st.degSlots[c]
	}
	return nl, pushVol, degSum, nil
}

// scanRemoveS runs the fused sweep over the S side.
func (st *directedState) scanRemoveS(o Opts, pass int, cut float64) (pushVol, degSum int64, err error) {
	live, pushVol, degSum, err := st.scanSideRemove(o, pass, st.liveS, st.outdeg, st.g.OutDegree, st.aliveS, st.removedAtS, cut)
	if err != nil {
		return 0, 0, err
	}
	st.liveS = live
	st.outRowVolS -= pushVol
	return pushVol, degSum, nil
}

// scanRemoveT runs the fused sweep over the T side.
func (st *directedState) scanRemoveT(o Opts, pass int, cut float64) (pushVol, degSum int64, err error) {
	live, pushVol, degSum, err := st.scanSideRemove(o, pass, st.liveT, st.indeg, st.g.InDegree, st.aliveT, st.removedAtT, cut)
	if err != nil {
		return 0, 0, err
	}
	st.liveT = live
	st.inRowVolT -= pushVol
	return pushVol, degSum, nil
}

// peelS applies the already-scanned S batch to the T side's degrees
// and returns the new E(S, T) count. The direction is chosen by row
// volume alone: push scatters along the batch's out-rows unless they
// hold more entries than the live T side's in-rows, in which case pull
// recounts every live T vertex's surviving in-degree with the
// branch-free S-alive bit gather. The push count needs no loop at all:
// the batch's live-degree sum IS the removed edge count.
func (st *directedState) peelS(o Opts, pass int, edges, pushVol, degSum int64) int64 {
	g := st.g
	if pushVol > st.inRowVolT {
		if o.hooks.mode != nil {
			o.hooks.mode(pass, true)
		}
		aliveS, indeg, liveT := st.aliveS, st.indeg, st.liveT
		return st.pool.SumInt64(len(liveT), func(_, lo, hi int) int64 {
			var s int64
			for _, v := range liveT[lo:hi] {
				cnt := int32(0)
				for _, u := range g.InNeighbors(v) {
					cnt += aliveS.Bit(u)
				}
				indeg[v] = cnt
				s += int64(cnt)
			}
			return s
		})
	}
	if o.hooks.mode != nil {
		o.hooks.mode(pass, false)
	}
	st.pushSide(st.batch, st.indeg, g.OutNeighbors)
	return edges - degSum
}

// peelT is the mirror image of peelS.
func (st *directedState) peelT(o Opts, pass int, edges, pushVol, degSum int64) int64 {
	g := st.g
	if pushVol > st.outRowVolS {
		if o.hooks.mode != nil {
			o.hooks.mode(pass, true)
		}
		aliveT, outdeg, liveS := st.aliveT, st.outdeg, st.liveS
		return st.pool.SumInt64(len(liveS), func(_, lo, hi int) int64 {
			var s int64
			for _, u := range liveS[lo:hi] {
				cnt := int32(0)
				for _, v := range g.OutNeighbors(u) {
					cnt += aliveT.Bit(v)
				}
				outdeg[u] = cnt
				s += int64(cnt)
			}
			return s
		})
	}
	if o.hooks.mode != nil {
		o.hooks.mode(pass, false)
	}
	st.pushSide(st.batch, st.outdeg, g.InNeighbors)
	return edges - degSum
}

// pushSide scatters the removed batch's cross rows into the opposite
// side's degree array, in one sequential loop at every worker count.
// The decrements are blind — dead targets' slots are stale by
// construction and never read — so the loop carries no membership
// gather.
func (st *directedState) pushSide(batch []int32, degOther []int32, rows func(int32) []int32) {
	for _, u := range batch {
		for _, v := range rows(u) {
			degOther[v]--
		}
	}
}
