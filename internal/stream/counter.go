package stream

import "densestream/internal/par"

// stripedCounter is the degree counter of the sharded scan: one
// full-length lane per scan shard, so each shard adds into its own
// lane with no locks or atomics, and a fold after the scan merges the
// lanes into lane 0. Lanes hold float64, so the one type serves exact
// counts and weighted degrees alike: counts below 2^53 are exact in a
// float64, so integer degrees fold to the same value in any order.
// Weighted sums are order sensitive, so there determinism comes from
// fixing the whole decomposition: the weighted lane count depends on
// the input shape only, each lane accumulates exactly one shard's edges
// in stream order, and the fold adds lanes into lane 0 in ascending
// lane order per node. Skipping an untouched block skips only
// exact-zero additions (weights are positive, so no lane ever holds
// -0.0), which cannot move any sum.
//
// Each lane tracks the par.ChunkSize blocks it touched since its last
// reset, so resets and folds cost O(touched) rather than O(lanes·n): in
// the late passes of a peel, when only a small core is still live, the
// per-pass counter upkeep shrinks with it.
type stripedCounter struct {
	n, blocks int
	counts    []float64 // lane l is counts[l*n : (l+1)*n]
	dirty     []bool    // lane l's touched blocks: dirty[l*blocks : (l+1)*blocks]
	used      int       // lanes filled by the current pass
	foldChunk func(b, lo, hi int)
}

// init sizes the counter for n nodes and the given number of lanes (at
// least 1), reusing the capacity of an earlier run's counter; the fold
// body is built once, so a pass allocates nothing.
func (c *stripedCounter) init(n, lanes int) {
	lanes = max(lanes, 1)
	c.n, c.blocks = n, par.NumChunks(n)
	c.counts = resize(c.counts, lanes*n)
	c.dirty = resize(c.dirty, lanes*c.blocks)
	clear(c.counts)
	clear(c.dirty)
	if lanes == 1 || c.foldChunk != nil {
		return
	}
	c.foldChunk = func(b, lo, hi int) {
		base := c.counts[:c.n]
		for l := 1; l < c.used; l++ {
			if !c.dirty[l*c.blocks+b] {
				continue
			}
			c.dirty[b] = true
			lane := c.counts[l*c.n : (l+1)*c.n]
			for u := lo; u < hi; u++ {
				base[u] += lane[u]
			}
		}
	}
}

// lane returns lane l and its touched-block flags.
func (c *stripedCounter) lane(l int) ([]float64, []bool) {
	return c.counts[l*c.n : (l+1)*c.n : (l+1)*c.n], c.dirty[l*c.blocks : (l+1)*c.blocks : (l+1)*c.blocks]
}

// reset clears the blocks lane l touched; only the lane's owner may
// call it.
func (c *stripedCounter) reset(l int) {
	lane, dirty := c.lane(l)
	for b, touched := range dirty {
		if touched {
			lo, hi := par.ChunkBounds(b, c.n)
			clear(lane[lo:hi])
			dirty[b] = false
		}
	}
}

// fold merges lanes 1..used-1 into lane 0, block-parallel over the
// node range and skipping blocks no lane touched.
func (c *stripedCounter) fold(pool *par.Pool, used int) {
	if used > 1 {
		c.used = used
		pool.ForChunks(c.n, c.foldChunk)
	}
}

// degree returns node u's folded count.
func (c *stripedCounter) degree(u int32) float64 { return c.counts[u] }

// resize returns buf with length n, reusing its storage when the
// capacity suffices. Reused contents are stale; callers overwrite or
// clear them.
func resize[S ~[]E, E any](buf S, n int) S {
	if cap(buf) < n {
		return make(S, n)
	}
	return buf[:n]
}
