package stream

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"densestream/internal/core"
	"densestream/internal/edgeio"
	"densestream/internal/graph"
	"densestream/internal/par"
)

// maxStripedWords bounds the striped counter's memory (64-bit words,
// 1 GiB): scan lanes are capped so the streaming algorithms' O(n) state
// promise does not silently scale with the core count on huge graphs —
// past the cap, scan parallelism degrades instead of memory growing.
const maxStripedWords = 1 << 27

// maxScanLanes caps the per-pass scan fan-out; edge scans are memory
// bandwidth bound well before this, and each lane costs n words.
const maxScanLanes = 8

// streamScanLanes returns the exact scan's lane count for n nodes and
// the requested workers: at least 1, at most maxScanLanes, and within
// the memory budget. It depends only on its inputs, so lane-grouped
// merges stay deterministic.
func streamScanLanes(n, workers int) int {
	lanes := min(workers, maxScanLanes)
	if n > 0 {
		lanes = min(lanes, maxStripedWords/n)
	}
	return max(lanes, 1)
}

// maxResidualWords caps the memory of a held residual (64-bit words,
// 128 MiB), so a huge input's scan holds at most that much of its edges
// rather than a whole counter lane of them.
const maxResidualWords = 1 << 24

// heldChunk is the arena chunk, in edges, that a shard claims at a time
// while it captures its live edges; a held pass polls the context once
// per chunk.
const heldChunk = 4096

// residualBudget returns how many live edges a scan over n nodes may
// hold in memory: one exact counter lane's worth, 8 bytes per node, so
// n edges, or ⌊n/2⌋ weighted edges, which carry an 8-byte weight as
// well, capped at maxResidualWords. A sketched scan holds none: its
// point is counter memory sublinear in n. The budget never depends on
// the worker or lane count, so the pass whose residual is held, and
// with it every byte read from the input, is the same at every worker
// count.
func residualBudget(n int, weighted, sketched bool) int {
	if sketched {
		return 0
	}
	words := min(n, maxResidualWords)
	if weighted {
		return words / 2
	}
	return words
}

// weightedScanLanes returns the weighted scan's lane count for n
// nodes. Unlike the exact count it ignores the worker count: float
// folds are only reproducible if the decomposition never moves, so the
// lane count is a function of the input shape alone and workers merely
// decide how many lanes run concurrently.
func weightedScanLanes(n int) int { return streamScanLanes(n, maxScanLanes) }

// StripedDegreeCounter is a lane-striped approximate degree counter,
// satisfied by sketch.Striped. The counter must be linear: after Fold,
// lane 0 holds exactly the state a single counter would hold after the
// same multiset of AddLane calls, so estimates are independent of the
// lane count and the shard decomposition.
type StripedDegreeCounter interface {
	// Lanes returns the lane count, which fixes the scan fan-out.
	Lanes() int
	// Reset clears every lane for a new pass.
	Reset()
	// AddLane counts one edge incident on node u in the given lane.
	AddLane(lane int, u int32)
	// Fold merges all lanes into lane 0 after a scan.
	Fold()
	// Estimate returns the folded estimate for node u; call after Fold.
	Estimate(u int32) int64
}

// SketchScanLanes returns the lane count the sketched scan uses for
// the given worker request (0 means all cores): the clamped worker
// count, capped like the exact scans. Build the StripedDegreeCounter
// with exactly this many lanes.
func SketchScanLanes(workers int) int { return min(par.Clamp(workers), maxScanLanes) }

// Undirected runs Algorithm 1 against an edge stream with O(n) node
// state: each pass scans the stream once to count the degrees and
// edges of the live subgraph, then drops the nodes at or below the
// 2(1+ε)ρ(S) threshold (see core.ScanPeel for the trace and
// interruption contract). The scan splits across o.Workers through the
// stream's shards when it implements Sharded — slice and file streams
// do — and the result is the same for every worker count and identical
// to core.Undirected on the same graph. Self loops are skipped.
func Undirected(es EdgeStream, eps float64, o core.Opts) (*core.Result, error) {
	return peel(es, nil, core.ScanSpec{Eps: eps, Rule: core.CutRule}, o)
}

// UndirectedSketched is Undirected with the §5.1 sketched degree
// counter in place of the exact one: one counter lane per scan shard,
// folded after each scan. Because the sketch is linear, the result is
// the same for every worker count and shard decomposition.
func UndirectedSketched(es EdgeStream, eps float64, counter StripedDegreeCounter, o core.Opts) (*core.Result, error) {
	if counter == nil {
		return nil, fmt.Errorf("stream: nil degree counter")
	}
	return peel(es, counter, core.ScanSpec{Eps: eps, Rule: core.CutRule}, o)
}

// AtLeastK runs Algorithm 2 against an edge stream: per pass only the
// ⌊ε/(1+ε)·|S|⌋ lowest-degree nodes at or below the threshold go, so
// one intermediate subgraph lands near the requested size k. Sharding
// is as in Undirected, and the result matches core.AtLeastK exactly.
func AtLeastK(es EdgeStream, k int, eps float64, o core.Opts) (*core.Result, error) {
	return peel(es, nil, core.ScanSpec{Eps: eps, Rule: core.QuotaRule, K: k}, o)
}

// Directed runs Algorithm 3 for the ratio c against a directed edge
// stream (U → V) with O(n) state: two live sets, and per pass the
// degrees of the side being peeled. Sharding is as in Undirected, and
// the result matches core.Directed exactly.
func Directed(es EdgeStream, c, eps float64, o core.Opts) (*core.DirectedResult, error) {
	pool := par.Acquire(o.Workers)
	defer pool.Release()
	n := es.NumNodes()
	s := takeScanner(es, nil, streamScanLanes(n, pool.Workers()), o.Ctx, pool)
	defer s.release()
	return core.ScanPeelDirected(core.ScanSpec{Nodes: n, Eps: eps, C: c, Initial: core.PassStat{Nodes: 2 * n}}, s, o)
}

// DirectedSweep runs Directed for every c = δ^j covering [1/n, n] and
// keeps the densest pair, matching core.DirectedSweep point for
// point. A sweep costs the sum of the per-c pass counts in scans.
func DirectedSweep(es EdgeStream, delta, eps float64, o core.Opts) (*core.SweepResult, error) {
	return core.Sweep(es.NumNodes(), delta, func(c float64) (*core.DirectedResult, error) {
		return Directed(es, c, eps, o)
	})
}

// UndirectedWeighted runs the weighted Algorithm 1 against a weighted
// edge stream with one float64 weighted degree per node. Streams that
// implement Sharded scan a fixed float-lane decomposition (see
// stripedCounter), so the result is the same for every worker count;
// it matches core.UndirectedWeighted up to float summation order. Self
// loops are skipped, and any other edge's weight must be finite and
// > 0 (graph.ErrBadWeight).
func UndirectedWeighted(es WeightedEdgeStream, eps float64, o core.Opts) (*core.Result, error) {
	pool := par.Acquire(o.Workers)
	defer pool.Release()
	n := es.NumNodes()
	s := takeScanner(es, nil, weightedScanLanes(n), o.Ctx, pool)
	defer s.release()
	return core.ScanPeel(core.ScanSpec{Nodes: n, Eps: eps, Rule: core.WeightedRule, Initial: core.PassStat{Nodes: n}}, s, o)
}

// peel runs an undirected unweighted objective over es; sketch, when
// non-nil, replaces the exact counter.
func peel(es EdgeStream, sketch StripedDegreeCounter, spec core.ScanSpec, o core.Opts) (*core.Result, error) {
	pool := par.Acquire(o.Workers)
	defer pool.Release()
	n := es.NumNodes()
	lanes := streamScanLanes(n, pool.Workers())
	if sketch != nil {
		lanes = sketch.Lanes()
	}
	spec.Nodes, spec.Initial = n, core.PassStat{Nodes: n}
	s := takeScanner(es, sketch, lanes, o.Ctx, pool)
	defer s.release()
	return core.ScanPeel(spec, s, o)
}

// scanner is the degree oracle every streaming objective hands to the
// core scan-peel policy. One pass scans the stream's shards
// concurrently, each into its own counter lane, and merges per-shard
// edge counts and weights in shard order; a context error wins over
// shard errors. A stream that cannot shard runs as a single shard.
//
// Shards are read a block at a time (see edgeio.BlockReader). A
// numbered block (BSG1) seen without a live edge is dead: live sets
// only shrink within a run (see core.ScanOracle), so it can hold no
// live edge later, and the scanner never reads it again in that run.
// Deadness is kept per block number, so it does not depend on the
// shard cut, and a skipped block skips only additions that would never
// happen.
//
// The same shrinking lets a run hold its live residual in memory. Until
// one pass's live edges fit residualBudget, each shard of a pass that
// reads the input also copies its live edges, in stream order, into
// arena chunks it claims from one shared cursor. Once a pass fits, the
// rest of the run reads no input: each shard walks its own chunks
// through the same per-edge scan into its own lane, compacting the
// edges still live to the front. A lane thus adds the same edges in the
// same order as a pass over the input would, so weighted sums come out
// bit-identical, and whether a pass fits depends on its live-edge count
// alone, not on the shard cut. Every held edge passed the range,
// self-loop and weight checks in the pass that captured it.
//
// The scanner's state (counter, dead flags, slots and arena) is pooled
// across runs, so a warm run allocates nothing beyond what the stream's
// BlockShards call does (SliceStream and the file streams memoize their
// shard sets, and shards keep their decode buffers across passes).
type scanner struct {
	pool     *par.Pool
	ctx      context.Context
	n        int
	lanes    int
	weighted bool // a WeightedEdgeStream: scanWeighted sums weights

	shards  func(k int) []edgeio.BlockReader
	counter stripedCounter
	sketch  StripedDegreeCounter // non-nil: estimates replace counter

	// The current pass: its shards, its live sets, whether an edge adds
	// to its source's and its target's degree, and per-shard results.
	views          []edgeio.BlockReader
	dead           []bool // per block number: seen without a live edge
	aliveU, aliveV []bool
	addU, addV     bool
	slots          []shardSlot
	task           func(i int)

	// The residual: held once a pass's live edges fit budget, from then
	// on the run's only edges. arenaW carries the weights on a weighted
	// stream. A capturing pass claims chunks through next and counts its
	// live edges in total, so every shard stops capturing once the pass
	// cannot fit.
	budget int
	held   bool
	arena  []Edge
	arenaW []float64
	next   atomic.Int64
	total  atomic.Int64
}

// rescannable is what the scanner needs of every stream it reads, an
// EdgeStream or a WeightedEdgeStream, besides its shards.
type rescannable interface {
	NumNodes() int
	Reset() error
}

// shardSlot is one shard's scan result and its share of the residual:
// the arena chunks that hold its edges, in stream order, and how many
// edges they hold.
type shardSlot struct {
	edges  int64
	weight float64
	err    error
	chunks []int32
	held   int
}

// scannerPool recycles scanner state across runs. Being a sync.Pool,
// it lets the GC drop idle state: a long-lived process does not keep
// its largest input's counter and arena forever.
var scannerPool sync.Pool

// takeScanner takes a scanner from scannerPool (or a fresh one) and
// readies it for es, an EdgeStream or a WeightedEdgeStream, over the
// given number of lanes. A stream that does not implement Sharded is
// read as one nextBlocks shard. Pair it with release.
func takeScanner(es rescannable, sketch StripedDegreeCounter, lanes int, ctx context.Context, pool *par.Pool) *scanner {
	s, _ := scannerPool.Get().(*scanner)
	if s == nil {
		s = &scanner{}
		s.task = func(i int) { s.scan(i) }
	}
	s.pool, s.ctx, s.n, s.lanes, s.sketch = pool, ctx, es.NumNodes(), lanes, sketch
	if ss, ok := es.(Sharded); ok {
		s.shards = ss.BlockShards
	} else {
		one := []edgeio.BlockReader{newNextBlocks(es)}
		s.shards = func(int) []edgeio.BlockReader { return one }
		s.lanes = 1
	}
	_, s.weighted = es.(WeightedEdgeStream)
	return s
}

// release hands the scanner back to scannerPool, dropping every
// reference to the run's stream, worker pool, live sets and context.
// Nothing may touch s afterwards.
func (s *scanner) release() {
	s.pool, s.ctx, s.sketch, s.shards, s.views = nil, nil, nil, nil, nil
	s.aliveU, s.aliveV = nil, nil
	scannerPool.Put(s)
}

// Start implements core.ScanOracle; the counter is sized only once the
// policy has validated the run, and a new run starts with no dead
// block and no residual.
func (s *scanner) Start() (*core.ScanSnapshot, error) {
	if s.sketch == nil {
		s.counter.init(s.n, s.lanes)
	}
	clear(s.dead)
	s.held = false
	s.budget = residualBudget(s.n, s.weighted, s.sketch != nil)
	return nil, nil
}

// Measure implements core.ScanOracle with one sharded scan, of the
// input or, once the residual is held, of the residual.
func (s *scanner) Measure(pass int, aliveU, aliveV []bool, side byte) (int64, float64, error) {
	s.aliveU, s.aliveV = aliveU, aliveV
	s.addU, s.addV = side != 'T', side != 'S'
	if !s.held {
		k := s.viewShards()
		s.slots = resize(s.slots, k)
		s.sizeArena(k)
		s.next.Store(0)
		s.total.Store(0)
	}
	k := len(s.slots)
	if s.sketch != nil {
		s.sketch.Reset()
	}
	s.pool.ForEach(k, s.task)
	if err := s.canceled(); err != nil {
		return 0, 0, err
	}
	var edges int64
	var weight float64
	for _, sl := range s.slots {
		if sl.err != nil {
			return 0, 0, fmt.Errorf("stream: pass %d: %w", pass, sl.err)
		}
		edges += sl.edges
		weight += sl.weight
	}
	if s.sketch != nil {
		s.sketch.Fold()
	} else {
		s.counter.fold(s.pool, k)
	}
	if !s.weighted {
		weight = float64(edges)
	}
	if s.budget > 0 && edges <= int64(s.budget) {
		s.held = true
	}
	return edges, weight, nil
}

// viewShards fetches the pass's shards into s.views, sizes the dead
// flags for their numbered blocks, and returns the shard count.
func (s *scanner) viewShards() int {
	s.views = s.shards(s.lanes)
	blocks := 0
	for _, sh := range s.views {
		if _, hi := sh.Blocks(); hi != edgeio.Unnumbered {
			blocks = max(blocks, hi)
		}
	}
	if len(s.dead) < blocks {
		s.dead = make([]bool, blocks)
	}
	return len(s.views)
}

// sizeArena sizes the arena for a pass over the input cut into k
// shards: the budget plus one chunk per shard, since each shard leaves
// at most its last chunk part empty. So the arena runs out only in a
// pass whose live edges exceed the budget.
func (s *scanner) sizeArena(k int) {
	edges := 0
	if s.budget > 0 {
		edges = ((s.budget+heldChunk-1)/heldChunk + k) * heldChunk
	}
	s.arena = resize(s.arena, edges)
	if s.weighted {
		s.arenaW = resize(s.arenaW, edges)
	}
}

// canceled polls the run's context.
func (s *scanner) canceled() error {
	if s.ctx == nil {
		return nil
	}
	return s.ctx.Err()
}

// nodeRangeErr reports an edge with an end outside 0..n-1.
func nodeRangeErr(e Edge, n int) error {
	return fmt.Errorf("%w: edge (%d,%d) with n=%d", graph.ErrNodeRange, e.U, e.V, n)
}

// Degree implements core.ScanOracle.
func (s *scanner) Degree(u int32) float64 {
	if s.sketch != nil {
		return float64(s.sketch.Estimate(u))
	}
	return s.counter.degree(u)
}

// Commit implements core.ScanOracle: the live sets are the policy's,
// so a stream has nothing to apply.
func (s *scanner) Commit(*core.ScanSnapshot) error { return nil }

// holder writes one shard's live edges of a pass into the arena in
// stream order, heldChunk edges per chunk. A pass over the input claims
// fresh chunks from the shared cursor; a held pass rewrites the shard's
// own chunks in order, which compacts the edges it keeps to the front.
// It is off when the pass cannot fit (or the scan holds nothing).
type holder struct {
	s    *scanner
	sl   *shardSlot
	on   bool
	used int       // chunks written so far
	cur  []Edge    // the chunk being written, filled to its length
	curW []float64 // its weights, on a weighted stream
}

// holder returns the holder of shard slot sl for the current pass; a
// pass over the input starts the shard's residual afresh.
func (s *scanner) holder(sl *shardSlot) holder {
	if !s.held {
		sl.chunks = sl.chunks[:0]
	}
	return holder{s: s, sl: sl, on: s.held || s.budget > 0}
}

// add appends e to the shard's residual.
func (h *holder) add(e Edge) {
	if h.on && (len(h.cur) < cap(h.cur) || h.grow()) {
		h.cur = append(h.cur, e)
	}
}

// addWeighted appends e and its weight w to the shard's residual.
func (h *holder) addWeighted(e Edge, w float64) {
	if h.on && (len(h.cur) < cap(h.cur) || h.grow()) {
		h.cur = append(h.cur, e)
		h.curW = append(h.curW, w)
	}
}

// grow moves the holder to its next chunk: the shard's own next chunk
// if it has one, else a fresh chunk from the cursor. A spent arena
// turns the holder off, and only a pass with more live edges than the
// budget can spend it.
func (h *holder) grow() bool {
	s, sl := h.s, h.sl
	var c int
	if h.used < len(sl.chunks) {
		c = int(sl.chunks[h.used])
	} else if c = int(s.next.Add(1)) - 1; c < len(s.arena)/heldChunk {
		sl.chunks = append(sl.chunks, int32(c))
	} else {
		h.on = false
		return false
	}
	h.used++
	lo := c * heldChunk
	h.cur = s.arena[lo:lo:(lo + heldChunk)]
	if s.weighted {
		h.curW = s.arenaW[lo:lo:(lo + heldChunk)]
	}
	return true
}

// finish records what the holder wrote as the shard's residual.
func (h *holder) finish() {
	if !h.on {
		return
	}
	h.sl.chunks = h.sl.chunks[:h.used]
	h.sl.held = 0
	if h.used > 0 {
		h.sl.held = (h.used-1)*heldChunk + len(h.cur)
	}
}

// eachBlock walks shard i's blocks in order for one pass, skipping the
// dead ones and polling the context before each block it reads, and
// returns the sum of visit's live-edge counts. A numbered block visit
// finds without a live edge is dead for the rest of the run. Every
// shard's capture stops once the pass's live edges pass the budget.
// Once the residual is held, the shard's blocks are its arena chunks.
func (s *scanner) eachBlock(i int, h *holder, visit func(blk []Edge, weights []float64) (int64, error)) (int64, error) {
	if s.held {
		return s.eachHeld(i, visit)
	}
	sh := s.views[i]
	if err := sh.Reset(); err != nil {
		return 0, err
	}
	lo, hi := sh.Blocks()
	var dead []bool
	if hi != edgeio.Unnumbered {
		dead = s.dead[lo:hi]
	}
	var edges int64
	for b := lo; b < hi; b++ {
		if dead != nil && dead[b-lo] {
			continue
		}
		if err := s.canceled(); err != nil {
			return 0, err
		}
		blk, weights, err := sh.Block(b)
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		live, err := visit(blk, weights)
		if err != nil {
			return 0, err
		}
		if live == 0 && dead != nil {
			dead[b-lo] = true
		}
		if h.on && s.total.Add(live) > int64(s.budget) {
			h.on = false
		}
		edges += live
	}
	return edges, nil
}

// eachHeld walks shard i's held chunks in order, polling the context
// before each, and returns the sum of visit's live-edge counts.
func (s *scanner) eachHeld(i int, visit func(blk []Edge, weights []float64) (int64, error)) (int64, error) {
	sl := &s.slots[i]
	var edges int64
	for j, c := range sl.chunks {
		if err := s.canceled(); err != nil {
			return 0, err
		}
		lo := int(c) * heldChunk
		hi := lo + min(heldChunk, sl.held-j*heldChunk)
		var weights []float64
		if s.weighted {
			weights = s.arenaW[lo:hi]
		}
		live, err := visit(s.arena[lo:hi], weights)
		if err != nil {
			return 0, err
		}
		edges += live
	}
	return edges, nil
}

// scan scans shard i into lane i and records the result in its slot.
func (s *scanner) scan(i int) {
	sl := &s.slots[i]
	h := s.holder(sl)
	if s.weighted {
		sl.edges, sl.weight, sl.err = s.scanWeighted(i, &h)
	} else {
		sl.edges, sl.err = s.scanEdges(i, &h)
		sl.weight = 0
	}
	h.finish()
}

// scanEdges scans unweighted shard i into lane i. The live and
// self-loop tests, the count and the capture run inline: this loop is
// the whole cost of a pass over decoded edges.
func (s *scanner) scanEdges(i int, h *holder) (int64, error) {
	var lane []float64
	var dirty []bool
	if s.sketch == nil {
		s.counter.reset(i)
		lane, dirty = s.counter.lane(i)
	}
	aliveU, aliveV, addU, addV, n := s.aliveU, s.aliveV, s.addU, s.addV, uint(s.n)
	return s.eachBlock(i, h, func(blk []Edge, _ []float64) (int64, error) {
		var live int64
		for _, e := range blk {
			if uint(e.U) >= n || uint(e.V) >= n {
				return 0, nodeRangeErr(e, s.n)
			}
			if !aliveU[e.U] || !aliveV[e.V] || e.U == e.V {
				continue
			}
			live++
			h.add(e)
			if lane == nil {
				s.sketch.AddLane(i, e.U)
				s.sketch.AddLane(i, e.V)
				continue
			}
			if addU {
				lane[e.U]++
				dirty[uint32(e.U)/par.ChunkSize] = true
			}
			if addV {
				lane[e.V]++
				dirty[uint32(e.V)/par.ChunkSize] = true
			}
		}
		return live, nil
	})
}

// scanWeighted scans weighted shard i into lane i, summing the live
// weight in stream order across its blocks. A block without a weight
// column weighs 1 per edge. Every weight read, live or not, must be
// finite and > 0, except a self loop's: self loops are skipped
// unchecked, as the graph loader skips them.
func (s *scanner) scanWeighted(i int, h *holder) (int64, float64, error) {
	s.counter.reset(i)
	lane, dirty := s.counter.lane(i)
	alive, n := s.aliveU, uint(s.n)
	var weight float64
	edges, err := s.eachBlock(i, h, func(blk []Edge, ws []float64) (int64, error) {
		var live int64
		sum := weight
		for j, e := range blk {
			if uint(e.U) >= n || uint(e.V) >= n {
				return 0, nodeRangeErr(e, s.n)
			}
			if e.U == e.V {
				continue
			}
			w := 1.0
			if ws != nil {
				if w = ws[j]; !(w > 0) || math.IsInf(w, 1) {
					return 0, fmt.Errorf("%w: edge (%d,%d) has weight %v", graph.ErrBadWeight, e.U, e.V, w)
				}
			}
			if !alive[e.U] || !alive[e.V] {
				continue
			}
			live++
			h.addWeighted(e, w)
			sum += w
			lane[e.U] += w
			lane[e.V] += w
			dirty[uint32(e.U)/par.ChunkSize] = true
			dirty[uint32(e.V)/par.ChunkSize] = true
		}
		weight = sum
		return live, nil
	})
	return edges, weight, err
}
