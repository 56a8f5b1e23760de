package stream

import (
	"context"
	"fmt"
	"io"
	"math"

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
	s := newScanner(es, nil, streamScanLanes(n, pool.Workers()), o.Ctx, pool)
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
	s := newScanner(es, nil, weightedScanLanes(n), o.Ctx, pool)
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
	return core.ScanPeel(spec, newScanner(es, sketch, lanes, o.Ctx, pool), o)
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
// All scan state is built in the first pass, so a later pass allocates
// nothing beyond what the stream's BlockShards call does (SliceStream
// and the file streams memoize their shard sets, and shards keep their
// decode buffers across passes).
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
}

// rescannable is what the scanner needs of every stream it reads, an
// EdgeStream or a WeightedEdgeStream, besides its shards.
type rescannable interface {
	NumNodes() int
	Reset() error
}

// shardSlot is one shard's scan result.
type shardSlot struct {
	edges  int64
	weight float64
	err    error
}

// newScanner returns the scanner of es, an EdgeStream or a
// WeightedEdgeStream, over the given number of lanes. A stream that
// does not implement Sharded is read as one nextBlocks shard.
func newScanner(es rescannable, sketch StripedDegreeCounter, lanes int, ctx context.Context, pool *par.Pool) *scanner {
	s := &scanner{pool: pool, ctx: ctx, n: es.NumNodes(), lanes: lanes, sketch: sketch}
	if ss, ok := es.(Sharded); ok {
		s.shards = ss.BlockShards
	} else {
		one := []edgeio.BlockReader{newNextBlocks(es)}
		s.shards = func(int) []edgeio.BlockReader { return one }
		s.lanes = 1
	}
	s.task = func(i int) { s.slots[i] = s.scanEdges(i) }
	if _, s.weighted = es.(WeightedEdgeStream); s.weighted {
		s.task = func(i int) { s.slots[i] = s.scanWeighted(i) }
	}
	return s
}

// Start implements core.ScanOracle; the counter is sized only once the
// policy has validated the run, and a new run starts with no dead
// block.
func (s *scanner) Start() (*core.ScanSnapshot, error) {
	if s.sketch == nil {
		s.counter.init(s.n, s.lanes)
	}
	clear(s.dead)
	return nil, nil
}

// Measure implements core.ScanOracle with one sharded scan.
func (s *scanner) Measure(pass int, aliveU, aliveV []bool, side byte) (int64, float64, error) {
	s.aliveU, s.aliveV = aliveU, aliveV
	s.addU, s.addV = side != 'T', side != 'S'
	k := s.viewShards()
	if cap(s.slots) < k {
		s.slots = make([]shardSlot, k)
	}
	s.slots = s.slots[:k]
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

// eachBlock walks shard i's blocks in order for one pass, skipping the
// dead ones and polling the context before each block it reads, and
// returns the sum of visit's live-edge counts. A numbered block visit
// finds without a live edge is dead for the rest of the run.
func (s *scanner) eachBlock(i int, visit func(blk []Edge, weights []float64) (int64, error)) (int64, error) {
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
		edges += live
	}
	return edges, nil
}

// scanEdges scans unweighted shard i into lane i. The live and
// self-loop tests and the count run inline: this loop is the whole
// cost of a pass over decoded edges.
func (s *scanner) scanEdges(i int) shardSlot {
	var lane []float64
	var dirty []bool
	if s.sketch == nil {
		s.counter.reset(i)
		lane, dirty = s.counter.lane(i)
	}
	aliveU, aliveV, addU, addV, n := s.aliveU, s.aliveV, s.addU, s.addV, uint(s.n)
	edges, err := s.eachBlock(i, func(blk []Edge, _ []float64) (int64, error) {
		var live int64
		for _, e := range blk {
			if uint(e.U) >= n || uint(e.V) >= n {
				return 0, nodeRangeErr(e, s.n)
			}
			if !aliveU[e.U] || !aliveV[e.V] || e.U == e.V {
				continue
			}
			live++
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
	return shardSlot{edges: edges, err: err}
}

// scanWeighted scans weighted shard i into lane i, summing the live
// weight in stream order across its blocks. A block without a weight
// column weighs 1 per edge. Every weight read, live or not, must be
// finite and > 0, except a self loop's: self loops are skipped
// unchecked, as the graph loader skips them.
func (s *scanner) scanWeighted(i int) shardSlot {
	s.counter.reset(i)
	lane, dirty := s.counter.lane(i)
	alive, n := s.aliveU, uint(s.n)
	var weight float64
	edges, err := s.eachBlock(i, func(blk []Edge, ws []float64) (int64, error) {
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
			sum += w
			lane[e.U] += w
			lane[e.V] += w
			dirty[uint32(e.U)/par.ChunkSize] = true
			dirty[uint32(e.V)/par.ChunkSize] = true
		}
		weight = sum
		return live, nil
	})
	return shardSlot{edges: edges, weight: weight, err: err}
}
