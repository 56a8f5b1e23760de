package stream

import (
	"context"
	"fmt"
	"io"

	"densestream/internal/core"
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

// scanCheckMask throttles the context poll inside edge scans: one
// Ctx.Err() load every scanCheckMask+1 edges of a shard, so even a pass
// over a giant on-disk stream notices cancellation promptly.
const scanCheckMask = 1<<16 - 1

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
// stream's shards when it implements ShardedStream — slice and file
// streams do — and the result is the same for every worker count and
// identical to core.Undirected on the same graph.
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
// keeps the densest pair, matching core.DirectedSweepOpts point for
// point. A sweep costs the sum of the per-c pass counts in scans.
func DirectedSweep(es EdgeStream, delta, eps float64, o core.Opts) (*core.SweepResult, error) {
	return core.Sweep(es.NumNodes(), delta, func(c float64) (*core.DirectedResult, error) {
		return Directed(es, c, eps, o)
	})
}

// UndirectedWeighted runs the weighted Algorithm 1 against a weighted
// edge stream with one float64 weighted degree per node. Streams that
// implement ShardedWeightedStream scan a fixed float-lane
// decomposition (see stripedCounter), so the result is the same for
// every worker count; it matches core.UndirectedWeighted up to float
// summation order.
func UndirectedWeighted(es WeightedEdgeStream, eps float64, o core.Opts) (*core.Result, error) {
	pool := par.Acquire(o.Workers)
	defer pool.Release()
	n := es.NumNodes()
	s := &scanner{pool: pool, ctx: o.Ctx, n: n, lanes: weightedScanLanes(n)}
	if ws, ok := es.(ShardedWeightedStream); ok {
		s.wshards = ws.WeightedShards
	} else {
		one := []WeightedEdgeStream{es}
		s.wshards = func(int) []WeightedEdgeStream { return one }
		s.lanes = 1
	}
	s.task = func(i int) { s.slots[i] = s.scanWeighted(i) }
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
// shard errors. A stream that cannot shard runs as a single shard. All
// scan state is built before the first pass, so a pass allocates
// nothing beyond what the stream's Shards call does (SliceStream and
// the file streams memoize their shard sets, and readers keep their
// decode buffers across passes).
type scanner struct {
	pool  *par.Pool
	ctx   context.Context
	n     int
	lanes int

	// Exactly one of shards and wshards is set.
	shards  func(k int) []EdgeStream
	wshards func(k int) []WeightedEdgeStream
	counter stripedCounter
	sketch  StripedDegreeCounter // non-nil: estimates replace counter

	// The current pass: its shards and live sets, whether an edge adds
	// to its source's and its target's degree, and per-shard results.
	cur            []EdgeStream
	wcur           []WeightedEdgeStream
	aliveU, aliveV []bool
	addU, addV     bool
	slots          []shardSlot
	task           func(i int)
}

// edgeReader is what a shard scan calls: an EdgeStream, or the edgeio
// reader behind one.
type edgeReader interface {
	Reset() error
	Next() (Edge, error)
}

// shardSlot is one shard's scan result.
type shardSlot struct {
	edges  int64
	weight float64
	err    error
}

// newScanner returns the scanner of an unweighted stream over the
// given number of lanes.
func newScanner(es EdgeStream, sketch StripedDegreeCounter, lanes int, ctx context.Context, pool *par.Pool) *scanner {
	s := &scanner{pool: pool, ctx: ctx, n: es.NumNodes(), lanes: lanes, sketch: sketch}
	if ss, ok := es.(ShardedStream); ok {
		s.shards = ss.Shards
	} else {
		one := []EdgeStream{es}
		s.shards = func(int) []EdgeStream { return one }
		s.lanes = 1
	}
	s.task = func(i int) { s.slots[i] = s.scanEdges(i) }
	return s
}

// Start implements core.ScanOracle; the counter is sized only once the
// policy has validated the run.
func (s *scanner) Start() (*core.ScanSnapshot, error) {
	if s.sketch == nil {
		s.counter.init(s.n, s.lanes)
	}
	return nil, nil
}

// Measure implements core.ScanOracle with one sharded scan.
func (s *scanner) Measure(pass int, aliveU, aliveV []bool, side byte) (int64, float64, error) {
	s.aliveU, s.aliveV = aliveU, aliveV
	s.addU, s.addV = side != 'T', side != 'S'
	var k int
	if s.wshards != nil {
		s.wcur = s.wshards(s.lanes)
		k = len(s.wcur)
	} else {
		s.cur = s.shards(s.lanes)
		k = len(s.cur)
	}
	if cap(s.slots) < k {
		s.slots = make([]shardSlot, k)
	}
	s.slots = s.slots[:k]
	if s.sketch != nil {
		s.sketch.Reset()
	}
	s.pool.RunTasks(k, s.task)
	if s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			return 0, 0, err
		}
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
	if s.wshards == nil {
		weight = float64(edges)
	}
	return edges, weight, nil
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

// vet handles the rare cases of a scanned edge: a read error (io.EOF
// included), a due context poll, and out-of-range node ids.
func (s *scanner) vet(err error, u, v int32) error {
	if err != nil {
		return err
	}
	if s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			return err
		}
	}
	if u < 0 || int(u) >= s.n || v < 0 || int(v) >= s.n {
		return fmt.Errorf("%w: edge (%d,%d) with n=%d", graph.ErrNodeRange, u, v, s.n)
	}
	return nil
}

// scanEdges scans unweighted shard i into lane i. The live test and
// the count run inline: this loop is the whole cost of a pass.
func (s *scanner) scanEdges(i int) shardSlot {
	// Slice and file shards wrap an edgeio reader; reading it directly
	// saves one dynamic call per edge.
	var sh edgeReader = s.cur[i]
	if rs, ok := sh.(*readerStream); ok {
		sh = rs.r
	}
	if err := sh.Reset(); err != nil {
		return shardSlot{err: err}
	}
	var lane []float64
	var dirty []bool
	if s.sketch == nil {
		s.counter.reset(i)
		lane, dirty = s.counter.lane(i)
	}
	aliveU, aliveV, addU, addV, n := s.aliveU, s.aliveV, s.addU, s.addV, s.n
	var edges int64
	for scanned := 0; ; scanned++ {
		e, err := sh.Next()
		if err != nil || scanned&scanCheckMask == 0 || e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			if err := s.vet(err, e.U, e.V); err == io.EOF {
				return shardSlot{edges: edges}
			} else if err != nil {
				return shardSlot{err: err}
			}
		}
		if !aliveU[e.U] || !aliveV[e.V] {
			continue
		}
		edges++
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
}

// scanWeighted scans weighted shard i into lane i, summing the live
// weight in stream order.
func (s *scanner) scanWeighted(i int) shardSlot {
	sh := s.wcur[i]
	if err := sh.Reset(); err != nil {
		return shardSlot{err: err}
	}
	s.counter.reset(i)
	lane, dirty := s.counter.lane(i)
	alive, n := s.aliveU, s.n
	var edges int64
	var weight float64
	for scanned := 0; ; scanned++ {
		e, err := sh.Next()
		if err != nil || scanned&scanCheckMask == 0 || e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			if err := s.vet(err, e.U, e.V); err == io.EOF {
				return shardSlot{edges: edges, weight: weight}
			} else if err != nil {
				return shardSlot{err: err}
			}
		}
		if !alive[e.U] || !alive[e.V] {
			continue
		}
		edges++
		weight += e.Weight
		lane[e.U] += e.Weight
		lane[e.V] += e.Weight
		dirty[uint32(e.U)/par.ChunkSize] = true
		dirty[uint32(e.V)/par.ChunkSize] = true
	}
}
