package stream

import (
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"densestream/internal/core"
	"densestream/internal/edgeio"
	"densestream/internal/gen"
	"densestream/internal/par"
)

func TestSliceStreamShardsPartitionEdges(t *testing.T) {
	g, err := gen.ChungLu(500, 2000, 2.2, 9)
	if err != nil {
		t.Fatal(err)
	}
	s := FromUndirected(g)
	for _, k := range []int{1, 3, 8, 1000} {
		shards := s.BlockShards(k)
		if len(shards) > k && k >= 1 {
			t.Fatalf("BlockShards(%d) returned %d shards", k, len(shards))
		}
		var total int64
		for _, sh := range shards {
			if err := sh.Reset(); err != nil {
				t.Fatal(err)
			}
			for {
				edges, _, err := sh.Block(0)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				total += int64(len(edges))
			}
		}
		if total != g.NumEdges() {
			t.Fatalf("BlockShards(%d) yield %d edges, want %d", k, total, g.NumEdges())
		}
	}
}

func TestStripedCounterFoldMatchesExact(t *testing.T) {
	n := 3*par.ChunkSize + 7
	pool := par.New(4)
	var sc stripedCounter
	sc.init(n, 4)
	exact := make([]float64, n)
	for l := 0; l < 4; l++ {
		sc.reset(l)
	}
	for i := 0; i < 4*n; i++ {
		u := i % n
		lane, dirty := sc.lane(i % 4)
		lane[u]++
		dirty[u/par.ChunkSize] = true
		exact[u]++
	}
	sc.fold(pool, 4)
	for u := 0; u < n; u += 97 {
		if sc.degree(int32(u)) != exact[u] {
			t.Fatalf("node %d: striped %v, exact %v", u, sc.degree(int32(u)), exact[u])
		}
	}
	sc.reset(0)
	if sc.degree(5) != 0 {
		t.Fatal("reset did not clear lane 0")
	}
}

func TestStreamScanLanesBoundsMemory(t *testing.T) {
	if got := streamScanLanes(1000, 4); got != 4 {
		t.Fatalf("small graph: lanes = %d, want 4", got)
	}
	if got := streamScanLanes(1000, 64); got != maxScanLanes {
		t.Fatalf("many workers: lanes = %d, want cap %d", got, maxScanLanes)
	}
	// A huge node count must shed lanes instead of multiplying memory:
	// above one lane, lanes*n stays within the word budget (one lane is
	// the floor — that memory is inherent to exact counting, not to
	// striping).
	for _, n := range []int{100_000_000, 50_000_000} {
		lanes := streamScanLanes(n, 32)
		if lanes < 1 || (lanes > 1 && lanes*n > maxStripedWords) {
			t.Fatalf("n=%d: lanes = %d exceeds budget", n, lanes)
		}
		if lanes == 32 {
			t.Fatalf("n=%d: lanes not shed", n)
		}
	}
	if got := streamScanLanes(0, 4); got != 4 {
		t.Fatalf("n=0: lanes = %d", got)
	}
	if got := weightedScanLanes(1000); got != maxScanLanes {
		t.Fatalf("weighted lanes = %d, want %d whatever the workers", got, maxScanLanes)
	}
	// The residual budget is one exact counter lane, 8 bytes per node:
	// n edges, or n/2 weighted edges of 16 bytes, and none for a sketched
	// scan. A scanner's budget is the same at every worker and lane
	// count, so the held pass is too.
	const n = 1000
	for _, weighted := range []bool{false, true} {
		want := n
		var es rescannable = &SliceStream{n: n}
		if weighted {
			want = n / 2
			es = &WeightedSliceStream{SliceStream{n: n}}
		}
		for _, workers := range []int{1, 2, 3, 4, 8, 64} {
			pool := par.Acquire(workers)
			lanes := streamScanLanes(n, pool.Workers())
			if weighted {
				lanes = weightedScanLanes(n)
			}
			s := takeScanner(es, nil, lanes, nil, pool)
			if _, err := s.Start(); err != nil {
				t.Fatal(err)
			}
			if s.budget != want || residualBudget(n, weighted, false) != want {
				t.Fatalf("weighted=%v workers=%d: budget %d (residualBudget %d), want %d",
					weighted, workers, s.budget, residualBudget(n, weighted, false), want)
			}
			s.release()
			pool.Release()
		}
		if got := residualBudget(n, weighted, true); got != 0 {
			t.Fatalf("weighted=%v sketched: budget %d, want 0", weighted, got)
		}
		// A huge node count stays under the cap rather than allocating a
		// lane's worth of residual.
		bytesPerEdge := 8
		if weighted {
			bytesPerEdge = 16
		}
		if got := residualBudget(math.MaxInt32, weighted, false); got <= 0 || got*bytesPerEdge > 8*maxResidualWords {
			t.Fatalf("weighted=%v n=2^31-1: budget %d edges, %d B; the cap is %d B", weighted, got, got*bytesPerEdge, 8*maxResidualWords)
		}
	}
}

// The sharded scan is bit-identical to the sequential one-shard scan
// at every worker count — set, density and trace — and agrees with the
// in-memory engine.
func TestUndirectedParallelMatchesSequential(t *testing.T) {
	for _, seed := range []int64{2, 17} {
		g, err := gen.ChungLu(2500, 12000, 2.1, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0, 0.5, 1} {
			ref, err := core.Undirected(g, eps, core.Opts{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			one, err := Undirected(seqStream{FromUndirected(g)}, eps, core.Opts{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if ref.Density != one.Density || !reflect.DeepEqual(ref.Set, one.Set) {
				t.Fatalf("seed=%d eps=%v: stream diverges from core", seed, eps)
			}
			for _, w := range []int{1, 2, 8} {
				got, err := Undirected(FromUndirected(g), eps, core.Opts{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(one, got) {
					t.Fatalf("seed=%d eps=%v workers=%d: result differs from the sequential scan", seed, eps, w)
				}
			}
		}
	}
}

func TestDirectedParallelMatchesSequential(t *testing.T) {
	g, err := gen.ChungLuDirected(2000, 10000, 2.2, 21)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{0.5, 1, 2} {
		ref, err := core.Directed(g, c, 0.5, core.Opts{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		one, err := Directed(seqStream{FromDirected(g)}, c, 0.5, core.Opts{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if ref.Density != one.Density || ref.Passes != one.Passes ||
			!reflect.DeepEqual(ref.S, one.S) || !reflect.DeepEqual(ref.T, one.T) {
			t.Fatalf("c=%v: stream diverges from core", c)
		}
		for _, w := range []int{1, 2, 8} {
			got, err := Directed(FromDirected(g), c, 0.5, core.Opts{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(one, got) {
				t.Fatalf("c=%v workers=%d: result differs from the sequential scan", c, w)
			}
		}
	}
}

// A mid-scan shard failure must surface, not hang or corrupt state.
func TestUndirectedParallelPropagatesShardErrors(t *testing.T) {
	g, err := gen.ChungLu(300, 1200, 2.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	fs := &faultShardedStream{inner: FromUndirected(g), failAfter: 100}
	if _, err := Undirected(fs, 0.5, core.Opts{Workers: 4}); !errors.Is(err, ErrInjected) {
		t.Fatalf("want the injected shard error, got %v", err)
	}
}

// faultShardedStream shards into block readers whose first shard fails
// after a fixed number of edges.
type faultShardedStream struct {
	inner     *SliceStream
	failAfter int
}

func (f *faultShardedStream) NumNodes() int       { return f.inner.NumNodes() }
func (f *faultShardedStream) Reset() error        { return f.inner.Reset() }
func (f *faultShardedStream) Next() (Edge, error) { return f.inner.Next() }

func (f *faultShardedStream) BlockShards(k int) []edgeio.BlockReader {
	shards := append([]edgeio.BlockReader(nil), f.inner.BlockShards(k)...)
	shards[0] = &faultBlocks{BlockReader: shards[0], failAfter: f.failAfter}
	return shards
}

// faultBlocks serves at most failAfter edges of a shard (counted across
// passes), then fails with ErrInjected.
type faultBlocks struct {
	edgeio.BlockReader
	failAfter, served int
}

func (b *faultBlocks) Block(i int) ([]Edge, []float64, error) {
	if b.served >= b.failAfter {
		return nil, nil, ErrInjected
	}
	edges, weights, err := b.BlockReader.Block(i)
	if n := b.failAfter - b.served; len(edges) > n {
		edges = edges[:n]
		if weights != nil {
			weights = weights[:n]
		}
	}
	b.served += len(edges)
	return edges, weights, err
}
