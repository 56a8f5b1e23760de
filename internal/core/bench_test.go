package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"densestream/internal/gen"
	"densestream/internal/graph"
	"densestream/internal/par"
)

// Microbenchmarks of the peel hot path (the `make bench-core` suite):
// pass throughput on the 2M-edge RMAT sweep the layout work targets,
// the push vs pull decrement directions in isolation, and the directed
// peel on the same RMAT graph before symmetrization.

// rmatUndirected symmetrizes a directed RMAT graph: highly skewed
// degrees, the adversarial layout case for the peel loops.
func rmatUndirected(scale int, m int64, seed int64) (*graph.Undirected, error) {
	dg, err := gen.RMAT(scale, m, gen.DefaultRMAT, seed)
	if err != nil {
		return nil, err
	}
	return symmetrize(dg)
}

// symmetrize freezes the undirected graph on dg's edges.
func symmetrize(dg *graph.Directed) (*graph.Undirected, error) {
	b := graph.NewBuilder(dg.NumNodes())
	var ferr error
	dg.Edges(func(u, v int32) bool {
		ferr = b.AddEdge(u, v)
		return ferr == nil
	})
	if ferr != nil {
		return nil, ferr
	}
	return b.Freeze()
}

// coreBenchDirected lazily builds the ~2M-edge directed RMAT graph
// behind the core benchmarks; coreBenchGraph is its symmetrization.
// Runs that skip them pay nothing.
var coreBenchDirected = sync.OnceValues(func() (*graph.Directed, error) {
	return gen.RMAT(18, 2<<20, gen.DefaultRMAT, 7)
})

var coreBenchGraph = sync.OnceValues(func() (*graph.Undirected, error) {
	dg, err := coreBenchDirected()
	if err != nil {
		return nil, err
	}
	return symmetrize(dg)
})

// BenchmarkCorePassThroughput measures whole-run peel throughput on the
// 2M-edge RMAT graph across ε: ε=0.05 maximizes passes (tiny batches —
// the frontier and compaction case), ε=1 is the paper's default (huge
// batches — the pull case). Bytes/op counts 8 bytes per edge per pass,
// so MB/s is true pass throughput.
func BenchmarkCorePassThroughput(b *testing.B) {
	g, err := coreBenchGraph()
	if err != nil {
		b.Fatal(err)
	}
	for _, eps := range []float64{0.05, 1} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			b.ReportAllocs()
			var passes int
			for i := 0; i < b.N; i++ {
				r, err := Undirected(g, eps, Opts{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				passes = r.Passes
			}
			b.SetBytes(int64(passes) * g.NumEdges() * 8)
			b.ReportMetric(float64(passes), "passes")
		})
	}
}

// BenchmarkCorePushPull pins each decrement direction of one full run:
// ε=0 forces minimum-size batches (every decrement pass takes the push
// direction), a large ε forces one near-total batch (the pull
// direction). The adaptive engine picks per pass; these bounds bracket
// it.
func BenchmarkCorePushPull(b *testing.B) {
	g, err := coreBenchGraph()
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		eps  float64
	}{{"push-heavy/eps=0", 0}, {"pull-heavy/eps=4", 4}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(g.NumEdges() * 8)
			for i := 0; i < b.N; i++ {
				if _, err := Undirected(g, bc.eps, Opts{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCorePassThroughputWeighted is the weighted pull path (the
// ROADMAP's cache-blocked ordering item) on the same graph with unit
// weights.
func BenchmarkCorePassThroughputWeighted(b *testing.B) {
	g, err := coreBenchGraph()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(g.NumEdges() * 8)
	for i := 0; i < b.N; i++ {
		if _, err := UndirectedWeighted(g, 1, Opts{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreDirected is Algorithm 3 at c=1 on the directed RMAT
// graph that coreBenchGraph symmetrizes, at ε=0.05 (many passes, small
// batches) and the paper's ε=1. Bytes/op counts 8 bytes per edge per
// pass.
func BenchmarkCoreDirected(b *testing.B) {
	g, err := coreBenchDirected()
	if err != nil {
		b.Fatal(err)
	}
	for _, eps := range []float64{0.05, 1} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			b.ReportAllocs()
			var passes int
			for i := 0; i < b.N; i++ {
				r, err := Directed(g, 1, eps, Opts{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				passes = r.Passes
			}
			b.SetBytes(int64(passes) * g.NumEdges() * 8)
			b.ReportMetric(float64(passes), "passes")
		})
	}
}

// BenchmarkCoreCompact isolates the CSR rebuild the peel engines pay at
// each compaction epoch, comparing the order-preserving relabel against
// the hub-first (degree-ordered) relabel that also builds the RowBanks
// pull layout. The keep set is the deg ≥ 4 survivors of the RMAT
// graph — the hub-heavy shape a mid-peel compaction actually sees.
// Bytes/op counts the two adjacency sweeps each rebuild performs.
func BenchmarkCoreCompact(b *testing.B) {
	g, err := coreBenchGraph()
	if err != nil {
		b.Fatal(err)
	}
	var keep []int32
	var degSum int64
	for u := int32(0); u < int32(g.NumNodes()); u++ {
		if d := len(g.Neighbors(u)); d >= 4 {
			keep = append(keep, u)
			degSum += int64(d)
		}
	}
	// Each sub-benchmark warms its scratch with one untimed rebuild so a
	// -benchtime=1x run measures the steady-state compaction the peel
	// loop actually repeats, not the first-epoch scratch growth (whose
	// heap expansion can drag a GC cycle into the single timed pass).
	b.Run("id-ordered", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(degSum * 4 * 2)
		var s graph.CompactScratch
		g.CompactInto(keep, &s)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sub := g.CompactInto(keep, &s)
			if sub.NumNodes() != len(keep) {
				b.Fatalf("compacted to %d nodes, want %d", sub.NumNodes(), len(keep))
			}
		}
	})
	// The degree-ordered rebuild runs on a pool; workers=1 against
	// workers=GOMAXPROCS shows its parallel speedup.
	b.Run("degree-ordered", func(b *testing.B) {
		for _, workers := range slices.Compact([]int{1, runtime.GOMAXPROCS(0)}) {
			b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(degSum * 4 * 2)
				pool := par.New(workers)
				var s graph.CompactScratch
				g.CompactIntoDegreeOrdered(pool, keep, &s)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sub, order := g.CompactIntoDegreeOrdered(pool, keep, &s)
					if sub.NumNodes() != len(keep) || len(order) != len(keep) {
						b.Fatalf("compacted to %d nodes (order %d), want %d", sub.NumNodes(), len(order), len(keep))
					}
				}
			})
		}
	})
}

// BenchmarkCoreRebuildVsPull measures, per adjacency entry walked, the
// two ways a pull pass can bring the degrees up to date: the hub-first
// rebuild (CompactIntoDegreeOrdered) and the plain pull recount over
// the uncompacted CSR (pullRecount). Both walk the same survivors'
// rows, so the ratio of their ns/entry is what compactVolDivisor is
// derived from. The keep sets are the deg ≥ 4 survivors of
// BenchmarkCoreCompact and the survivors of a first pass at ε=0.5
// (deg > 3·|E|/|V|), the hub-heavy shape pass 1 decides on.
func BenchmarkCoreRebuildVsPull(b *testing.B) {
	g, err := coreBenchGraph()
	if err != nil {
		b.Fatal(err)
	}
	cut := int(3 * g.NumEdges() / int64(g.NumNodes()))
	for _, ks := range []struct {
		name string
		keep func(d int) bool
	}{
		{"keep=deg4", func(d int) bool { return d >= 4 }},
		{"keep=pass1", func(d int) bool { return d > cut }},
	} {
		var keep []int32
		var vol int64
		for u := int32(0); u < int32(g.NumNodes()); u++ {
			if d := g.Degree(u); ks.keep(d) {
				keep = append(keep, u)
				vol += int64(d)
			}
		}
		for _, workers := range slices.Compact([]int{1, runtime.GOMAXPROCS(0)}) {
			b.Run(fmt.Sprintf("%s/workers=%d", ks.name, workers), func(b *testing.B) {
				st := newPeelState(g, Opts{Workers: workers}, false)
				defer st.release()
				st.alive.Zero()
				for _, u := range keep {
					st.alive.Set(u)
				}
				st.live = append(st.live[:0], keep...)
				var s graph.CompactScratch
				g.CompactIntoDegreeOrdered(st.pool, keep, &s) // warm the scratch
				var rebuild, pull time.Duration
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t0 := time.Now()
					g.CompactIntoDegreeOrdered(st.pool, keep, &s)
					t1 := time.Now()
					st.pullRecount()
					rebuild += t1.Sub(t0)
					pull += time.Since(t1)
				}
				per := float64(b.N) * float64(vol)
				b.ReportMetric(float64(rebuild.Nanoseconds())/per, "rebuild-ns/entry")
				b.ReportMetric(float64(pull.Nanoseconds())/per, "pull-ns/entry")
				b.ReportMetric(float64(rebuild)/float64(pull), "rebuild/pull")
			})
		}
	}
}
