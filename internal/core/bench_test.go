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
)

// Microbenchmarks of the peel hot path (the `make bench-core` suite):
// pass throughput on the 2M-edge RMAT sweep the layout work targets,
// Algorithm 2's quota passes on the same graph, the push vs pull
// decrement directions in isolation, and the directed peel on the same
// RMAT graph before symmetrization.

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
// 2M-edge RMAT graph across ε: ε=0.05 maximizes passes (small batches —
// the frontier case), ε=1 is the paper's default (huge batches — the
// pull case). Bytes/op counts 8 bytes per edge per pass,
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

// BenchmarkCorePushPull times two whole runs of Algorithm 1: ε=0
// (small batches, many passes) and ε=4 (one near-total batch first).
// Neither pins a decrement direction — the engine picks push or pull
// each pass, and both runs take both — so each reports how many of its
// passes pushed and pulled. BenchmarkCorePushVsPull isolates the two
// directions.
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
			var push, pull int
			o := Opts{Workers: 1, hooks: peelHooks{mode: func(_ int, p bool) {
				if p {
					pull++
				} else {
					push++
				}
			}}}
			for i := 0; i < b.N; i++ {
				push, pull = 0, 0
				if _, err := Undirected(g, bc.eps, o); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(push), "push-passes")
			b.ReportMetric(float64(pull), "pull-passes")
		})
	}
}

// BenchmarkCoreAtLeastK is Algorithm 2 with k=1000 on the same graph,
// at one worker and at GOMAXPROCS: ε=0.05 takes many passes that each
// remove a small quota of a large candidate set, the case a per-pass
// sort of the candidates made slow, and ε=0.5 is peel-mem's ε.
func BenchmarkCoreAtLeastK(b *testing.B) {
	g, err := coreBenchGraph()
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range slices.Compact([]int{1, runtime.GOMAXPROCS(0)}) {
		for _, eps := range []float64{0.05, 0.5} {
			b.Run(fmt.Sprintf("k=1000/eps=%g/workers=%d", eps, workers), func(b *testing.B) {
				b.ReportAllocs()
				var passes int
				for i := 0; i < b.N; i++ {
					r, err := AtLeastK(g, 1000, eps, Opts{Workers: workers})
					if err != nil {
						b.Fatal(err)
					}
					passes = r.Passes
				}
				b.ReportMetric(float64(passes), "passes")
			})
		}
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

// BenchmarkCoreDirected is Algorithm 3 on the directed RMAT graph that
// coreBenchGraph symmetrizes, at one worker and at GOMAXPROCS: a run at
// c=1 with ε=0.05 (many passes, small batches) and the paper's ε=1, and
// the δ=2, ε=1 sweep over c, about 37 such runs. Bytes/op counts 8
// bytes per edge per pass, summed over the sweep's runs.
func BenchmarkCoreDirected(b *testing.B) {
	g, err := coreBenchDirected()
	if err != nil {
		b.Fatal(err)
	}
	run := func(name string, workers int, solve func(o Opts) (passes int, err error)) {
		b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
			b.ReportAllocs()
			var passes int
			for i := 0; i < b.N; i++ {
				var err error
				if passes, err = solve(Opts{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(passes) * g.NumEdges() * 8)
			b.ReportMetric(float64(passes), "passes")
		})
	}
	for _, workers := range slices.Compact([]int{1, runtime.GOMAXPROCS(0)}) {
		for _, eps := range []float64{0.05, 1} {
			run(fmt.Sprintf("eps=%g", eps), workers, func(o Opts) (int, error) {
				r, err := Directed(g, 1, eps, o)
				if err != nil {
					return 0, err
				}
				return r.Passes, nil
			})
		}
		run("sweep/delta=2/eps=1", workers, func(o Opts) (int, error) {
			r, err := DirectedSweep(g, 2, 1, o)
			if err != nil {
				return 0, err
			}
			passes := 0
			for _, p := range r.Points {
				passes += p.Passes
			}
			return passes, nil
		})
	}
}

// BenchmarkCoreCompact isolates the CSR rebuild the weighted peel
// engine pays at each compaction epoch (the order-preserving
// CompactInto). The keep set is the deg ≥ 4 survivors of the RMAT
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
	// The scratch is warmed with one untimed rebuild so a -benchtime=1x
	// run measures the steady-state compaction the peel loop actually
	// repeats, not the first-epoch scratch growth (whose heap expansion
	// can drag a GC cycle into the single timed pass).
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
}

// BenchmarkCorePushVsPull measures, per adjacency entry walked, the two
// directions decrement chooses between: pushDecrement over a removed
// batch's rows and pullRecount over the survivors' rows. The batch is
// every node of degree at most c × the average degree, for c ∈ {1, 3}
// (the low-degree bulk an early pass removes), and the survivors are
// the rest. The push is one sequential loop at every worker count, so
// at workers=GOMAXPROCS only the pull runs wider. The one-worker ratio
// of push to pull ns/entry at c = 3 is what pushPullCost is derived
// from, and the GOMAXPROCS ratio is what decrement's scaling of it by
// the pull's width is cited from.
func BenchmarkCorePushVsPull(b *testing.B) {
	g, err := coreBenchGraph()
	if err != nil {
		b.Fatal(err)
	}
	avg := 2 * float64(g.NumEdges()) / float64(g.NumNodes())
	for _, c := range []float64{1, 3} {
		var batch, survivors []int32
		var pushVol, pullVol int64
		for u := int32(0); u < int32(g.NumNodes()); u++ {
			if d := g.Degree(u); float64(d) <= c*avg {
				batch = append(batch, u)
				pushVol += int64(d)
			} else {
				survivors = append(survivors, u)
				pullVol += int64(d)
			}
		}
		for _, workers := range slices.Compact([]int{1, runtime.GOMAXPROCS(0)}) {
			b.Run(fmt.Sprintf("cut=%gx-avg/workers=%d", c, workers), func(b *testing.B) {
				st := newPeelState(g, Opts{Workers: workers}, false)
				defer st.release()
				s := &st.sides[0]
				s.alive.Zero()
				for _, u := range survivors {
					s.alive.Set(u)
				}
				s.live = append(s.live[:0], survivors...)
				var push, pull time.Duration
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t0 := time.Now()
					st.pushDecrement(s, s, batch, 0)
					t1 := time.Now()
					st.pullRecount(s, s)
					push += t1.Sub(t0)
					pull += time.Since(t1)
				}
				pushNs := float64(push.Nanoseconds()) / (float64(b.N) * float64(pushVol))
				pullNs := float64(pull.Nanoseconds()) / (float64(b.N) * float64(pullVol))
				b.ReportMetric(pushNs, "push-ns/entry")
				b.ReportMetric(pullNs, "pull-ns/entry")
				b.ReportMetric(pushNs/pullNs, "push/pull")
			})
		}
	}
}
