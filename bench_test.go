package densestream_test

// One benchmark per table and figure of the paper's evaluation (§6),
// plus the DESIGN.md ablations and micro-benchmarks of the primitives.
// Each experiment benchmark regenerates the corresponding artifact via
// internal/experiments (the same code path as cmd/experiments); run with
// -v to see the regenerated rows.

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	ds "densestream"
	"densestream/internal/experiments"
)

const benchScale = 1

func benchReport(b *testing.B, fn func() (*experiments.Report, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", rep)
		}
	}
}

// BenchmarkTable1_Datasets regenerates Table 1 (dataset parameters).
func BenchmarkTable1_Datasets(b *testing.B) {
	benchReport(b, func() (*experiments.Report, error) { return experiments.Table1(benchScale) })
}

// BenchmarkTable2_Approximation regenerates Table 2 (empirical
// approximation ratio against the exact flow solver).
func BenchmarkTable2_Approximation(b *testing.B) {
	benchReport(b, experiments.Table2)
}

// BenchmarkFig61_EpsilonSweep regenerates Figure 6.1 (ε vs approximation
// and passes).
func BenchmarkFig61_EpsilonSweep(b *testing.B) {
	benchReport(b, func() (*experiments.Report, error) { return experiments.Figure61(benchScale) })
}

// BenchmarkFig62_DensityPerPass regenerates Figure 6.2 (relative density
// per pass).
func BenchmarkFig62_DensityPerPass(b *testing.B) {
	benchReport(b, func() (*experiments.Report, error) { return experiments.Figure62(benchScale) })
}

// BenchmarkFig63_ShrinkagePerPass regenerates Figure 6.3 (remaining
// nodes/edges per pass).
func BenchmarkFig63_ShrinkagePerPass(b *testing.B) {
	benchReport(b, func() (*experiments.Report, error) { return experiments.Figure63(benchScale) })
}

// BenchmarkTable3_DeltaEpsilon regenerates Table 3 (directed ρ for δ × ε).
func BenchmarkTable3_DeltaEpsilon(b *testing.B) {
	benchReport(b, func() (*experiments.Report, error) { return experiments.Table3(benchScale) })
}

// BenchmarkFig64_CSweepLJ regenerates Figure 6.4 (density and passes vs c
// on lj-like).
func BenchmarkFig64_CSweepLJ(b *testing.B) {
	benchReport(b, func() (*experiments.Report, error) { return experiments.Figure64(benchScale) })
}

// BenchmarkFig65_DirectedTrace regenerates Figure 6.5 (|S|, |T|, |E(S,T)|
// per pass at the best c).
func BenchmarkFig65_DirectedTrace(b *testing.B) {
	benchReport(b, func() (*experiments.Report, error) { return experiments.Figure65(benchScale) })
}

// BenchmarkFig66_CSweepTwitter regenerates Figure 6.6 (density and passes
// vs c on twitter-like).
func BenchmarkFig66_CSweepTwitter(b *testing.B) {
	benchReport(b, func() (*experiments.Report, error) { return experiments.Figure66(benchScale) })
}

// BenchmarkTable4_Sketching regenerates Table 4 (sketched vs exact
// density ratio and memory).
func BenchmarkTable4_Sketching(b *testing.B) {
	benchReport(b, func() (*experiments.Report, error) { return experiments.Table4(benchScale) })
}

// BenchmarkFig67_MapReduceTime regenerates Figure 6.7 (MapReduce
// wall-clock per pass).
func BenchmarkFig67_MapReduceTime(b *testing.B) {
	benchReport(b, func() (*experiments.Report, error) { return experiments.Figure67(benchScale) })
}

// BenchmarkAblation_BatchVsGreedy compares Algorithm 1 with Charikar's
// greedy (A1).
func BenchmarkAblation_BatchVsGreedy(b *testing.B) {
	benchReport(b, func() (*experiments.Report, error) { return experiments.AblationBatchVsGreedy(benchScale) })
}

// BenchmarkAblation_DirectedSideRule compares the |S|/|T| side rule with
// the naive max-degree rule (A2).
func BenchmarkAblation_DirectedSideRule(b *testing.B) {
	benchReport(b, func() (*experiments.Report, error) { return experiments.AblationDirectedSideRule(benchScale) })
}

// BenchmarkAblation_PassLowerBound measures passes on the Lemma 5
// adversarial instance (A3).
func BenchmarkAblation_PassLowerBound(b *testing.B) {
	benchReport(b, experiments.AblationPassLowerBound)
}

// BenchmarkAblation_Combiner measures the combiner's effect on the
// degree job's shuffle volume (A4).
func BenchmarkAblation_Combiner(b *testing.B) {
	benchReport(b, func() (*experiments.Report, error) { return experiments.AblationCombiner(benchScale) })
}

// BenchmarkAblation_ExactVsApprox measures the runtime crossover between
// exact flow, greedy, and Algorithm 1 (A5).
func BenchmarkAblation_ExactVsApprox(b *testing.B) {
	benchReport(b, experiments.AblationExactVsApprox)
}

// --- micro-benchmarks of the primitives ---

func benchGraph(b *testing.B) *ds.UndirectedGraph {
	b.Helper()
	g, _, err := ds.GeneratePlantedDense(20000, 160000, 2.1, 120, 0.8, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkPeelUndirected measures Algorithm 1 throughput at ε=1.
func BenchmarkPeelUndirected(b *testing.B) {
	g := benchGraph(b)
	ctx, p := context.Background(), ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendPeel, Eps: 1, Graph: g}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.Solve(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(g.NumEdges() * 8)
}

// BenchmarkGreedyPeel measures Charikar's greedy on the same graph.
func BenchmarkGreedyPeel(b *testing.B) {
	g := benchGraph(b)
	ctx, p := context.Background(), ds.Problem{Objective: ds.ObjectiveGreedy, Graph: g}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.Solve(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(g.NumEdges() * 8)
}

// BenchmarkExactFlow measures the exact solver on a smaller instance.
func BenchmarkExactFlow(b *testing.B) {
	g, _, err := ds.GeneratePlantedDense(2000, 8000, 2.2, 40, 0.9, 1)
	if err != nil {
		b.Fatal(err)
	}
	ctx, p := context.Background(), ds.Problem{Objective: ds.ObjectiveExact, Graph: g}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.Solve(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDirectedPeel measures Algorithm 3 at c=1, ε=1.
func BenchmarkDirectedPeel(b *testing.B) {
	g, err := ds.GenerateChungLuDirected(20000, 160000, 2.2, 1)
	if err != nil {
		b.Fatal(err)
	}
	ctx, p := context.Background(), ds.Problem{Objective: ds.ObjectiveDirected, Backend: ds.BackendPeel, C: 1, Eps: 1, Directed: g}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.Solve(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(g.NumEdges() * 8)
}

// BenchmarkStreamingPeel measures the streaming peeler against an
// in-memory stream (isolates per-pass scan cost).
func BenchmarkStreamingPeel(b *testing.B) {
	g := benchGraph(b)
	ctx, p := context.Background(), ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendStream, Eps: 1, Edges: ds.StreamGraph(g)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.Solve(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(g.NumEdges() * 8)
}

// BenchmarkSketchUpdate measures raw Count-Sketch update throughput.
func BenchmarkSketchUpdate(b *testing.B) {
	ctx := context.Background()
	p := ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendStreamSketched, Eps: 1, Edges: ds.StreamGraph(benchGraph(b))}
	cfg := ds.WithSketch(ds.SketchConfig{Tables: 5, Buckets: 1000, Seed: 1})
	if _, err := ds.Solve(ctx, p, cfg); err != nil {
		b.Fatal(err)
	}
	// The full sketched run above warms the path; now measure per-update.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.Solve(ctx, p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// parallelBenchGraph lazily builds the ≥1M-edge graph shared by the
// worker-sweep benchmarks, so `go test -bench` runs that skip them pay
// nothing.
var parallelBenchGraph = sync.OnceValues(func() (*ds.UndirectedGraph, error) {
	return ds.GenerateChungLu(200000, 1<<20, 2.2, 1)
})

// BenchmarkParallelPeel sweeps the worker count of the sharded peeling
// engine on a ~1M-edge power-law graph. Results are bit-identical
// across the sweep; only wall-clock should move.
func BenchmarkParallelPeel(b *testing.B) {
	g, err := parallelBenchGraph()
	if err != nil {
		b.Fatal(err)
	}
	p := ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendPeel, Eps: 1, Graph: g}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(g.NumEdges() * 8)
			for i := 0; i < b.N; i++ {
				if _, err := ds.Solve(context.Background(), p, ds.WithWorkers(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelStreamingPeel is the same sweep against the sharded
// in-memory stream scanner (striped counter lanes, one shard per
// worker).
func BenchmarkParallelStreamingPeel(b *testing.B) {
	g, err := parallelBenchGraph()
	if err != nil {
		b.Fatal(err)
	}
	p := ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendStream, Eps: 1, Edges: ds.StreamGraph(g)}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(g.NumEdges() * 8)
			for i := 0; i < b.N; i++ {
				if _, err := ds.Solve(context.Background(), p, ds.WithWorkers(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fileStreamBenchPath lazily writes a ~2M-edge power-law graph to a
// temp edge-list file shared by the disk-streaming benchmarks.
var fileStreamBenchPath = sync.OnceValues(func() (string, error) {
	g, err := ds.GenerateChungLu(400000, 2<<20, 2.2, 1)
	if err != nil {
		return "", err
	}
	f, err := os.CreateTemp("", "densestream-bench-*.txt")
	if err != nil {
		return "", err
	}
	if err := ds.WriteUndirected(f, g); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return f.Name(), nil
})

// BenchmarkFileStreamPeel sweeps the shard/worker count of `-algo
// stream` on a multi-million-edge disk input: the per-pass scan splits
// into byte-range file shards, so wall-clock should drop with the
// worker count while results stay bit-identical (the out-of-core
// acceptance benchmark). Bytes/op counts the actual disk-scan volume.
func BenchmarkFileStreamPeel(b *testing.B) {
	path, err := fileStreamBenchPath()
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var scanned int64
			for i := 0; i < b.N; i++ {
				sol, err := ds.Solve(context.Background(),
					ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendStream, Eps: 1, Path: path},
					ds.WithWorkers(workers))
				if err != nil {
					b.Fatal(err)
				}
				scanned = sol.Stats.BytesScanned
			}
			b.SetBytes(scanned)
		})
	}
}

// binaryStreamBench lazily prepares the binary-format disk benchmark:
// the same ~2M-edge power-law graph as BenchmarkFileStreamPeel, written
// as a binary columnar file, plus a one-shot timing of the resident
// solve on the same graph for the disk-vs-resident ratio metric.
var binaryStreamBench = sync.OnceValues(func() (*binaryBenchState, error) {
	g, err := ds.GenerateChungLu(400000, 2<<20, 2.2, 1)
	if err != nil {
		return nil, err
	}
	f, err := os.CreateTemp("", "densestream-bench-*.bsg")
	if err != nil {
		return nil, err
	}
	path := f.Name()
	f.Close()
	if err := ds.WriteUndirectedBinary(path, g); err != nil {
		return nil, err
	}
	start := time.Now()
	if _, err := ds.Solve(context.Background(),
		ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendStream, Eps: 1, Graph: g},
		ds.WithWorkers(1)); err != nil {
		return nil, err
	}
	return &binaryBenchState{graph: g, path: path, residentNs: float64(time.Since(start).Nanoseconds())}, nil
})

type binaryBenchState struct {
	graph      *ds.UndirectedGraph
	path       string
	residentNs float64
}

// BenchmarkBinaryStreamPeel is BenchmarkFileStreamPeel on the binary
// columnar format: the same solve, but the per-pass scan decodes
// column blocks (through the mmap reader where available) instead of
// parsing text. The x-resident metric is this run's ns/op over a
// single-worker resident solve of the same graph — the price of going
// out-of-core in this format.
func BenchmarkBinaryStreamPeel(b *testing.B) {
	st, err := binaryStreamBench()
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var scanned int64
			for i := 0; i < b.N; i++ {
				sol, err := ds.Solve(context.Background(),
					ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendStream, Eps: 1, Path: st.path},
					ds.WithWorkers(workers))
				if err != nil {
					b.Fatal(err)
				}
				scanned = sol.Stats.BytesScanned
			}
			b.SetBytes(scanned)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/st.residentNs, "x-resident")
		})
	}
}

// BenchmarkConvert measures text-to-binary conversion through the
// public API (sharded text load, then the binary writer); bytes/op is
// the text input size.
func BenchmarkConvert(b *testing.B) {
	txt, err := fileStreamBenchPath()
	if err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(txt)
	if err != nil {
		b.Fatal(err)
	}
	out := txt + ".convert.bsg"
	defer os.Remove(out)
	b.ReportAllocs()
	b.SetBytes(st.Size())
	for i := 0; i < b.N; i++ {
		g, _, err := ds.ReadUndirectedFile(txt, false, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := ds.WriteUndirectedBinary(out, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapReduceSpill measures the MapReduce peel under shrinking
// spill budgets: resident, half-resident, and fully spilled. Results
// are bit-identical across the sweep; the ns/op spread is the price of
// the out-of-core model.
func BenchmarkMapReduceSpill(b *testing.B) {
	g, err := ds.GenerateChungLu(20000, 160000, 2.2, 1)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	p := ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendMapReduce, Eps: 1, Graph: g}
	for _, budget := range []int64{0, int64(g.NumEdges()) * 4, 1} {
		b.Run(fmt.Sprintf("spill-bytes=%d", budget), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(g.NumEdges() * 8)
			var spilled int64
			for i := 0; i < b.N; i++ {
				sol, err := ds.Solve(context.Background(), p, ds.WithMapReduceConfig(
					ds.MRConfig{Mappers: 4, Reducers: 4, SpillBytes: budget, SpillDir: dir}))
				if err != nil {
					b.Fatal(err)
				}
				spilled = sol.Stats.BytesSpilled
			}
			b.ReportMetric(float64(spilled)/(1<<20), "spilled-MB/run")
		})
	}
}

// BenchmarkMapReducePeel sweeps the simulated cluster shape of the
// MapReduce peeling driver on a mid-size power-law graph: worker slots
// per machine, machine count, and the degree-job combiner. Results are
// bit-identical across the whole sweep; only wall-clock moves. The
// per-round shuffle volume summed over the run is reported as a custom
// metric so the perf log keeps the Figure 6.7 series.
func BenchmarkMapReducePeel(b *testing.B) {
	g, err := ds.GenerateChungLu(20000, 160000, 2.2, 1)
	if err != nil {
		b.Fatal(err)
	}
	shapes := []ds.MRConfig{
		{Mappers: 1, Reducers: 1},
		{Mappers: 2, Reducers: 2},
		{Mappers: 4, Reducers: 4},
		{Mappers: 8, Reducers: 8},
		{Mappers: 4, Reducers: 4, Machines: 2},
		{Mappers: 4, Reducers: 4, Machines: 4},
		{Mappers: 4, Reducers: 4, Machines: 2, Combine: true},
	}
	p := ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendMapReduce, Eps: 1, Graph: g}
	for _, cfg := range shapes {
		name := fmt.Sprintf("mappers=%d,reducers=%d,machines=%d", cfg.Mappers, cfg.Reducers, max(cfg.Machines, 1))
		if cfg.Combine {
			name += ",combine"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(g.NumEdges() * 8)
			var shuffleRecs, shuffleBytes int64
			for i := 0; i < b.N; i++ {
				sol, err := ds.Solve(context.Background(), p, ds.WithMapReduceConfig(cfg))
				if err != nil {
					b.Fatal(err)
				}
				shuffleRecs, shuffleBytes = 0, 0
				for _, rd := range sol.MRRounds {
					shuffleRecs += rd.Shuffle
					shuffleBytes += rd.ShuffleBytes
				}
			}
			b.ReportMetric(float64(shuffleRecs), "shuffle-recs/run")
			b.ReportMetric(float64(shuffleBytes)/(1<<20), "shuffle-MB/run")
		})
	}
}

// BenchmarkMapReduceCheckpoint measures the round-level checkpoint tax:
// the MapReduce peel persisting its full driver state (partitioned edge
// dataset + manifest) every round, versus BenchmarkMapReducePeel's
// happy path. Results are bit-identical with checkpointing on; the
// ns/op spread and the checkpoint volume are the price of restartable
// rounds.
func BenchmarkMapReduceCheckpoint(b *testing.B) {
	g, err := ds.GenerateChungLu(20000, 160000, 2.2, 1)
	if err != nil {
		b.Fatal(err)
	}
	p := ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendMapReduce, Eps: 1, Graph: g}
	for _, every := range []int{1, 2} {
		b.Run(fmt.Sprintf("every=%d", every), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(g.NumEdges() * 8)
			dir := b.TempDir()
			var ckBytes, ckWrites int64
			for i := 0; i < b.N; i++ {
				sol, err := ds.Solve(context.Background(), p, ds.WithMapReduceConfig(
					ds.MRConfig{Mappers: 4, Reducers: 4, CheckpointEvery: every, CheckpointDir: dir}))
				if err != nil {
					b.Fatal(err)
				}
				if sol.MRFaults != nil {
					ckBytes = sol.MRFaults.CheckpointBytes
					ckWrites = sol.MRFaults.CheckpointsWritten
				}
			}
			b.ReportMetric(float64(ckBytes)/(1<<20), "ckpt-MB/run")
			b.ReportMetric(float64(ckWrites), "ckpts/run")
		})
	}
}
