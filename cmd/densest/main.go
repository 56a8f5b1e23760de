// Command densest finds (approximately) densest subgraphs in edge-list
// files using the algorithms of Bahmani–Kumar–Vassilvitskii (VLDB 2012).
//
// Usage:
//
//	densest -in graph.txt [-algo peel|greedy|exact|atleastk|mr] [-eps 0.5] [-k 100] [-spill-mb 256]
//	densest -in follows.txt -directed [-algo peel|sweep|mr] [-c 1] [-delta 2]
//
// The input is a SNAP-style edge list: "u v" per line, '#' comments.
// Output reports the density, subgraph size, pass count, and optionally
// the per-pass trace and the member node labels. Every invocation maps
// onto exactly one densestream.Solve call: -algo and -directed select
// the Objective and Backend of the Problem, the remaining flags its
// parameters and Options.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	ds "densestream"
)

func main() {
	var (
		in       = flag.String("in", "", "input edge-list file (required)")
		directed = flag.Bool("directed", false, "treat input as a directed graph")
		weighted = flag.Bool("weighted", false, "read a third column as edge weight (undirected only)")
		algo     = flag.String("algo", "peel", "algorithm: peel, greedy, exact, atleastk, sweep, mr, stream, sketch")
		eps      = flag.Float64("eps", 0.5, "peeling slack ε (≥ 0)")
		k        = flag.Int("k", 0, "minimum subgraph size for -algo atleastk")
		c        = flag.Float64("c", 1, "side ratio |S|/|T| for directed peel")
		delta    = flag.Float64("delta", 2, "ratio step for -algo sweep")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "workers for the sharded peeling scans (results are identical for any value)")
		mappers  = flag.Int("mappers", 8, "simulated map worker slots per machine for -algo mr")
		reducers = flag.Int("reducers", 8, "simulated reduce worker slots per machine for -algo mr")
		machines = flag.Int("machines", 1, "simulated machines for -algo mr (per-machine shuffle is reported with -trace)")
		spillMB  = flag.Int("spill-mb", 0, "resident-memory budget in MiB per MapReduce edge dataset; past it partitions spill to disk (0 = fully resident)")
		tables   = flag.Int("tables", 5, "Count-Sketch tables for -algo sketch")
		buckets  = flag.Int("buckets", 0, "Count-Sketch buckets for -algo sketch (default n/20)")
		trace    = flag.Bool("trace", false, "print the per-pass trace")
		members  = flag.Bool("members", false, "print the subgraph's node labels")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	if *algo == "stream" || *algo == "sketch" {
		// True external streaming: the graph never enters memory; the
		// file is re-read once per pass. Requires dense integer node ids.
		err = runStreaming(*in, *directed, *weighted, *algo, *eps, *c, *workers, *tables, *buckets, *trace)
	} else {
		err = run(*in, *directed, *weighted, *algo, *eps, *k, *c, *delta, *workers, *mappers, *reducers, *machines, *spillMB, *trace, *members)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "densest:", err)
		os.Exit(1)
	}
}

func runStreaming(in string, directed, weighted bool, algo string, eps, c float64, workers, tables, buckets int, trace bool) error {
	ctx := context.Background()
	opts := []ds.Option{ds.WithWorkers(workers)}
	if weighted {
		if directed || algo == "sketch" {
			return fmt.Errorf("weighted streaming supports undirected -algo stream only")
		}
		ws, err := ds.OpenWeightedFileStream(in)
		if err != nil {
			return err
		}
		defer ws.Close()
		sol, err := ds.Solve(ctx, ds.Problem{
			Objective: ds.ObjectiveWeighted, Backend: ds.BackendStream,
			Eps: eps, WeightedEdges: ws,
		}, opts...)
		if err != nil {
			return err
		}
		fmt.Printf("weighted streaming: ρ = %.4f  |S̃| = %d  passes = %d  (%d nodes of state)\n",
			sol.Density, len(sol.Set), sol.Passes, ws.NumNodes())
		printScan(sol)
		printTrace(sol.Trace, trace)
		return nil
	}
	es, err := ds.OpenFileStream(in)
	if err != nil {
		return err
	}
	defer es.Close()
	switch {
	case directed && algo == "stream":
		sol, err := ds.Solve(ctx, ds.Problem{
			Objective: ds.ObjectiveDirected, Backend: ds.BackendStream,
			C: c, Eps: eps, Edges: es,
		}, opts...)
		if err != nil {
			return err
		}
		fmt.Printf("streaming directed: ρ = %.4f  |S̃| = %d  |T̃| = %d  passes = %d\n",
			sol.Density, len(sol.S), len(sol.T), sol.Passes)
	case algo == "stream":
		sol, err := ds.Solve(ctx, ds.Problem{
			Objective: ds.ObjectiveUndirected, Backend: ds.BackendStream,
			Eps: eps, Edges: es,
		}, opts...)
		if err != nil {
			return err
		}
		fmt.Printf("streaming: ρ = %.4f  |S̃| = %d  passes = %d  (memory: %d words)\n",
			sol.Density, len(sol.Set), sol.Passes, es.NumNodes())
		printScan(sol)
		printTrace(sol.Trace, trace)
	case directed:
		return fmt.Errorf("-algo sketch supports undirected graphs only")
	default:
		if buckets <= 0 {
			buckets = es.NumNodes() / 20
			if buckets < 16 {
				buckets = 16
			}
		}
		sol, err := ds.Solve(ctx, ds.Problem{
			Objective: ds.ObjectiveUndirected, Backend: ds.BackendStreamSketched,
			Eps: eps, Edges: es,
		}, append(opts, ds.WithSketch(ds.SketchConfig{Tables: tables, Buckets: buckets, Seed: 1}))...)
		if err != nil {
			return err
		}
		fmt.Printf("sketched streaming (t=%d, b=%d): ρ = %.4f  |S̃| = %d  passes = %d  (memory: %d words = %.0f%% of exact)\n",
			tables, buckets, sol.Density, len(sol.Set), sol.Passes, sol.SketchMemoryWords,
			100*float64(sol.SketchMemoryWords)/float64(es.NumNodes()))
		printTrace(sol.Trace, trace)
	}
	return nil
}

// printScan reports the disk-scan volume of a file-streamed solve.
func printScan(sol *ds.Solution) {
	if sol.Stats.BytesScanned > 0 {
		fmt.Printf("scanned %.1f MiB from disk across all passes\n", float64(sol.Stats.BytesScanned)/(1<<20))
	}
}

func printTrace(tr []ds.PassStat, on bool) {
	if !on {
		return
	}
	for _, p := range tr {
		fmt.Printf("  pass %2d: |S|=%8d |E|=%10d ρ=%9.3f removed=%d\n",
			p.Pass, p.Nodes, p.Edges, p.Density, p.Removed)
	}
}

func run(in string, directed, weighted bool, algo string, eps float64, k int, c, delta float64, workers, mappers, reducers, machines, spillMB int, trace, members bool) error {
	mrCfg := ds.MRConfig{Mappers: mappers, Reducers: reducers, Machines: machines, SpillBytes: int64(spillMB) << 20}
	if directed {
		g, lm, err := ds.ReadDirectedFile(in, workers)
		if err != nil {
			return err
		}
		fmt.Printf("graph: %d nodes, %d directed edges\n", g.NumNodes(), g.NumEdges())
		return runDirected(g, lm, algo, eps, c, delta, workers, mrCfg, trace, members)
	}
	g, lm, err := ds.ReadUndirectedFile(in, weighted, workers)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())
	return runUndirected(g, lm, algo, eps, k, workers, mrCfg, trace, members)
}

// undirectedProblem maps an undirected -algo onto an Objective/Backend
// pair (peel picks the weighted objective when the graph carries
// weights).
func undirectedProblem(g *ds.UndirectedGraph, algo string, eps float64, k int) (ds.Problem, error) {
	p := ds.Problem{Graph: g, Eps: eps}
	switch algo {
	case "peel":
		p.Objective = ds.ObjectiveUndirected
		if g.Weighted() {
			p.Objective = ds.ObjectiveWeighted
		}
	case "greedy":
		p.Objective = ds.ObjectiveGreedy
	case "exact":
		p.Objective = ds.ObjectiveExact
	case "atleastk":
		if k < 1 {
			return p, fmt.Errorf("-algo atleastk needs -k >= 1")
		}
		p.Objective = ds.ObjectiveAtLeastK
		p.K = k
	case "mr":
		p.Objective = ds.ObjectiveUndirected
		p.Backend = ds.BackendMapReduce
	default:
		return p, fmt.Errorf("unknown undirected algorithm %q", algo)
	}
	return p, nil
}

func runUndirected(g *ds.UndirectedGraph, lm *ds.LabelMap, algo string, eps float64, k, workers int, mrCfg ds.MRConfig, trace, members bool) error {
	p, err := undirectedProblem(g, algo, eps, k)
	if err != nil {
		return err
	}
	sol, err := ds.Solve(context.Background(), p,
		ds.WithWorkers(workers),
		ds.WithMapReduceConfig(mrCfg))
	if err != nil {
		return err
	}
	if sol.Objective == ds.ObjectiveExact {
		fmt.Printf("exact density = %d/%d\n", sol.ExactNumer, sol.ExactDenom)
	}
	fmt.Printf("density ρ(S̃) = %.4f  |S̃| = %d  passes = %d\n", sol.Density, len(sol.Set), sol.Passes)
	if sol.Stats.BytesSpilled > 0 {
		fmt.Printf("spilled %.1f MiB to disk under the %d MiB budget\n",
			float64(sol.Stats.BytesSpilled)/(1<<20), mrCfg.SpillBytes>>20)
	}
	if trace {
		if sol.Backend == ds.BackendMapReduce {
			for _, rd := range sol.MRRounds {
				fmt.Printf("  pass %2d: |S|=%8d |E|=%10d ρ=%9.3f wall=%s shuffle=%d\n",
					rd.Pass, rd.Nodes, rd.Edges, rd.Density, rd.Wall, rd.Shuffle)
			}
		} else {
			printTrace(sol.Trace, true)
		}
	}
	if members {
		printMembers("S", sol.Set, lm)
	}
	return nil
}

func runDirected(g *ds.DirectedGraph, lm *ds.LabelMap, algo string, eps, c, delta float64, workers int, mrCfg ds.MRConfig, trace, members bool) error {
	p := ds.Problem{Directed: g, Eps: eps}
	switch algo {
	case "peel":
		p.Objective = ds.ObjectiveDirected
		p.C = c
	case "sweep":
		p.Objective = ds.ObjectiveDirectedSweep
		p.Delta = delta
	case "mr":
		p.Objective = ds.ObjectiveDirected
		p.Backend = ds.BackendMapReduce
		p.C = c
	default:
		return fmt.Errorf("unknown directed algorithm %q", algo)
	}
	sol, err := ds.Solve(context.Background(), p,
		ds.WithWorkers(workers),
		ds.WithMapReduceConfig(mrCfg))
	if err != nil {
		return err
	}
	if sol.Stats.BytesSpilled > 0 {
		fmt.Printf("spilled %.1f MiB to disk under the %d MiB budget\n",
			float64(sol.Stats.BytesSpilled)/(1<<20), mrCfg.SpillBytes>>20)
	}
	if sol.Objective == ds.ObjectiveDirectedSweep {
		fmt.Printf("best c = %.6g\n", sol.Sweep.BestC)
		for _, pt := range sol.Sweep.Points {
			fmt.Printf("  c=%-12.6g ρ=%9.3f passes=%d\n", pt.C, pt.Density, pt.Passes)
		}
	}
	fmt.Printf("density ρ(S̃,T̃) = %.4f  |S̃| = %d  |T̃| = %d  passes = %d\n",
		sol.Density, len(sol.S), len(sol.T), sol.Passes)
	if trace {
		if sol.Backend == ds.BackendMapReduce {
			for _, rd := range sol.MRDirectedRounds {
				fmt.Printf("  pass %2d [%c]: |S|=%7d |T|=%7d |E|=%9d ρ=%8.3f wall=%s\n",
					rd.Pass, rd.PeeledSide, rd.SizeS, rd.SizeT, rd.Edges, rd.Density, rd.Wall)
			}
		} else {
			for _, pt := range sol.DirectedTrace {
				fmt.Printf("  pass %2d [%c]: |S|=%7d |T|=%7d |E|=%9d ρ=%8.3f\n",
					pt.Pass, pt.PeeledSide, pt.SizeS, pt.SizeT, pt.Edges, pt.Density)
			}
		}
	}
	if members {
		printMembers("S", sol.S, lm)
		printMembers("T", sol.T, lm)
	}
	return nil
}

func printMembers(name string, set []int32, lm *ds.LabelMap) {
	fmt.Printf("%s:", name)
	for _, u := range set {
		fmt.Printf(" %s", lm.Label(u))
	}
	fmt.Println()
}
