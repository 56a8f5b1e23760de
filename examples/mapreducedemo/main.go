// MapReduce demo: run Algorithm 1 as a sequence of MapReduce rounds
// (§5.2) on a simulated cluster and print the per-pass wall-clock and
// shuffle profile — the laptop-scale analogue of the paper's Figure 6.7.
// The cluster shape (mappers/reducers per machine, machine count, the
// degree-job combiner) is set with WithMapReduceConfig; every shape
// returns bit-identical results, so the sweep below only moves the
// wall-clock and the per-machine shuffle attribution.
package main

import (
	"context"
	"fmt"
	"log"

	ds "densestream"
)

func main() {
	g, err := ds.GenerateChungLu(60000, 500000, 2.2, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())
	ctx := context.Background()
	mapReduce := func(eps float64) ds.Problem {
		return ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendMapReduce, Eps: eps, Graph: g}
	}

	for _, eps := range []float64{0, 1, 2} {
		cfg := ds.MRConfig{Mappers: 8, Reducers: 8, Machines: 1}
		r, err := ds.Solve(ctx, mapReduce(eps), ds.WithMapReduceConfig(cfg))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nε = %v: ρ = %.3f, |S̃| = %d, %d passes (3 MR jobs per pass)\n",
			eps, r.Density, len(r.Set), r.Passes)
		fmt.Println("  pass    |S|        |E|        ρ       wall      shuffle     shuffleMB")
		for _, rd := range r.MRRounds {
			fmt.Printf("  %4d %8d %10d %8.3f %10s %12d %12.2f\n",
				rd.Pass, rd.Nodes, rd.Edges, rd.Density, rd.Wall.Round(1000),
				rd.Shuffle, float64(rd.ShuffleBytes)/(1<<20))
		}
	}

	// Scale the simulated cluster: more machines change nothing about
	// the result, but the first round's shuffle volume spreads across
	// them (Figure 6.7 across cluster sizes).
	fmt.Println("\ncluster-size sweep at ε=1 (first-round shuffle per machine):")
	for _, machines := range []int{1, 2, 4} {
		cfg := ds.MRConfig{Mappers: 4, Reducers: 4, Machines: machines, Combine: true}
		r, err := ds.Solve(ctx, mapReduce(1), ds.WithMapReduceConfig(cfg))
		if err != nil {
			log.Fatal(err)
		}
		first := r.MRRounds[0]
		fmt.Printf("  machines=%d: wall=%s, total shuffle=%d recs, per machine:",
			machines, first.Wall.Round(1000), first.Shuffle)
		for m, ms := range first.PerMachine {
			fmt.Printf(" m%d=%d", m, ms.ShuffleRecords)
		}
		fmt.Println()
	}

	// Cross-check: the distributed result matches the single-machine one.
	mem, err := ds.Solve(ctx, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendPeel, Eps: 1, Graph: g})
	if err != nil {
		log.Fatal(err)
	}
	mr, err := ds.Solve(ctx, mapReduce(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncross-check at ε=1: in-memory ρ = %.6f, MapReduce ρ = %.6f\n",
		mem.Density, mr.Density)
}
