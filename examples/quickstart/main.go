// Quickstart: build a small graph, find its densest subgraph three ways
// (exact, greedy, multi-pass peeling), and compare.
package main

import (
	"context"
	"fmt"
	"log"

	ds "densestream"
)

func main() {
	// A collaboration network in miniature: a tight 6-person clique, a
	// looser 8-person group, and a chain of casual acquaintances.
	b := ds.NewBuilder(30)
	clique := []int32{0, 1, 2, 3, 4, 5}
	for i := 0; i < len(clique); i++ {
		for j := i + 1; j < len(clique); j++ {
			must(b.AddEdge(clique[i], clique[j]))
		}
	}
	group := []int32{6, 7, 8, 9, 10, 11, 12, 13}
	for i := 0; i < len(group); i++ {
		for j := i + 1; j < len(group); j++ {
			if (i+j)%3 != 0 { // drop a third of the pairs
				must(b.AddEdge(group[i], group[j]))
			}
		}
	}
	for i := 13; i < 29; i++ {
		must(b.AddEdge(int32(i), int32(i+1)))
	}
	g, err := b.Freeze()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d nodes, %d edges, overall density %.3f\n\n",
		g.NumNodes(), g.NumEdges(), g.Density())

	// Every algorithm runs through Solve: the Problem names the
	// objective, the backend, and the input.
	ctx := context.Background()

	// Ground truth via the flow-based exact solver.
	exact, err := ds.Solve(ctx, ds.Problem{Objective: ds.ObjectiveExact, Graph: g})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact:   ρ* = %.4f  (= %d/%d)  |S| = %d  flow calls = %d\n",
		exact.Density, exact.ExactNumer, exact.ExactDenom, len(exact.Set), exact.Passes)

	// Charikar's greedy: one minimum-degree node at a time.
	greedy, err := ds.Solve(ctx, ds.Problem{Objective: ds.ObjectiveGreedy, Graph: g})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("greedy:  ρ  = %.4f  |S| = %d  (2-approximation)\n",
		greedy.Density, len(greedy.Set))

	// The paper's Algorithm 1: batched peeling, few passes.
	for _, eps := range []float64{0, 0.5, 1} {
		r, err := ds.Solve(ctx, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendPeel, Eps: eps, Graph: g})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("peel ε=%.1f: ρ = %.4f  |S| = %d  passes = %d  (guarantee: ≥ ρ*/%.1f)\n",
			eps, r.Density, len(r.Set), r.Passes, 2+2*eps)
	}

	fmt.Println("\nmembers of the exact densest subgraph:", exact.Set)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
