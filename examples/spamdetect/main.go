// Link-spam detection (application 3 of the paper's introduction): dense
// subgraphs of the web graph often correspond to link farms — many
// supporter pages all linking to a few boosted targets. Run the directed
// densest-subgraph sweep and check that it recovers a planted farm.
package main

import (
	"context"
	"fmt"
	"log"

	ds "densestream"
)

func main() {
	// Skewed R-MAT web graph with a planted farm: 400 supporters all
	// linking to 8 boosted pages, plus some supporter-to-supporter links.
	// The farm's S→T block (density 3200/√3200 ≈ 57) out-densifies the
	// natural R-MAT core (≈ 45 here), which is what makes farms stand out.
	g, farm, targets, err := ds.GenerateLinkFarm(13, 60000, 400, 8, 0.02, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("web graph: %d pages, %d links\n", g.NumNodes(), g.NumEdges())
	fmt.Printf("planted farm: %d supporters -> %d targets\n\n", len(farm), len(targets))

	sol, err := ds.Solve(context.Background(), ds.Problem{Objective: ds.ObjectiveDirectedSweep, Delta: 2, Eps: 0.5, Directed: g})
	if err != nil {
		log.Fatal(err)
	}
	sweep := sol.Sweep
	fmt.Printf("sweep found ρ(S,T) = %.2f at c = %.4g  (|S| = %d, |T| = %d)\n",
		sweep.Best.Density, sweep.BestC, len(sweep.Best.S), len(sweep.Best.T))

	inFarm := make(map[int32]bool, len(farm))
	for _, u := range farm {
		inFarm[u] = true
	}
	inTargets := make(map[int32]bool, len(targets))
	for _, u := range targets {
		inTargets[u] = true
	}
	var sHits, tHits int
	for _, u := range sweep.Best.S {
		if inFarm[u] {
			sHits++
		}
	}
	for _, u := range sweep.Best.T {
		if inTargets[u] {
			tHits++
		}
	}
	fmt.Printf("recovered %d/%d supporters in S and %d/%d targets in T\n",
		sHits, len(farm), tHits, len(targets))
	fmt.Println("\nper-c sweep profile (density spikes where the farm's shape matches c):")
	for _, p := range sweep.Points {
		marker := ""
		if p.C == sweep.BestC {
			marker = "  <- best"
		}
		fmt.Printf("  c=%-12.4g ρ=%8.3f passes=%d%s\n", p.C, p.Density, p.Passes, marker)
	}
}
