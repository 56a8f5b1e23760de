// Team formation: the paper cites Gajewar–Das Sarma's use of densest
// subgraphs with size constraints to assemble effective working groups
// (§2: "decide what subset of people would form the most effective
// working group"). Model collaboration strength as an undirected graph
// and use Algorithm 2 (AtLeastK) to find the best team of a required
// minimum size — the unconstrained densest subgraph is a tight group
// that is too small to staff the project.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	ds "densestream"
)

// team describes a planted group of colleagues with a given internal
// collaboration probability.
type team struct {
	name string
	size int
	p    float64
}

func main() {
	teams := []team{
		{"core-infra", 12, 1.00}, // a 12-person clique: density 5.5
		{"search", 25, 0.30},     // density ≈ 3.6
		{"ads", 40, 0.25},        // density ≈ 4.9
		{"platform", 60, 0.15},   // density ≈ 4.4
	}
	const n = 400
	rng := rand.New(rand.NewSource(99))
	b := ds.NewBuilder(n)
	assign := make([]int, n) // -1 = unaffiliated
	for i := range assign {
		assign[i] = -1
	}
	base := 0
	for ti, tm := range teams {
		for i := 0; i < tm.size; i++ {
			assign[base+i] = ti
			for j := i + 1; j < tm.size; j++ {
				if rng.Float64() < tm.p {
					must(b.AddEdge(int32(base+i), int32(base+j)))
				}
			}
		}
		base += tm.size
	}
	// Loose company-wide background.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.004 {
				must(b.AddEdge(int32(i), int32(j)))
			}
		}
	}
	g, err := b.Freeze()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collaboration graph: %d people, %d collaboration pairs\n\n",
		g.NumNodes(), g.NumEdges())

	// Unconstrained: the densest subgraph is the tight 12-person clique —
	// great chemistry, but the project needs 30 engineers.
	ctx := context.Background()
	best, err := ds.Solve(ctx, ds.Problem{Objective: ds.ObjectiveGreedy, Graph: g})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unconstrained densest team: %2d people, density %.2f  (%s)\n",
		len(best.Set), best.Density, describe(best.Set, assign, teams))

	// Algorithm 2: insist on at least k people.
	for _, k := range []int{20, 30, 60} {
		r, err := ds.Solve(ctx, ds.Problem{Objective: ds.ObjectiveAtLeastK, Backend: ds.BackendPeel, K: k, Eps: 0.5, Graph: g})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("team of >= %2d:          %3d people, density %.2f, %d passes  (%s)\n",
			k, len(r.Set), r.Density, r.Passes, describe(r.Set, assign, teams))
	}

	// The same computation works when the collaboration graph only
	// exists as an edge stream.
	r, err := ds.Solve(ctx, ds.Problem{Objective: ds.ObjectiveAtLeastK, Backend: ds.BackendStream, K: 30, Eps: 0.5, Edges: ds.StreamGraph(g)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstreaming AtLeastK(30): %d people, density %.2f — identical to in-memory\n",
		len(r.Set), r.Density)
}

// describe reports which planted teams contribute members.
func describe(set []int32, assign []int, teams []team) string {
	votes := map[int]int{}
	for _, u := range set {
		votes[assign[u]]++
	}
	out := ""
	for ti, tm := range teams {
		if votes[ti] > 0 {
			if out != "" {
				out += ", "
			}
			out += fmt.Sprintf("%d/%d %s", votes[ti], tm.size, tm.name)
		}
	}
	if votes[-1] > 0 {
		if out != "" {
			out += ", "
		}
		out += fmt.Sprintf("%d unaffiliated", votes[-1])
	}
	return out
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
