// Command selfcheck cross-validates the Solve backends on randomized
// workloads. It is the repository's fuzz-style acceptance gate — run it
// after any change to the peeling logic. Each round runs seven checks:
//
//   - undirected models agree: Algorithm 1 on BackendPeel,
//     BackendStream and BackendMapReduce returns the same density,
//     pass count and set;
//   - undirected guarantee vs exact: Algorithm 1 at ε ∈ {0, 0.5, 1.5}
//     lies within [ρ*/(2+2ε), ρ*] of ObjectiveExact's optimum ρ*;
//   - atleastk models agree: Algorithm 2 returns at least k nodes, and
//     the same set and density on all three backends;
//   - directed models agree: Algorithm 3 at c ∈ {0.5, 1, 2} returns the
//     same (S, T) and density on all three backends;
//   - directed guarantee vs brute force: the DirectedSweep density on a
//     tiny graph is positive and at most |E|;
//   - greedy is 2-approx: the greedy peel lies within [ρ*/2, ρ*], and
//     the best k-core is no denser than ρ*;
//   - weighted streaming agrees: weighted Algorithm 1 on BackendPeel and
//     BackendStream returns the same density and pass count.
//
// Usage:
//
//	selfcheck [-rounds 50] [-seed 1] [-maxnodes 60] [-v]
//
// Exits non-zero on the first discrepancy, printing the seed that
// triggered it so the failure can be replayed.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"

	ds "densestream"
)

// solve routes every check through the unified front door — selfcheck
// exercises the same entry point the CLI and daemon use.
func solve(p ds.Problem, opts ...ds.Option) (*ds.Solution, error) {
	return ds.Solve(context.Background(), p, opts...)
}

// smallMR is the cluster shape used by the MapReduce cross-checks.
func smallMR() ds.Option {
	return ds.WithMapReduceConfig(ds.MRConfig{Mappers: 3, Reducers: 2, Machines: 2})
}

func main() {
	var (
		rounds   = flag.Int("rounds", 50, "number of random graphs per check")
		seed     = flag.Int64("seed", 1, "base seed")
		maxNodes = flag.Int("maxnodes", 60, "maximum graph size")
		verbose  = flag.Bool("v", false, "print per-round progress")
	)
	flag.Parse()
	if err := runAll(*rounds, *seed, *maxNodes, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "selfcheck: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("selfcheck: all checks passed")
}

func runAll(rounds int, seed int64, maxNodes int, verbose bool) error {
	checks := []struct {
		name string
		fn   func(seed int64, maxNodes int) error
	}{
		{"undirected models agree", checkUndirectedModels},
		{"undirected guarantee vs exact", checkUndirectedGuarantee},
		{"atleastk models agree", checkAtLeastKModels},
		{"directed models agree", checkDirectedModels},
		{"directed guarantee vs brute force", checkDirectedGuarantee},
		{"greedy is 2-approx", checkGreedy},
		{"weighted streaming agrees", checkWeighted},
	}
	for _, c := range checks {
		for r := 0; r < rounds; r++ {
			s := seed + int64(r)*7919
			if err := c.fn(s, maxNodes); err != nil {
				return fmt.Errorf("%s (seed %d): %w", c.name, s, err)
			}
		}
		if verbose {
			fmt.Printf("ok  %-38s %d rounds\n", c.name, rounds)
		}
	}
	return nil
}

func randomGraph(seed int64, maxNodes int) (*ds.UndirectedGraph, error) {
	rng := rand.New(rand.NewSource(seed))
	n := 5 + rng.Intn(maxNodes-4)
	m := int64(1 + rng.Intn(4*n))
	if maxM := int64(n) * int64(n-1) / 2; m > maxM {
		m = maxM
	}
	return ds.GenerateGnm(n, m, seed)
}

func sameSet(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]int32(nil), a...)
	bs := append([]int32(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func checkUndirectedModels(seed int64, maxNodes int) error {
	g, err := randomGraph(seed, maxNodes)
	if err != nil {
		return err
	}
	eps := float64(seed%5) / 2 // 0, 0.5, 1, 1.5, 2
	mem, err := solve(ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendPeel, Eps: eps, Graph: g})
	if err != nil {
		return err
	}
	st, err := solve(ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendStream, Eps: eps, Edges: ds.StreamGraph(g)})
	if err != nil {
		return err
	}
	mr, err := solve(ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendMapReduce, Eps: eps, Graph: g}, smallMR())
	if err != nil {
		return err
	}
	if math.Abs(mem.Density-st.Density) > 1e-9 || mem.Passes != st.Passes || !sameSet(mem.Set, st.Set) {
		return fmt.Errorf("streaming diverged: %v/%d vs %v/%d", mem.Density, mem.Passes, st.Density, st.Passes)
	}
	if math.Abs(mem.Density-mr.Density) > 1e-9 || mem.Passes != mr.Passes || !sameSet(mem.Set, mr.Set) {
		return fmt.Errorf("mapreduce diverged: %v/%d vs %v/%d", mem.Density, mem.Passes, mr.Density, mr.Passes)
	}
	return nil
}

func checkUndirectedGuarantee(seed int64, maxNodes int) error {
	g, err := randomGraph(seed, maxNodes)
	if err != nil {
		return err
	}
	exact, err := solve(ds.Problem{Objective: ds.ObjectiveExact, Graph: g})
	if err != nil {
		return err
	}
	for _, eps := range []float64{0, 0.5, 1.5} {
		r, err := solve(ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendPeel, Eps: eps, Graph: g})
		if err != nil {
			return err
		}
		if r.Density > exact.Density+1e-9 {
			return fmt.Errorf("eps=%v: approximation %v beats optimum %v", eps, r.Density, exact.Density)
		}
		if r.Density < exact.Density/(2+2*eps)-1e-9 {
			return fmt.Errorf("eps=%v: %v below guarantee %v", eps, r.Density, exact.Density/(2+2*eps))
		}
	}
	return nil
}

func checkAtLeastKModels(seed int64, maxNodes int) error {
	g, err := randomGraph(seed, maxNodes)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	k := 1 + rng.Intn(g.NumNodes()/2+1)
	mem, err := solve(ds.Problem{Objective: ds.ObjectiveAtLeastK, Backend: ds.BackendPeel, Eps: 0.5, K: k, Graph: g})
	if err != nil {
		return err
	}
	st, err := solve(ds.Problem{Objective: ds.ObjectiveAtLeastK, Backend: ds.BackendStream, Eps: 0.5, K: k, Edges: ds.StreamGraph(g)})
	if err != nil {
		return err
	}
	mr, err := solve(ds.Problem{Objective: ds.ObjectiveAtLeastK, Backend: ds.BackendMapReduce, Eps: 0.5, K: k, Graph: g}, smallMR())
	if err != nil {
		return err
	}
	if len(mem.Set) < k {
		return fmt.Errorf("size guarantee violated: %d < %d", len(mem.Set), k)
	}
	if math.Abs(mem.Density-st.Density) > 1e-9 || !sameSet(mem.Set, st.Set) {
		return fmt.Errorf("streaming AtLeastK diverged")
	}
	if math.Abs(mem.Density-mr.Density) > 1e-9 || !sameSet(mem.Set, mr.Set) {
		return fmt.Errorf("mapreduce AtLeastK diverged")
	}
	return nil
}

func checkDirectedModels(seed int64, maxNodes int) error {
	rng := rand.New(rand.NewSource(seed))
	n := 5 + rng.Intn(maxNodes-4)
	g, err := ds.GenerateChungLuDirected(n, int64(3*n), 2.2, seed)
	if err != nil {
		return err
	}
	for _, c := range []float64{0.5, 1, 2} {
		mem, err := solve(ds.Problem{Objective: ds.ObjectiveDirected, Backend: ds.BackendPeel, Eps: 0.5, C: c, Directed: g})
		if err != nil {
			return err
		}
		st, err := solve(ds.Problem{Objective: ds.ObjectiveDirected, Backend: ds.BackendStream, Eps: 0.5, C: c, Edges: ds.StreamDirectedGraph(g)})
		if err != nil {
			return err
		}
		mr, err := solve(ds.Problem{Objective: ds.ObjectiveDirected, Backend: ds.BackendMapReduce, Eps: 0.5, C: c, Directed: g}, smallMR())
		if err != nil {
			return err
		}
		if math.Abs(mem.Density-st.Density) > 1e-9 || !sameSet(mem.S, st.S) || !sameSet(mem.T, st.T) {
			return fmt.Errorf("c=%v: streaming directed diverged", c)
		}
		if math.Abs(mem.Density-mr.Density) > 1e-9 || !sameSet(mem.S, mr.S) || !sameSet(mem.T, mr.T) {
			return fmt.Errorf("c=%v: mapreduce directed diverged", c)
		}
	}
	return nil
}

func checkDirectedGuarantee(seed int64, _ int) error {
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(5)
	g, err := ds.GenerateChungLuDirected(n, int64(2*n), 2.2, seed)
	if err != nil {
		return err
	}
	if g.NumEdges() == 0 {
		return nil
	}
	sw, err := solve(ds.Problem{Objective: ds.ObjectiveDirectedSweep, Eps: 0.5, Delta: 1.5, Directed: g})
	if err != nil {
		return err
	}
	// The sweep's best must be positive and no better than the trivial
	// upper bound |E| (ρ(S,T) ≤ |E|/1).
	if sw.Density <= 0 || sw.Density > float64(g.NumEdges())+1e-9 {
		return fmt.Errorf("sweep density %v out of range", sw.Density)
	}
	return nil
}

func checkGreedy(seed int64, maxNodes int) error {
	g, err := randomGraph(seed, maxNodes)
	if err != nil {
		return err
	}
	exact, err := solve(ds.Problem{Objective: ds.ObjectiveExact, Graph: g})
	if err != nil {
		return err
	}
	gr, err := solve(ds.Problem{Objective: ds.ObjectiveGreedy, Graph: g})
	if err != nil {
		return err
	}
	if gr.Density < exact.Density/2-1e-9 || gr.Density > exact.Density+1e-9 {
		return fmt.Errorf("greedy %v outside [ρ*/2, ρ*] = [%v, %v]", gr.Density, exact.Density/2, exact.Density)
	}
	_, coreD, err := ds.BestCore(g)
	if err != nil {
		return err
	}
	if coreD > exact.Density+1e-9 {
		return fmt.Errorf("best core %v beats optimum %v", coreD, exact.Density)
	}
	return nil
}

func checkWeighted(seed int64, maxNodes int) error {
	g, err := randomGraph(seed, maxNodes)
	if err != nil {
		return err
	}
	mem, err := solve(ds.Problem{Objective: ds.ObjectiveWeighted, Backend: ds.BackendPeel, Eps: 0.5, Graph: g})
	if err != nil {
		return err
	}
	st, err := solve(ds.Problem{Objective: ds.ObjectiveWeighted, Backend: ds.BackendStream, Eps: 0.5, WeightedEdges: ds.StreamWeightedGraph(g)})
	if err != nil {
		return err
	}
	if math.Abs(mem.Density-st.Density) > 1e-9 || mem.Passes != st.Passes {
		return fmt.Errorf("weighted streaming diverged: %v/%d vs %v/%d",
			mem.Density, mem.Passes, st.Density, st.Passes)
	}
	return nil
}
