package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"densestream/internal/gen"
	"densestream/internal/graph"
)

// Peel scratch is recycled across solves (statePool). This test runs
// solves back to back over graphs of different sizes and kinds, so
// every run inherits buffers sized and filled by a different
// predecessor — larger, smaller, weighted or not, compacted or not —
// and pins each result to the fresh-state reference engines. At
// ε=0.1 the layered graph's unweighted peel compacts twice and its
// densest snapshot comes after the second rebuild, so a composed
// origOf that overwrote the map it read from would show in the Set;
// the hooks assert that shape on every run of it.

// layeredGraph is a disjoint union of d-regular circulants under a
// seeded id permutation: 32768 nodes of degree 4, 4096 of degree 8,
// 512 of degree 16 and 64 of degree 32. At ε ≤ 0.5 the unweighted peel
// strips one level per pass. Each level holds at least three times the
// adjacency of all denser levels together, so the survivors' rows pass
// the row-volume test at passes 1 and 2 and the CSR is rebuilt twice;
// the densest snapshot, the degree-32 level alone, follows at pass 3.
func layeredGraph(t *testing.T) *graph.Undirected {
	t.Helper()
	levels := []struct{ n, d int }{{32768, 4}, {4096, 8}, {512, 16}, {64, 32}}
	total := 0
	for _, l := range levels {
		total += l.n
	}
	perm := rand.New(rand.NewSource(11)).Perm(total)
	b := graph.NewBuilder(total)
	base := 0
	for _, l := range levels {
		for i := 0; i < l.n; i++ {
			for k := 1; k <= l.d/2; k++ {
				if err := b.AddEdge(int32(perm[base+i]), int32(perm[base+(i+k)%l.n])); err != nil {
					t.Fatal(err)
				}
			}
		}
		base += l.n
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// reuseGraphs returns a large and a small Chung–Lu graph, each also
// with deterministic non-unit weights.
func reuseGraphs(t *testing.T) (big, small, wbig, wsmall *graph.Undirected) {
	t.Helper()
	var err error
	if big, err = gen.ChungLu(20000, 100000, 2.2, 3); err != nil {
		t.Fatal(err)
	}
	if small, err = gen.ChungLu(1500, 6000, 2.2, 5); err != nil {
		t.Fatal(err)
	}
	return big, small, withWeights(t, big), withWeights(t, small)
}

func withWeights(t *testing.T, base *graph.Undirected) *graph.Undirected {
	t.Helper()
	b := graph.NewBuilder(base.NumNodes())
	var err error
	base.Edges(func(u, v int32, _ float64) bool {
		err = b.AddWeightedEdge(u, v, 0.5+float64((u+3*v)%7))
		return err == nil
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// reuseRun is one solve of the sequence: an objective on a graph.
type reuseRun struct {
	kind string // "undirected", "atleastk" or "weighted"
	g    *graph.Undirected
}

func (r reuseRun) solve(o Opts) (*Result, error) {
	switch r.kind {
	case "undirected":
		return UndirectedOpts(r.g, 0.1, o)
	case "atleastk":
		return AtLeastKOpts(r.g, r.g.NumNodes()/8, 0.5, o)
	default:
		return UndirectedWeightedOpts(r.g, 0.3, o)
	}
}

func (r reuseRun) reference() (*Result, error) {
	o := Opts{Workers: 1}
	switch r.kind {
	case "undirected":
		return referenceUndirected(r.g, 0.1, o)
	case "atleastk":
		return referenceAtLeastK(r.g, r.g.NumNodes()/8, 0.5, o)
	default:
		return referenceUndirectedWeighted(r.g, 0.3, o)
	}
}

// densestPass returns the pass of r's densest snapshot: the first trace
// entry that reaches r.Density.
func densestPass(r *Result) int {
	for i, ps := range r.Trace {
		if ps.Density == r.Density {
			return i
		}
	}
	return -1
}

func TestPeelStateReuse(t *testing.T) {
	big, small, wbig, wsmall := reuseGraphs(t)
	layered := layeredGraph(t)
	// Starting small makes the second run grow every buffer; the mix
	// then alternates sizes and kinds so each run inherits a stranger's
	// scratch.
	seq := []reuseRun{
		{"undirected", small}, {"undirected", big}, {"undirected", layered},
		{"atleastk", small}, {"weighted", wbig}, {"weighted", wsmall},
		{"atleastk", big}, {"undirected", layered}, {"undirected", small},
		{"weighted", big}, {"undirected", big}, {"atleastk", small},
		{"atleastk", layered}, {"atleastk", big}, {"weighted", wsmall},
	}
	refs := map[reuseRun]*Result{}
	for i, r := range seq {
		want, ok := refs[r]
		if !ok {
			var err error
			if want, err = r.reference(); err != nil {
				t.Fatal(err)
			}
			refs[r] = want
		}
		for _, workers := range []int{1, 3} {
			label := fmt.Sprintf("step %d (%s n=%d) workers=%d", i, r.kind, r.g.NumNodes(), workers)
			var pass int
			var rebuilt []int // passes whose decrement rebuilt the CSR
			got, err := r.solve(Opts{Workers: workers, hooks: peelHooks{
				mode:      func(p int, _ bool) { pass = p },
				compacted: func(_, _ int) { rebuilt = append(rebuilt, pass) },
			}})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: recycled-state run diverged from the reference\ngot  %+v\nwant %+v",
					label, summarize(got), summarize(want))
			}
			if r == (reuseRun{"undirected", layered}) {
				if best := densestPass(got); len(rebuilt) < 2 || best <= rebuilt[1] {
					t.Fatalf("%s: CSR rebuilt at passes %v, densest snapshot at pass %d; need the densest snapshot after a second rebuild",
						label, rebuilt, best)
				}
			}
		}
	}
}
