package core

import (
	"fmt"
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
// ε=0.1 the large graph's unweighted peel compacts twice and its
// densest snapshot comes after the second rebuild, so a composed
// origOf that overwrote the map it read from would show in the Set.

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

func TestPeelStateReuse(t *testing.T) {
	big, small, wbig, wsmall := reuseGraphs(t)
	// Starting small makes the second run grow every buffer; the mix
	// then alternates sizes and kinds so each run inherits a stranger's
	// scratch.
	seq := []reuseRun{
		{"undirected", small}, {"undirected", big}, {"atleastk", small},
		{"weighted", wbig}, {"weighted", wsmall}, {"atleastk", big},
		{"undirected", small}, {"weighted", big}, {"undirected", big},
		{"atleastk", small}, {"atleastk", big}, {"weighted", wsmall},
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
			got, err := r.solve(Opts{Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: recycled-state run diverged from the reference\ngot  %+v\nwant %+v",
					label, summarize(got), summarize(want))
			}
		}
	}
}
