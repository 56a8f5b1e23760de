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
// predecessor — larger, smaller, weighted or not, compacted or not,
// peeled on one side or on two — and pins each result to the
// fresh-state reference engines. The tiered weighted graph compacts
// twice and its densest snapshot comes after the second rebuild, so an
// origOf that did not compose through both relabels would show in the
// Set; the hooks assert that shape on every run of it. Directed runs
// follow each tiered run, and one-side peels follow them, so a state
// moves from one side to two and back.

// layeredGraph is a disjoint union of d-regular circulants under a
// seeded id permutation: 32768 nodes of degree 4, 4096 of degree 8,
// 512 of degree 16 and 64 of degree 32. At ε ≤ 0.5 the unweighted peel
// strips one level per pass, and the densest snapshot, the degree-32
// level alone, comes at pass 3.
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

// tieredWeightedGraph is a weighted two-tier hub graph under a seeded
// id permutation: a core of 128 nodes (a 16-regular circulant, weight
// 20), 24 child hubs on each core node (weight 2) and 24 unit-weight
// leaves on each child hub, 76,928 nodes in all. At ε ≤ 1 the weighted
// peel strips the leaves in pass 1 and the child hubs in pass 2, and
// each pass leaves survivors whose rows are mostly dead, so the CSR is
// compacted after both (live sets of 3,200, then 128). The densest
// snapshot is the core alone, at pass 2.
func tieredWeightedGraph(t *testing.T) *graph.Undirected {
	t.Helper()
	const core, hubs, leaves = 128, 24, 24
	n := core * (1 + hubs*(1+leaves))
	perm := rand.New(rand.NewSource(13)).Perm(n)
	b := graph.NewBuilder(n)
	add := func(u, v int, w float64) {
		if err := b.AddWeightedEdge(int32(perm[u]), int32(perm[v]), w); err != nil {
			t.Fatal(err)
		}
	}
	next := core
	for c := 0; c < core; c++ {
		for s := 1; s <= 8; s++ {
			add(c, (c+s)%core, 20)
		}
		for h := 0; h < hubs; h++ {
			hub := next
			add(c, hub, 2)
			for l := 1; l <= leaves; l++ {
				add(hub, hub+l, 1)
			}
			next += 1 + leaves
		}
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

// reuseDirectedGraphs returns the directed analogues of reuseGraphs'
// large and small graphs.
func reuseDirectedGraphs(t *testing.T) (big, small *graph.Directed) {
	t.Helper()
	var err error
	if big, err = gen.ChungLuDirected(20000, 100000, 2.2, 3); err != nil {
		t.Fatal(err)
	}
	if small, err = gen.ChungLuDirected(1500, 6000, 2.2, 5); err != nil {
		t.Fatal(err)
	}
	return big, small
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

// reuseRun is one solve of the sequence: an objective on an undirected
// graph g, or on a directed graph dg at ratio guess c.
type reuseRun struct {
	kind string // "undirected", "atleastk", "weighted", "directed" or "sweep"
	g    *graph.Undirected
	dg   *graph.Directed
	c    float64
}

func (r reuseRun) solve(o Opts) (any, error) {
	switch r.kind {
	case "undirected":
		return Undirected(r.g, 0.1, o)
	case "atleastk":
		return AtLeastK(r.g, r.g.NumNodes()/8, 0.5, o)
	case "directed":
		return Directed(r.dg, r.c, 0.3, o)
	case "sweep":
		return DirectedSweep(r.dg, 2, 1, o)
	default:
		return UndirectedWeighted(r.g, 0.3, o)
	}
}

func (r reuseRun) reference() (any, error) {
	o := Opts{Workers: 1}
	switch r.kind {
	case "undirected":
		return referenceUndirected(r.g, 0.1, o)
	case "atleastk":
		return referenceAtLeastK(r.g, r.g.NumNodes()/8, 0.5, o)
	case "directed":
		return referenceDirected(r.dg, r.c, 0.3, o)
	case "sweep":
		return Sweep(r.dg.NumNodes(), 2, func(c float64) (*DirectedResult, error) {
			return referenceDirected(r.dg, c, 1, o)
		})
	default:
		return referenceUndirectedWeighted(r.g, 0.3, o)
	}
}

// label names the run's objective and graph size.
func (r reuseRun) label() string {
	if r.dg != nil {
		return fmt.Sprintf("%s c=%g n=%d", r.kind, r.c, r.dg.NumNodes())
	}
	return fmt.Sprintf("%s n=%d", r.kind, r.g.NumNodes())
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
	dbig, dsmall := reuseDirectedGraphs(t)
	layered, tiered := layeredGraph(t), tieredWeightedGraph(t)
	// Starting small makes the second run grow every buffer; the mix
	// then alternates sizes and kinds so each run inherits a stranger's
	// scratch.
	seq := []reuseRun{
		{kind: "undirected", g: small}, {kind: "undirected", g: big}, {kind: "undirected", g: layered},
		{kind: "atleastk", g: small}, {kind: "weighted", g: wbig}, {kind: "weighted", g: wsmall},
		{kind: "atleastk", g: big}, {kind: "undirected", g: layered}, {kind: "undirected", g: small},
		{kind: "weighted", g: big}, {kind: "undirected", g: big}, {kind: "atleastk", g: small},
		{kind: "atleastk", g: layered}, {kind: "weighted", g: tiered},
		{kind: "directed", dg: dbig, c: 0.25}, {kind: "directed", dg: dsmall, c: 1},
		{kind: "directed", dg: dbig, c: 4}, {kind: "sweep", dg: dsmall},
		{kind: "atleastk", g: big}, {kind: "weighted", g: wsmall}, {kind: "weighted", g: tiered},
		{kind: "directed", dg: dsmall, c: 0.25}, {kind: "directed", dg: dbig, c: 1},
		{kind: "directed", dg: dsmall, c: 4}, {kind: "undirected", g: small},
		{kind: "atleastk", g: layered},
	}
	refs := map[reuseRun]any{}
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
			label := fmt.Sprintf("step %d (%s) workers=%d", i, r.label(), workers)
			var pass int
			var rebuilt []int // passes after which the CSR was rebuilt
			got, err := r.solve(Opts{
				Workers:  workers,
				Progress: func(ps PassStat) bool { pass = ps.Pass + 1; return true },
				hooks:    peelHooks{compacted: func(_, _ int) { rebuilt = append(rebuilt, pass) }},
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(got, want) {
				if g, ok := got.(*Result); ok {
					t.Fatalf("%s: recycled-state run diverged from the reference\ngot  %+v\nwant %+v",
						label, summarize(g), summarize(want.(*Result)))
				}
				t.Fatalf("%s: recycled-state run diverged from the reference", label)
			}
			if r.g == tiered {
				if best := densestPass(got.(*Result)); len(rebuilt) < 2 || best < rebuilt[1] {
					t.Fatalf("%s: CSR rebuilt after passes %v, densest snapshot at pass %d; need the densest snapshot to follow a second rebuild",
						label, rebuilt, best)
				}
			}
		}
	}
}
