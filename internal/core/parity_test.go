package core

import (
	"fmt"
	"reflect"
	"testing"

	"densestream/internal/gen"
	"densestream/internal/graph"
)

// The layout parity sweep: the cache-blocked engines (live-vertex
// frontier, adaptive push/pull, the weighted engine's CSR compaction)
// must be reflect.DeepEqual to the preserved pre-layout reference
// implementations — set, density, passes, and full trace — across
// Chung-Lu and RMAT graphs, all four objectives, workers 1–8, and ε
// values forcing both tiny (push) and huge (pull) removal batches. The
// hooks additionally prove that each decrement direction and the
// weighted compactor actually ran somewhere in the sweep, so the
// equality is over the interesting paths, not around them.

// parityEps spans tiny batches (0: minimum removals, many passes),
// moderate, and huge batches (3: near-total removals).
var parityEps = []float64{0, 0.3, 3}

type parityCounters struct {
	push, pull, compactions int
}

func (pc *parityCounters) opts(workers int) Opts {
	return Opts{
		Workers: workers,
		hooks: peelHooks{
			mode: func(_ int, pull bool) {
				if pull {
					pc.pull++
				} else {
					pc.push++
				}
			},
			compacted: func(_, _ int) { pc.compactions++ },
		},
	}
}

// parityGraphs returns the undirected sweep inputs: a Chung-Lu
// power-law graph and a symmetrized RMAT graph, both comfortably above
// the weighted engine's compaction floor.
func parityGraphs(t *testing.T) map[string]*graph.Undirected {
	t.Helper()
	cl, err := gen.ChungLu(3000, 15000, 2.2, 41)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := rmatUndirectedT(11, 12000, 43)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Undirected{"chunglu": cl, "rmat": rm}
}

func rmatUndirectedT(scale int, m int64, seed int64) (*graph.Undirected, error) {
	return rmatUndirected(scale, m, seed)
}

func TestLayoutParityUndirected(t *testing.T) {
	var pc parityCounters
	for name, g := range parityGraphs(t) {
		for _, eps := range parityEps {
			want, err := referenceUndirected(g, eps, Opts{Workers: 1})
			if err != nil {
				t.Fatalf("%s eps=%g: reference: %v", name, eps, err)
			}
			for workers := 1; workers <= 8; workers++ {
				got, err := Undirected(g, eps, pc.opts(workers))
				if err != nil {
					t.Fatalf("%s eps=%g workers=%d: %v", name, eps, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s eps=%g workers=%d: layout engine diverged from reference\ngot  %+v\nwant %+v",
						name, eps, workers, summarize(got), summarize(want))
				}
			}
		}
	}
	if pc.push == 0 || pc.pull == 0 {
		t.Fatalf("sweep exercised push=%d pull=%d passes; need both directions", pc.push, pc.pull)
	}
}

func TestLayoutParityWeighted(t *testing.T) {
	var pc parityCounters
	for name, base := range parityGraphs(t) {
		// Deterministic non-unit weights over the same topology.
		b := graph.NewBuilder(base.NumNodes())
		werr := error(nil)
		base.Edges(func(u, v int32, _ float64) bool {
			werr = b.AddWeightedEdge(u, v, 0.5+float64((u+3*v)%7))
			return werr == nil
		})
		if werr != nil {
			t.Fatal(werr)
		}
		g, err := b.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range parityEps {
			want, err := referenceUndirectedWeighted(g, eps, Opts{Workers: 1})
			if err != nil {
				t.Fatalf("%s eps=%g: reference: %v", name, eps, err)
			}
			for workers := 1; workers <= 8; workers++ {
				got, err := UndirectedWeighted(g, eps, pc.opts(workers))
				if err != nil {
					t.Fatalf("%s eps=%g workers=%d: %v", name, eps, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s eps=%g workers=%d: weighted layout engine diverged\ngot  %+v\nwant %+v",
						name, eps, workers, summarize(got), summarize(want))
				}
			}
		}
		// The unweighted graph must also agree through the unit-weight path.
		want, err := referenceUndirectedWeighted(base, 0.5, Opts{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := UndirectedWeighted(base, 0.5, pc.opts(4))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: unit-weight parity failed", name)
		}
	}

	// Weighted compaction needs survivors with decayed rows (see
	// maybeCompactWeighted); the power-law sweeps above leave dense
	// cores whose rows stay live, so drive the hub-and-leaves shape
	// that does trigger it.
	g := starHeavyWeighted(t)
	want, err := referenceUndirectedWeighted(g, 0.1, Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for workers := 1; workers <= 8; workers++ {
		got, err := UndirectedWeighted(g, 0.1, pc.opts(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("slow-peel workers=%d: weighted layout engine diverged\ngot  %+v\nwant %+v",
				workers, summarize(got), summarize(want))
		}
	}
	if pc.compactions == 0 {
		t.Fatal("weighted sweep never compacted a CSR")
	}
}

// starHeavyWeighted builds the hub-and-leaves shape whose first pass
// strands hubs with mostly-dead rows: 64 hubs in a dense weighted core
// (a 16-regular circulant with varied weights) each carrying 48
// unit-weight leaves. The leaves die in pass one, the surviving core
// is under a quarter of the graph, and its rows are over half dead —
// exactly the weighted compaction trigger.
func starHeavyWeighted(t *testing.T) *graph.Undirected {
	t.Helper()
	const hubs, leaves = 64, 48
	n := hubs * (1 + leaves)
	b := graph.NewBuilder(n)
	add := func(u, v int32, w float64) {
		if err := b.AddWeightedEdge(u, v, w); err != nil {
			t.Fatal(err)
		}
	}
	for h := 0; h < hubs; h++ {
		for s := 1; s <= 8; s++ {
			add(int32(h), int32((h+s)%hubs), 2+float64((h+s)%5))
		}
		for l := 0; l < leaves; l++ {
			add(int32(h), int32(hubs+h*leaves+l), 1)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLayoutParityAtLeastK(t *testing.T) {
	var pc parityCounters
	graphs := parityGraphs(t)
	// Every node of a circulant has one degree, so the first pass's
	// quota splits a single tie bucket by id.
	circ, err := gen.Circulant(2048, 6)
	if err != nil {
		t.Fatal(err)
	}
	graphs["circulant"] = circ
	for name, g := range graphs {
		// ε=0 means a one-node quota per pass — thousands of O(n)
		// reference passes — so the tiny-batch end uses a small
		// positive ε instead; AtLeastK batches are quota-capped and
		// exercise the push direction at every ε.
		for _, eps := range []float64{0.1, 0.5, 3} {
			for _, k := range []int{2, g.NumNodes() / 4} {
				want, err := referenceAtLeastK(g, k, eps, Opts{Workers: 1})
				if err != nil {
					t.Fatalf("%s k=%d eps=%g: reference: %v", name, k, eps, err)
				}
				for workers := 1; workers <= 8; workers++ {
					got, err := AtLeastK(g, k, eps, pc.opts(workers))
					if err != nil {
						t.Fatalf("%s k=%d eps=%g workers=%d: %v", name, k, eps, workers, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s k=%d eps=%g workers=%d: AtLeastK layout engine diverged",
							name, k, eps, workers)
					}
				}
			}
		}
	}
	if pc.push == 0 {
		t.Fatal("AtLeastK sweep never pushed")
	}
}

func TestLayoutParityDirected(t *testing.T) {
	var pc parityCounters
	cl, err := gen.ChungLuDirected(3000, 15000, 2.2, 47)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := gen.RMAT(11, 12000, gen.DefaultRMAT, 53)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Directed{"chunglu": cl, "rmat": rm} {
		for _, eps := range parityEps {
			for _, c := range []float64{0.5, 1, 2} {
				want, err := referenceDirected(g, c, eps, Opts{Workers: 1})
				if err != nil {
					t.Fatalf("%s c=%g eps=%g: reference: %v", name, c, eps, err)
				}
				for workers := 1; workers <= 8; workers++ {
					got, err := Directed(g, c, eps, pc.opts(workers))
					if err != nil {
						t.Fatalf("%s c=%g eps=%g workers=%d: %v", name, c, eps, workers, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s c=%g eps=%g workers=%d: directed layout engine diverged",
							name, c, eps, workers)
					}
				}
			}
		}
	}
	if pc.push == 0 || pc.pull == 0 {
		t.Fatalf("directed sweep exercised push=%d pull=%d; need both", pc.push, pc.pull)
	}
}

// TestLayoutParityCirculant drives a slow peel: a circulant core with
// long reach peels gradually at eps=0, a few nodes per pass for about
// 160 passes, nearly all of which push. The result must match the
// reference engine bit-for-bit at every worker count.
func TestLayoutParityCirculant(t *testing.T) {
	const n = 4096
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for s := 1; s <= 4+(u%13); s++ {
			if err := b.AddEdge(int32(u), int32((u+s)%n)); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceUndirected(g, 0, Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for workers := 1; workers <= 8; workers++ {
		got, err := Undirected(g, 0, Opts{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: engine diverged from reference\ngot  %+v\nwant %+v",
				workers, summarize(got), summarize(want))
		}
	}
}

func summarize(r *Result) string {
	return fmt.Sprintf("{|Set|=%d Density=%v Passes=%d |Trace|=%d}", len(r.Set), r.Density, r.Passes, len(r.Trace))
}
