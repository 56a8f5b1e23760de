package core

import (
	"fmt"
	"reflect"
	"testing"

	"densestream/internal/gen"
	"densestream/internal/graph"
)

// The layout parity sweep: the cache-blocked engines (live-vertex
// frontier, adaptive push/pull, CSR compaction) must be
// reflect.DeepEqual to the preserved pre-layout reference
// implementations — set, density, passes, and full trace — across
// Chung-Lu and RMAT graphs, all four objectives, workers 1–8, ε
// values forcing both tiny (push) and huge (pull) removal batches,
// and (for the hub-first rebuild) one-piece and many-piece rebuilds. The
// hooks additionally prove that each decrement direction and the
// compactor actually ran somewhere in the sweep, so the equality is
// over the interesting paths, not around them.

// parityEps spans tiny batches (0: minimum removals, many passes),
// moderate, and huge batches (3: near-total removals).
var parityEps = []float64{0, 0.3, 3}

// parityGrains are the hub-first rebuild's piece grains the unweighted
// sweeps run at: the production graph.CompactGrain, at which these
// small graphs rebuild in one piece, and a tiny one that cuts every
// rebuild into many pieces copied in parallel.
var parityGrains = []int64{graph.CompactGrain, 16}

type parityCounters struct {
	push, pull, compactions int
	kept                    int // pulls on a compactable CSR that kept it
	relabels, bankedPulls   int
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
			kept:      func(_ int) { pc.kept++ },
			relabeled: func(_ int) { pc.relabels++ },
			banked:    func(_, _ int) { pc.bankedPulls++ },
		},
	}
}

// parityGraphs returns the undirected sweep inputs: a Chung-Lu
// power-law graph and a symmetrized RMAT graph, both comfortably above
// the compaction floor.
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
	defer func(grain int64) { graph.CompactGrain = grain }(graph.CompactGrain)
	var pc parityCounters
	for name, g := range parityGraphs(t) {
		for _, eps := range parityEps {
			want, err := referenceUndirected(g, eps, Opts{Workers: 1})
			if err != nil {
				t.Fatalf("%s eps=%g: reference: %v", name, eps, err)
			}
			for _, grain := range parityGrains {
				graph.CompactGrain = grain
				for workers := 1; workers <= 8; workers++ {
					got, err := UndirectedOpts(g, eps, pc.opts(workers))
					if err != nil {
						t.Fatalf("%s eps=%g grain=%d workers=%d: %v", name, eps, grain, workers, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s eps=%g grain=%d workers=%d: layout engine diverged from reference\ngot  %+v\nwant %+v",
							name, eps, grain, workers, summarize(got), summarize(want))
					}
				}
			}
		}
	}
	if pc.push == 0 || pc.pull == 0 {
		t.Fatalf("sweep exercised push=%d pull=%d passes; need both directions", pc.push, pc.pull)
	}
	if pc.compactions == 0 || pc.kept == 0 {
		t.Fatalf("sweep compacted %d times and kept the CSR on %d pulls; need both > 0", pc.compactions, pc.kept)
	}
	if pc.relabels != pc.compactions {
		t.Fatalf("sweep compacted %d times but relabeled %d times; the unweighted compactor must always reorder", pc.compactions, pc.relabels)
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
				got, err := UndirectedWeightedOpts(g, eps, pc.opts(workers))
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
		got, err := UndirectedWeightedOpts(base, 0.5, pc.opts(4))
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
		got, err := UndirectedWeightedOpts(g, 0.1, pc.opts(workers))
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
	if pc.relabels != 0 {
		t.Fatalf("weighted sweep relabeled %d times; the weighted compactor must stay id-ordered", pc.relabels)
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
	defer func(grain int64) { graph.CompactGrain = grain }(graph.CompactGrain)
	var pc parityCounters
	for name, g := range parityGraphs(t) {
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
				for _, grain := range parityGrains {
					graph.CompactGrain = grain
					for workers := 1; workers <= 8; workers++ {
						got, err := AtLeastKOpts(g, k, eps, pc.opts(workers))
						if err != nil {
							t.Fatalf("%s k=%d eps=%g grain=%d workers=%d: %v", name, k, eps, grain, workers, err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s k=%d eps=%g grain=%d workers=%d: AtLeastK layout engine diverged",
								name, k, eps, grain, workers)
						}
					}
				}
			}
		}
	}
	if pc.push == 0 {
		t.Fatal("AtLeastK sweep never pushed")
	}
	if pc.compactions == 0 || pc.kept == 0 {
		t.Fatalf("AtLeastK sweep compacted %d times and kept the CSR on %d pulls; need both > 0", pc.compactions, pc.kept)
	}
	if pc.relabels != pc.compactions {
		t.Fatalf("AtLeastK compacted %d times but relabeled %d times", pc.compactions, pc.relabels)
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
					got, err := DirectedOpts(g, c, eps, pc.opts(workers))
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
	if pc.compactions == 0 {
		t.Fatal("directed sweep never compacted a CSR")
	}
	if pc.relabels != pc.compactions {
		t.Fatalf("directed sweep compacted %d times but relabeled %d times", pc.compactions, pc.relabels)
	}
}

// TestLayoutParityBankedPull drives the shape that exercises the
// fixed-stride row banks: a graph whose post-compaction survivors keep
// peeling slowly, so later passes pull over a banked CSR outside the
// fused rebuild. The banked gather must match the reference engine
// bit-for-bit at every worker count, and the sweep must prove the
// banks actually engaged.
func TestLayoutParityBankedPull(t *testing.T) {
	// A circulant core with long reach peels gradually at eps=0: a few
	// nodes per pass for hundreds of passes, with many pull passes
	// after the first compaction.
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
	var pc parityCounters
	want, err := referenceUndirected(g, 0, Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for workers := 1; workers <= 8; workers++ {
		got, err := UndirectedOpts(g, 0, pc.opts(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: banked engine diverged from reference\ngot  %+v\nwant %+v",
				workers, summarize(got), summarize(want))
		}
	}
	if pc.compactions == 0 || pc.bankedPulls == 0 {
		t.Fatalf("banked sweep: compactions=%d bankedPulls=%d; need both > 0", pc.compactions, pc.bankedPulls)
	}
}

func summarize(r *Result) string {
	return fmt.Sprintf("{|Set|=%d Density=%v Passes=%d |Trace|=%d}", len(r.Set), r.Density, r.Passes, len(r.Trace))
}
