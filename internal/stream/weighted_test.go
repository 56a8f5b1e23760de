package stream

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"densestream/internal/core"
	"densestream/internal/gen"
	"densestream/internal/graph"
)

func TestWeightedSliceStreamValidation(t *testing.T) {
	if _, err := NewWeightedSliceStream(2, []WeightedEdge{{U: 0, V: 5, Weight: 1}}); !errors.Is(err, graph.ErrNodeRange) {
		t.Fatalf("range: %v", err)
	}
	if _, err := NewWeightedSliceStream(2, []WeightedEdge{{U: 1, V: 1, Weight: 1}}); !errors.Is(err, graph.ErrSelfLoop) {
		t.Fatalf("self loop: %v", err)
	}
	if _, err := NewWeightedSliceStream(2, []WeightedEdge{{U: 0, V: 1, Weight: -2}}); !errors.Is(err, graph.ErrBadWeight) {
		t.Fatalf("weight: %v", err)
	}
	if _, err := NewWeightedSliceStream(2, []WeightedEdge{{U: 0, V: 1, Weight: math.NaN()}}); !errors.Is(err, graph.ErrBadWeight) {
		t.Fatalf("NaN weight: %v", err)
	}
}

func TestStreamingWeightedMatchesInMemory(t *testing.T) {
	f := func(seed int64) bool {
		// Random weighted graph.
		g, err := gen.Gnm(30, 90, seed)
		if err != nil {
			return false
		}
		b := graph.NewBuilder(g.NumNodes())
		wsum := 0.5
		g.Edges(func(u, v int32, _ float64) bool {
			wsum += 0.5
			return b.AddWeightedEdge(u, v, wsum) == nil
		})
		wg, err := b.Freeze()
		if err != nil {
			return false
		}
		for _, eps := range []float64{0, 0.5, 1.5} {
			ref, err := core.UndirectedWeighted(wg, eps, core.Opts{Workers: 1})
			if err != nil {
				return false
			}
			for _, w := range workerCounts {
				got, err := UndirectedWeighted(FromUndirectedWeighted(wg), eps, core.Opts{Workers: w})
				if err != nil {
					return false
				}
				if math.Abs(ref.Density-got.Density) > 1e-6 || ref.Passes != got.Passes {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamingWeightedUnitWeightsMatchUnweighted(t *testing.T) {
	g, err := gen.ChungLu(400, 1600, 2.2, 27)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts {
		o := core.Opts{Workers: workers}
		u, err := Undirected(FromUndirected(g), 0.5, o)
		if err != nil {
			t.Fatal(err)
		}
		w, err := UndirectedWeighted(FromUndirectedWeighted(g), 0.5, o)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(u.Density-w.Density) > 1e-9 || u.Passes != w.Passes {
			t.Fatalf("unit-weight mismatch: %v/%d vs %v/%d", u.Density, u.Passes, w.Density, w.Passes)
		}
	}
}

func TestStreamingWeightedLemma6Instance(t *testing.T) {
	// The weighted preferential-attachment instance from Lemma 6 should
	// force noticeably more passes than a uniform-weight graph of the
	// same size at small ε.
	g, err := gen.WeightedPreferentialAttachment(300)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		r, err := UndirectedWeighted(FromUndirectedWeighted(g), 0.05, core.Opts{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if r.Passes < 5 {
			t.Fatalf("Lemma 6 instance peeled in %d passes; want the slow, many-pass behavior", r.Passes)
		}
	}
}

func TestStreamingWeightedValidation(t *testing.T) {
	s, _ := NewWeightedSliceStream(2, []WeightedEdge{{U: 0, V: 1, Weight: 1}})
	empty, _ := NewWeightedSliceStream(0, nil)
	for _, w := range workerCounts {
		o := core.Opts{Workers: w}
		if _, err := UndirectedWeighted(s, -1, o); err == nil {
			t.Fatal("negative eps accepted")
		}
		if _, err := UndirectedWeighted(empty, 0.5, o); !errors.Is(err, graph.ErrEmptyGraph) {
			t.Fatalf("empty: %v", err)
		}
	}
}
