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

func TestStreamingAtLeastKMatchesInMemory(t *testing.T) {
	f := func(seed int64) bool {
		g, err := gen.Gnm(50, 180, seed)
		if err != nil {
			return false
		}
		for _, k := range []int{1, 10, 25} {
			for _, eps := range []float64{0.3, 1} {
				ref, err := core.AtLeastK(g, k, eps, core.Opts{Workers: 1})
				if err != nil {
					return false
				}
				for _, w := range workerCounts {
					got, err := AtLeastK(FromUndirected(g), k, eps, core.Opts{Workers: w})
					if err != nil {
						return false
					}
					if math.Abs(ref.Density-got.Density) > 1e-9 || ref.Passes != got.Passes {
						return false
					}
					if !sameSet(ref.Set, got.Set) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamingAtLeastKValidation(t *testing.T) {
	s, _ := NewSliceStream(3, []Edge{{U: 0, V: 1}})
	empty, _ := NewSliceStream(0, nil)
	for _, w := range workerCounts {
		o := core.Opts{Workers: w}
		if _, err := AtLeastK(s, 0, 0.5, o); err == nil {
			t.Fatal("k=0 accepted")
		}
		if _, err := AtLeastK(s, 4, 0.5, o); err == nil {
			t.Fatal("k > n accepted")
		}
		if _, err := AtLeastK(s, 1, -1, o); err == nil {
			t.Fatal("negative eps accepted")
		}
		if _, err := AtLeastK(empty, 1, 0.5, o); !errors.Is(err, graph.ErrEmptyGraph) {
			t.Fatalf("empty: %v", err)
		}
	}
}

func TestStreamingAtLeastKSizeGuarantee(t *testing.T) {
	g, err := gen.ChungLu(500, 2000, 2.2, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{5, 50, 200} {
		for _, w := range workerCounts {
			r, err := AtLeastK(FromUndirected(g), k, 0.5, core.Opts{Workers: w})
			if err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			if len(r.Set) < k {
				t.Fatalf("k=%d: |set| = %d", k, len(r.Set))
			}
		}
	}
}
