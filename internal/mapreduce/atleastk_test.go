package mapreduce

import (
	"math"
	"testing"
	"testing/quick"

	"densestream/internal/core"
	"densestream/internal/gen"
	"densestream/internal/graph"
)

func TestMRAtLeastKMatchesCore(t *testing.T) {
	f := func(seed int64) bool {
		g, err := gen.Gnm(50, 180, seed)
		if err != nil {
			return false
		}
		for _, k := range []int{1, 10, 25} {
			ref, err := core.AtLeastK(g, k, 0.5, core.Opts{Workers: 1})
			if err != nil {
				return false
			}
			mr, err := AtLeastK(g, k, 0.5, Config{Mappers: 4, Reducers: 3}, core.Opts{})
			if err != nil {
				return false
			}
			if math.Abs(ref.Density-mr.Density) > 1e-9 || ref.Passes != mr.Passes {
				return false
			}
			if !equalSets(ref.Set, mr.Set) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestMRAtLeastKValidation(t *testing.T) {
	g, _ := gen.Clique(5)
	if _, err := AtLeastK(g, 0, 0.5, DefaultConfig, core.Opts{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := AtLeastK(g, 6, 0.5, DefaultConfig, core.Opts{}); err == nil {
		t.Fatal("k>n accepted")
	}
	if _, err := AtLeastK(g, 2, -1, DefaultConfig, core.Opts{}); err == nil {
		t.Fatal("bad eps accepted")
	}
	if _, err := AtLeastK(g, 2, 0.5, Config{Mappers: -1}, core.Opts{}); err == nil {
		t.Fatal("negative config accepted")
	}
	empty, _ := graph.NewBuilder(0).Freeze()
	if _, err := AtLeastK(empty, 1, 0.5, DefaultConfig, core.Opts{}); err == nil {
		t.Fatal("empty accepted")
	}
	wb := graph.NewBuilder(2)
	_ = wb.AddWeightedEdge(0, 1, 1)
	wg, _ := wb.Freeze()
	if _, err := AtLeastK(wg, 1, 0.5, DefaultConfig, core.Opts{}); err == nil {
		t.Fatal("weighted accepted")
	}
}

func TestMRAtLeastKSizeGuarantee(t *testing.T) {
	g, err := gen.ChungLu(800, 3000, 2.2, 33)
	if err != nil {
		t.Fatal(err)
	}
	r, err := AtLeastK(g, 100, 0.5, DefaultConfig, core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Set) < 100 {
		t.Fatalf("|set| = %d < k", len(r.Set))
	}
	if len(r.Rounds) != r.Passes {
		t.Fatalf("rounds %d != passes %d", len(r.Rounds), r.Passes)
	}
}
