package mapreduce

import (
	"testing"
	"testing/quick"

	"densestream/internal/gen"
	"densestream/internal/graph"
)

func TestRunValidationWithCombiner(t *testing.T) {
	id := func(k int32, v int32, emit func(int32, int32)) { emit(k, v) }
	comb := func(k int32, vs []int32) int32 { return int32(len(vs)) }
	red := func(k int32, vs []int32, emit func(int32, int32)) { emit(k, 0) }
	if _, _, err := Run(Config{Reducers: -2}, nil, id, comb, red, PartitionInt32); err == nil {
		t.Fatal("negative config accepted")
	}
}

// combinedDegrees runs the degree job over g with the combiner toggled
// through the engine config — the per-round option the drivers use.
func combinedDegrees(t testing.TB, g *graph.Undirected, cfg Config, combine bool) (map[int32]int32, Stats) {
	t.Helper()
	cfg.Combine = combine
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	edges, err := edgeDataset(e, g)
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := degreeJob(e.StartRound(), edges, true, false)
	if err != nil {
		t.Fatal(err)
	}
	deg := make(map[int32]int32)
	if err := out.Each(func(u, d int32) { deg[u] = d }); err != nil {
		t.Fatal(err)
	}
	return deg, stats
}

func TestDegreeJobCombinedMatchesPlain(t *testing.T) {
	g, err := gen.Gnm(80, 300, 11)
	if err != nil {
		t.Fatal(err)
	}
	plain, plainStats := combinedDegrees(t, g, DefaultConfig, false)
	combined, combStats := combinedDegrees(t, g, DefaultConfig, true)
	if len(plain) != len(combined) {
		t.Fatalf("key counts differ: %d vs %d", len(plain), len(combined))
	}
	for k, v := range plain {
		if combined[k] != v {
			t.Fatalf("degree(%d): plain %d, combined %d", k, v, combined[k])
		}
	}
	// The combiner must shrink the shuffle: without it, shuffle records
	// equal 2·|E|; with it, at most one per distinct node per map shard.
	if combStats.ShuffleRecords >= plainStats.ShuffleRecords {
		t.Fatalf("combiner did not reduce shuffle: %d vs %d",
			combStats.ShuffleRecords, plainStats.ShuffleRecords)
	}
}

// Property: combined and plain degree jobs agree on any random graph
// and any cluster shape.
func TestDegreeJobCombinedProperty(t *testing.T) {
	f := func(seed int64) bool {
		g, err := gen.Gnm(30, 90, seed)
		if err != nil {
			return false
		}
		cfg := Config{Mappers: 3, Reducers: 2, Machines: 2}
		plain, _ := combinedDegrees(t, g, cfg, false)
		combined, _ := combinedDegrees(t, g, cfg, true)
		if len(plain) != len(combined) {
			return false
		}
		for k, v := range plain {
			if combined[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
