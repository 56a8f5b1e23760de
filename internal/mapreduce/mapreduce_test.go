package mapreduce

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"densestream/internal/core"
	"densestream/internal/gen"
	"densestream/internal/graph"
	"densestream/internal/stream"
)

func TestRunWordCount(t *testing.T) {
	docs := []Pair[int, string]{
		{Key: 0, Value: "the quick brown fox"},
		{Key: 1, Value: "the lazy dog"},
		{Key: 2, Value: "the fox"},
	}
	mapFn := func(_ int, text string, emit func(string, int)) {
		for _, w := range strings.Fields(text) {
			emit(w, 1)
		}
	}
	reduceFn := func(w string, counts []int, emit func(string, int)) {
		total := 0
		for _, c := range counts {
			total += c
		}
		emit(w, total)
	}
	partition := func(w string) uint64 {
		var h uint64 = 14695981039346656037
		for i := 0; i < len(w); i++ {
			h = (h ^ uint64(w[i])) * 1099511628211
		}
		return h
	}
	out, stats, err := Run(DefaultConfig, docs, mapFn, nil, reduceFn, partition)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, p := range out {
		counts[p.Key] = p.Value
	}
	want := map[string]int{"the": 3, "quick": 1, "brown": 1, "fox": 2, "lazy": 1, "dog": 1}
	for w, c := range want {
		if counts[w] != c {
			t.Errorf("count(%q) = %d, want %d", w, counts[w], c)
		}
	}
	if stats.InputRecords != 3 || stats.ShuffleRecords != 9 {
		t.Fatalf("stats: %+v", stats)
	}
	if stats.OutputRecords != int64(len(want)) {
		t.Fatalf("output records = %d, want %d", stats.OutputRecords, len(want))
	}
}

func TestRunValidation(t *testing.T) {
	id := func(k int32, v int32, emit func(int32, int32)) { emit(k, v) }
	red := func(k int32, vs []int32, emit func(int32, int32)) { emit(k, 0) }
	if _, _, err := Run(Config{Mappers: -1, Reducers: 1}, nil, id, nil, red, PartitionInt32); err == nil {
		t.Fatal("negative mappers accepted")
	}
	if _, _, err := Run(Config{Mappers: 1, Reducers: -1}, nil, id, nil, red, PartitionInt32); err == nil {
		t.Fatal("negative reducers accepted")
	}
	if _, _, err := Run[int32, int32, int32, int32, int32](DefaultConfig, nil, nil, nil, red, PartitionInt32); err == nil {
		t.Fatal("nil mapper accepted")
	}
	if _, _, err := Run[int32, int32, int32, int32, int32](DefaultConfig, nil, id, nil, nil, PartitionInt32); err == nil {
		t.Fatal("nil reducer accepted")
	}
	if _, _, err := Run(DefaultConfig, nil, id, nil, red, nil); err == nil {
		t.Fatal("nil partitioner accepted")
	}
}

func TestRunEmptyInput(t *testing.T) {
	id := func(k int32, v int32, emit func(int32, int32)) { emit(k, v) }
	red := func(k int32, vs []int32, emit func(int32, int32)) { emit(k, int32(len(vs))) }
	out, stats, err := Run(DefaultConfig, nil, id, nil, red, PartitionInt32)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || stats.InputRecords != 0 {
		t.Fatalf("out=%v stats=%+v", out, stats)
	}
}

func TestDegreeJobMatchesGraphDegrees(t *testing.T) {
	g, err := gen.Gnm(60, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := edgeDataset(e, g)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := degreeJob(e.StartRound(), ds, true, false)
	if err != nil {
		t.Fatal(err)
	}
	deg := make(map[int32]int32)
	if err := out.Each(func(u, d int32) { deg[u] = d }); err != nil {
		t.Fatal(err)
	}
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		if int(deg[u]) != g.Degree(u) {
			t.Fatalf("MR degree(%d) = %d, graph degree = %d", u, deg[u], g.Degree(u))
		}
	}
}

func TestFilterJobDropsMarked(t *testing.T) {
	e, err := NewEngine(DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	edges := Shard(e, []Pair[int32, int32]{
		{Key: 0, Value: 1},
		{Key: 0, Value: 2},
		{Key: 3, Value: 4},
	}, PartitionInt32)
	markers := []Pair[int32, int32]{{Key: 0, Value: mark}} // node 0 removed
	out, _, err := filterJob(e.StartRound(), edges, markers, false, false)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := out.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Key != 3 || recs[0].Value != 4 {
		t.Fatalf("filter output = %v", recs)
	}
	flipped, _, err := filterJob(e.StartRound(), out, nil, false, true)
	if err != nil {
		t.Fatal(err)
	}
	frecs, err := flipped.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(frecs) != 1 || frecs[0].Key != 4 || frecs[0].Value != 3 {
		t.Fatalf("flipped output = %v", frecs)
	}
	// The map-side pivot (the directed driver peeling T) keys the join
	// by the Value endpoint: marking node 3 via its destination 4.
	dropped, _, err := filterJob(e.StartRound(), out,
		[]Pair[int32, int32]{{Key: 4, Value: mark}}, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if dropped.Len() != 0 {
		kept, _ := dropped.Records()
		t.Fatalf("map-pivot filter kept %v", kept)
	}
}

func sortedIDs(s []int32) []int32 {
	out := make([]int32, len(s))
	copy(out, s)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalSets(a, b []int32) bool {
	a, b = sortedIDs(a), sortedIDs(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The MR driver must agree exactly with the streaming scan (and hence
// the in-memory reference): same set, density and passes, and its
// rounds projected onto PassStat are the stream's trace.
func TestMRUndirectedMatchesStreaming(t *testing.T) {
	f := func(seed int64) bool {
		g, err := gen.Gnm(50, 180, seed)
		if err != nil {
			return false
		}
		for _, eps := range []float64{0, 1} {
			ref, err := stream.Undirected(stream.FromUndirected(g), eps, core.Opts{Workers: 1})
			if err != nil {
				return false
			}
			mr, err := Undirected(g, eps, Config{Mappers: 4, Reducers: 3}, core.Opts{})
			if err != nil {
				return false
			}
			if math.Abs(ref.Density-mr.Density) > 1e-9 || ref.Passes != mr.Passes {
				return false
			}
			if !equalSets(ref.Set, mr.Set) || !reflect.DeepEqual(ref.Trace, roundTrace(mr.Rounds)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestMRDirectedMatchesCore(t *testing.T) {
	f := func(seed int64) bool {
		g, err := gen.GnmDirected(40, 160, seed)
		if err != nil {
			return false
		}
		for _, c := range []float64{0.5, 1, 2} {
			ref, err := core.Directed(g, c, 0.5, core.Opts{Workers: 1})
			if err != nil {
				return false
			}
			mr, err := Directed(g, c, 0.5, Config{Mappers: 4, Reducers: 3}, core.Opts{})
			if err != nil {
				return false
			}
			if math.Abs(ref.Density-mr.Density) > 1e-9 || ref.Passes != mr.Passes {
				return false
			}
			if !equalSets(ref.S, mr.S) || !equalSets(ref.T, mr.T) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestMRUndirectedValidation(t *testing.T) {
	g, _ := gen.Clique(4)
	if _, err := Undirected(g, -1, DefaultConfig, core.Opts{}); err == nil {
		t.Fatal("negative eps accepted")
	}
	if _, err := Undirected(g, 1, Config{Machines: -1}, core.Opts{}); err == nil {
		t.Fatal("negative config accepted")
	}
	if _, err := Undirected(g, 1, Config{}, core.Opts{}); err != nil {
		t.Fatalf("zero config should normalize to the defaults: %v", err)
	}
	empty, _ := graph.NewBuilder(0).Freeze()
	if _, err := Undirected(empty, 1, DefaultConfig, core.Opts{}); err == nil {
		t.Fatal("empty graph accepted")
	}
	wb := graph.NewBuilder(2)
	_ = wb.AddWeightedEdge(0, 1, 2)
	wg, _ := wb.Freeze()
	if _, err := Undirected(wg, 1, DefaultConfig, core.Opts{}); err == nil {
		t.Fatal("weighted graph accepted")
	}
}

func TestMRDirectedValidation(t *testing.T) {
	g := graph.MustFromDirectedEdges(2, [][2]int32{{0, 1}})
	if _, err := Directed(g, 0, 1, DefaultConfig, core.Opts{}); err == nil {
		t.Fatal("c=0 accepted")
	}
	if _, err := Directed(g, 1, -1, DefaultConfig, core.Opts{}); err == nil {
		t.Fatal("negative eps accepted")
	}
	if _, err := Directed(g, 1, 1, Config{Mappers: -1, Reducers: 2}, core.Opts{}); err == nil {
		t.Fatal("bad config accepted")
	}
	empty, _ := graph.NewDirectedBuilder(0).Freeze()
	if _, err := Directed(empty, 1, 1, DefaultConfig, core.Opts{}); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestMRRoundStatsShapeFigure67(t *testing.T) {
	// The Figure 6.7 shape: per-pass wall-clock and shuffle volume shrink
	// as the graph shrinks (monotone after the first pass, roughly).
	g, err := gen.ChungLu(3000, 12000, 2.2, 9)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := Undirected(g, 1, Config{Mappers: 4, Reducers: 4}, core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.Rounds) != mr.Passes {
		t.Fatalf("rounds %d != passes %d", len(mr.Rounds), mr.Passes)
	}
	first, last := mr.Rounds[0], mr.Rounds[len(mr.Rounds)-1]
	if first.Shuffle <= last.Shuffle {
		t.Fatalf("shuffle volume did not shrink: first %d, last %d", first.Shuffle, last.Shuffle)
	}
	for _, r := range mr.Rounds {
		if r.Wall <= 0 {
			t.Fatalf("round %d has no wall time", r.Pass)
		}
	}
}
