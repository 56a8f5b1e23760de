package mapreduce

import (
	"os"
	"reflect"
	"testing"

	"densestream/internal/core"
	"densestream/internal/gen"
)

// spillConfigs returns cluster shapes from fully resident to
// aggressively spilled (budget 1 byte ⇒ every partition on disk),
// all rooted in a test-owned temp dir.
func spillConfigs(t *testing.T) []Config {
	t.Helper()
	dir := t.TempDir()
	return []Config{
		{Mappers: 4, Reducers: 4},
		{Mappers: 4, Reducers: 4, SpillBytes: 1 << 12, SpillDir: dir},
		{Mappers: 4, Reducers: 4, SpillBytes: 1, SpillDir: dir},
		{Mappers: 2, Reducers: 8, Machines: 3, SpillBytes: 1, SpillDir: dir},
	}
}

// stripClusterOnly clears the fields that legitimately vary with the
// cluster shape and spill budget (wall clock, per-machine attribution,
// spill volume) so the rest can be compared exactly.
func stripResult(r *MRResult) *MRResult {
	c := *r
	c.SpilledBytes = 0
	c.Rounds = make([]RoundStat, len(r.Rounds))
	for i, rd := range r.Rounds {
		rd.Wall = 0
		rd.PerMachine = nil
		c.Rounds[i] = rd
	}
	return &c
}

// TestSpillParityUndirected checks the spill-enabled MapReduce driver
// returns bit-identical results to the resident one at every budget,
// and that tight budgets really do spill.
func TestSpillParityUndirected(t *testing.T) {
	g, err := gen.ChungLu(400, 2500, 2.2, 17)
	if err != nil {
		t.Fatal(err)
	}
	var want *MRResult
	for i, cfg := range spillConfigs(t) {
		r, err := Undirected(g, 0.5, cfg, core.Opts{})
		if err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
		if cfg.SpillBytes > 0 && r.SpilledBytes == 0 {
			t.Fatalf("cfg %d: budget %d spilled nothing", i, cfg.SpillBytes)
		}
		if cfg.SpillBytes == 0 && r.SpilledBytes != 0 {
			t.Fatalf("cfg %d: resident run reports %d spilled bytes", i, r.SpilledBytes)
		}
		got := stripResult(r)
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cfg %d: spill-enabled result differs from resident", i)
		}
	}
}

// TestSpillParityAtLeastK is the same sweep for the Algorithm 2 driver.
func TestSpillParityAtLeastK(t *testing.T) {
	g, err := gen.ChungLu(300, 1800, 2.2, 19)
	if err != nil {
		t.Fatal(err)
	}
	var want *MRResult
	for i, cfg := range spillConfigs(t) {
		r, err := AtLeastK(g, 30, 0.5, cfg, core.Opts{})
		if err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
		got := stripResult(r)
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cfg %d: AtLeastK spill result differs", i)
		}
	}
}

// TestSpillParityDirected is the same sweep for the directed driver.
func TestSpillParityDirected(t *testing.T) {
	g, err := gen.ChungLuDirected(300, 1800, 2.2, 23)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		density float64
		passes  int
		s, tlen int
	}
	var want *key
	for i, cfg := range spillConfigs(t) {
		r, err := Directed(g, 1, 0.5, cfg, core.Opts{})
		if err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
		got := key{density: r.Density, passes: r.Passes, s: len(r.S), tlen: len(r.T)}
		if want == nil {
			want = &got
			continue
		}
		if got != *want {
			t.Fatalf("cfg %d: directed spill result differs: %+v vs %+v", i, got, *want)
		}
	}
}

// TestSpillCleanup checks the drivers remove their spill directories:
// after a spilled run, the configured SpillDir root is empty again.
func TestSpillCleanup(t *testing.T) {
	g, err := gen.ChungLu(200, 1200, 2.2, 29)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	r, err := Undirected(g, 0.5, Config{Mappers: 2, Reducers: 2, SpillBytes: 1, SpillDir: dir}, core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if r.SpilledBytes == 0 {
		t.Fatal("run did not spill")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("spill root not cleaned up: %d entries left", len(entries))
	}
}

// TestSpillDatasetReads exercises the Dataset read paths directly on a
// spilled dataset: Len, Records, Each, and a job whose map phase scans
// ranges crossing resident and spilled partitions.
func TestSpillDatasetReads(t *testing.T) {
	recs := randomRecords(5000, 31)
	resident, err := NewEngine(Config{Mappers: 4, Reducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Budget sized so roughly half the bytes must spill — a mix of
	// resident and on-disk partitions.
	spilly, err := NewEngine(Config{Mappers: 4, Reducers: 4, SpillBytes: int64(len(recs)) * 4, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer spilly.Cleanup()

	want := Shard(resident, recs, PartitionInt32)
	got := Shard(spilly, recs, PartitionInt32)
	if err := maybeSpill(spilly, got); err != nil {
		t.Fatal(err)
	}
	if got.SpilledBytes() == 0 {
		t.Fatal("nothing spilled")
	}
	if got.Len() != want.Len() {
		t.Fatalf("Len %d != %d", got.Len(), want.Len())
	}
	wr, err := want.Records()
	if err != nil {
		t.Fatal(err)
	}
	gr, err := got.Records()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wr, gr) {
		t.Fatal("spilled Records differ from resident")
	}

	mapFn := func(k int32, v int32, emit func(int32, int32)) { emit(k, v) }
	reduceFn := func(k int32, vs []int32, emit func(int32, int32)) { emit(k, int32(len(vs))) }
	wout, _, err := RunJob(resident.StartRound(), want, nil, mapFn, nil, reduceFn, PartitionInt32)
	if err != nil {
		t.Fatal(err)
	}
	gout, _, err := RunJob(spilly.StartRound(), got, nil, mapFn, nil, reduceFn, PartitionInt32)
	if err != nil {
		t.Fatal(err)
	}
	wrecs, err := wout.Records()
	if err != nil {
		t.Fatal(err)
	}
	grecs, err := gout.Records()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wrecs, grecs) {
		t.Fatal("job over spilled input differs from resident input")
	}
	got.Discard()
	if got.SpilledBytes() != 0 {
		t.Fatal("Discard left spill files accounted")
	}
}
