package mapreduce

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomRecords builds a skewed random record set with many duplicate
// keys, so reducers see multi-value groups.
func randomRecords(n int, seed int64) []Pair[int32, int32] {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Pair[int32, int32], n)
	for i := range recs {
		recs[i] = Pair[int32, int32]{Key: int32(rng.Intn(n / 4)), Value: int32(rng.Intn(1000))}
	}
	return recs
}

func sumJob(cfg Config, recs []Pair[int32, int32]) ([]Pair[int32, int64], Stats, error) {
	mapFn := func(k int32, v int32, emit func(int32, int32)) { emit(k, v) }
	reduceFn := func(k int32, vs []int32, emit func(int32, int64)) {
		var total int64
		for _, v := range vs {
			total += int64(v)
		}
		emit(k, total)
	}
	return Run(cfg, recs, mapFn, nil, reduceFn, PartitionInt32)
}

// Regression for the old engine's nondeterministic reducer emit order
// (map iteration over groups): the job output must be one exact slice —
// same keys, same order — across 10 repeated runs and across differing
// cluster shapes.
func TestRunOutputOrderDeterministic(t *testing.T) {
	recs := randomRecords(20000, 7)
	want, _, err := sumJob(Config{Mappers: 1, Reducers: 1}, recs)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []Config{
		{Mappers: 1, Reducers: 1},
		{Mappers: 8, Reducers: 8},
		{Mappers: 3, Reducers: 5},
		{Mappers: 4, Reducers: 2, Machines: 4},
		{Mappers: 2, Reducers: 2, Machines: 8},
	}
	for _, cfg := range shapes {
		for run := 0; run < 10; run++ {
			got, _, err := sumJob(cfg, recs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cfg %+v run %d: output order differs from the 1×1 reference", cfg, run)
			}
		}
	}
}

// Shard must lay records out identically for every cluster shape, and
// feeding the resident dataset through a job must agree with feeding
// the same records as a flat slice.
func TestShardDeterministicAndResidentInputEquivalence(t *testing.T) {
	recs := randomRecords(10000, 3)
	ref, err := NewEngine(Config{Mappers: 1, Reducers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := Shard(ref, recs, PartitionInt32)
	if want.Len() != len(recs) {
		t.Fatalf("Shard dropped records: %d vs %d", want.Len(), len(recs))
	}
	for _, cfg := range []Config{{Mappers: 8, Reducers: 8}, {Mappers: 3, Reducers: 2, Machines: 5}} {
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := Shard(e, recs, PartitionInt32)
		if !reflect.DeepEqual(got.parts, want.parts) {
			t.Fatalf("cfg %+v: Shard layout differs", cfg)
		}
	}

	// Resident vs flat input: same job, same output.
	mapFn := func(k int32, v int32, emit func(int32, int32)) { emit(k, v) }
	reduceFn := func(k int32, vs []int32, emit func(int32, int32)) { emit(k, int32(len(vs))) }
	flat, _, err := RunJob(ref.StartRound(), nil, recs, mapFn, nil, reduceFn, PartitionInt32)
	if err != nil {
		t.Fatal(err)
	}
	resident, _, err := RunJob(ref.StartRound(), want, nil, mapFn, nil, reduceFn, PartitionInt32)
	if err != nil {
		t.Fatal(err)
	}
	// The flat stream and the partitioned stream order records
	// differently, but counts per key — and the sorted-key fold order —
	// must agree exactly.
	flatRecs, err := flat.Records()
	if err != nil {
		t.Fatal(err)
	}
	residentRecs, err := resident.Records()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flatRecs, residentRecs) {
		t.Fatal("flat and resident inputs disagree")
	}
}

func TestPerMachineStatsPartitionTheShuffle(t *testing.T) {
	recs := randomRecords(8000, 9)
	for _, machines := range []int{1, 2, 4, 7} {
		e, err := NewEngine(Config{Mappers: 2, Reducers: 2, Machines: machines})
		if err != nil {
			t.Fatal(err)
		}
		rd := e.StartRound()
		mapFn := func(k int32, v int32, emit func(int32, int32)) { emit(k, v) }
		reduceFn := func(k int32, vs []int32, emit func(int32, int32)) { emit(k, int32(len(vs))) }
		_, stats, err := RunJob(rd, nil, recs, mapFn, nil, reduceFn, PartitionInt32)
		if err != nil {
			t.Fatal(err)
		}
		if len(stats.PerMachine) != machines {
			t.Fatalf("machines=%d: PerMachine has %d entries", machines, len(stats.PerMachine))
		}
		var recSum, byteSum int64
		for _, m := range stats.PerMachine {
			recSum += m.ShuffleRecords
			byteSum += m.ShuffleBytes
		}
		if recSum != stats.ShuffleRecords || byteSum != stats.ShuffleBytes {
			t.Fatalf("machines=%d: per-machine sums (%d recs, %d bytes) != totals (%d, %d)",
				machines, recSum, byteSum, stats.ShuffleRecords, stats.ShuffleBytes)
		}
		if stats.ShuffleBytes != stats.ShuffleRecords*8 {
			t.Fatalf("shuffle bytes %d for %d 8-byte records", stats.ShuffleBytes, stats.ShuffleRecords)
		}
		// Round aggregation mirrors the job stats.
		rs := rd.Stats()
		if rs.ShuffleRecords != stats.ShuffleRecords || len(rs.PerMachine) != machines {
			t.Fatalf("round stats %+v do not mirror job stats", rs)
		}
	}
}

func TestRunJobValidation(t *testing.T) {
	id := func(k int32, v int32, emit func(int32, int32)) { emit(k, v) }
	red := func(k int32, vs []int32, emit func(int32, int32)) { emit(k, 0) }
	if _, _, err := RunJob[int32, int32, int32, int32, int32](nil, nil, nil, id, nil, red, PartitionInt32); err == nil {
		t.Fatal("nil round accepted")
	}
	e, err := NewEngine(DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunJob[int32, int32, int32, int32, int32](e.StartRound(), nil, nil, nil, nil, red, PartitionInt32); err == nil {
		t.Fatal("nil mapper accepted")
	}
	if e.Machines() != 1 {
		t.Fatalf("DefaultConfig machines = %d", e.Machines())
	}
	if _, err := NewEngine(Config{Mappers: 1, Reducers: 1, Machines: -3}); err == nil {
		t.Fatal("negative Machines should be rejected")
	}
	// Zero fields mean "unset" and normalize to the defaults.
	e2, err := NewEngine(Config{})
	if err != nil {
		t.Fatalf("zero config should normalize: %v", err)
	}
	if e2.Config() != DefaultConfig {
		t.Fatalf("zero config normalized to %+v", e2.Config())
	}
}
