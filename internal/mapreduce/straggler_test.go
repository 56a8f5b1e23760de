package mapreduce

import (
	"reflect"
	"testing"

	"densestream/internal/core"
	"densestream/internal/gen"
)

// The straggler simulation: a FailurePlan fault on FirstSpilledShard
// drops, in every job, the map task covering the input's first spilled
// partition mid-job and recovers it by re-reading the spill file. The
// recovered run must be bit-identical to an undisturbed one.

// withSpilledShardFault returns cfg with that fault installed in every
// round.
func withSpilledShardFault(cfg Config) Config {
	cfg.Failures = &FailurePlan{Faults: []Fault{{Kind: FaultMap, Target: FirstSpilledShard}}}
	return cfg
}

// stripFaults clears the fields that legitimately differ between an
// undisturbed and a recovered run: wall clock and the fault-recovery
// counters themselves.
func stripFaults(r *MRResult) *MRResult {
	c := stripResult(r)
	c.Faults = FaultStats{}
	return c
}

func TestStragglerRecoveryUndirected(t *testing.T) {
	g, err := gen.ChungLu(400, 2500, 2.2, 61)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// Budget 1 spills every partition, so every job's input lives in
	// spill files and the dropped task re-reads one to recover.
	base := Config{Mappers: 4, Reducers: 4, SpillBytes: 1, SpillDir: dir}
	want, err := Undirected(g, 0.5, base, core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Faults.MapTaskReruns != 0 {
		t.Fatalf("undisturbed run reports %d map task reruns", want.Faults.MapTaskReruns)
	}

	got, err := Undirected(g, 0.5, withSpilledShardFault(base), core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Faults.MapTaskReruns == 0 {
		t.Fatal("straggler simulation never dropped a task (nothing spilled?)")
	}
	// Every round runs three jobs over spilled inputs, so the rerun
	// count must cover at least one task per pass.
	if got.Faults.MapTaskReruns < int64(got.Passes) {
		t.Fatalf("only %d reruns over %d passes", got.Faults.MapTaskReruns, got.Passes)
	}
	if !reflect.DeepEqual(stripFaults(got), stripFaults(want)) {
		t.Fatal("recovered run differs from undisturbed run")
	}
}

func TestStragglerRecoveryAtLeastK(t *testing.T) {
	g, err := gen.ChungLu(300, 1800, 2.2, 67)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	base := Config{Mappers: 2, Reducers: 8, Machines: 3, SpillBytes: 1, SpillDir: dir}
	want, err := AtLeastK(g, 30, 0.5, base, core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := AtLeastK(g, 30, 0.5, withSpilledShardFault(base), core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Faults.MapTaskReruns == 0 {
		t.Fatal("straggler simulation never dropped a task")
	}
	if !reflect.DeepEqual(stripFaults(got), stripFaults(want)) {
		t.Fatal("recovered AtLeastK run differs from undisturbed run")
	}
}

func TestStragglerRecoveryDirected(t *testing.T) {
	g, err := gen.ChungLuDirected(300, 1800, 2.2, 71)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	base := Config{Mappers: 4, Reducers: 4, SpillBytes: 1, SpillDir: dir}
	want, err := Directed(g, 1, 0.5, base, core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Directed(g, 1, 0.5, withSpilledShardFault(base), core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Faults.MapTaskReruns == 0 {
		t.Fatal("straggler simulation never dropped a task")
	}
	if got.Density != want.Density || got.Passes != want.Passes ||
		!reflect.DeepEqual(got.S, want.S) || !reflect.DeepEqual(got.T, want.T) {
		t.Fatal("recovered directed run differs from undisturbed run")
	}
}

// TestStragglerNoSpill checks the simulation is inert when nothing is
// spilled: resident inputs have no durable split to re-read, so no
// task is dropped and results are untouched.
func TestStragglerNoSpill(t *testing.T) {
	g, err := gen.ChungLu(200, 1200, 2.2, 73)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Mappers: 4, Reducers: 4}
	want, err := Undirected(g, 0.5, base, core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Undirected(g, 0.5, withSpilledShardFault(base), core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Faults.MapTaskReruns != 0 {
		t.Fatalf("resident run re-ran %d tasks", got.Faults.MapTaskReruns)
	}
	if !reflect.DeepEqual(stripFaults(got), stripFaults(want)) {
		t.Fatal("straggler fault changed a resident run")
	}
}
