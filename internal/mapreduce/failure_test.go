package mapreduce

import (
	"reflect"
	"testing"

	"densestream/internal/core"
	"densestream/internal/gen"
)

// Parity sweep for the injected failure model: every recovery path —
// explicit map/reduce/machine faults, seeded rate-based loss, and
// speculative re-execution — must leave all three drivers bit-identical
// to an undisturbed run at every cluster shape and spill budget.

// faultPlans returns the failure schedules the sweep injects: explicit
// multi-task loss (map + reduce + machine), seeded rate-based loss, and
// both again under speculative execution.
func faultPlans() []*FailurePlan {
	explicit := []Fault{
		{Round: 1, Kind: FaultMap, Target: 0},
		{Round: 1, Kind: FaultMap, Target: 13},
		{Round: 2, Kind: FaultReduce, Target: 7},
		{Round: 2, Kind: FaultReduce, Target: 42},
		{Kind: FaultMachine, Target: 0}, // every round
	}
	seeded := &FailurePlan{Seed: 99, MapRate: 0.2, ReduceRate: 0.2}
	return []*FailurePlan{
		{Faults: explicit},
		{Faults: explicit, Speculate: true},
		seeded,
		{Seed: seeded.Seed, MapRate: seeded.MapRate, ReduceRate: seeded.ReduceRate, Speculate: true},
	}
}

// failureConfigs returns the cluster shapes the sweep runs each plan
// under: workers 1–8, resident and spilled.
func failureConfigs(t *testing.T) []Config {
	t.Helper()
	dir := t.TempDir()
	return []Config{
		{Mappers: 1, Reducers: 1},
		{Mappers: 8, Reducers: 8},
		{Mappers: 4, Reducers: 2, Machines: 3, SpillBytes: 1 << 12, SpillDir: dir},
		{Mappers: 2, Reducers: 8, SpillBytes: 1, SpillDir: dir},
	}
}

// checkFaultCounts asserts the run actually recovered injected work and
// that the speculative split adds up.
func checkFaultCounts(t *testing.T, fs FaultStats, plan *FailurePlan) {
	t.Helper()
	if fs.MapTaskReruns+fs.ReduceReruns == 0 {
		t.Fatal("failure plan injected nothing")
	}
	wins := fs.SpeculativeWins + fs.SpeculativeLosses
	if plan.Speculate {
		if wins != fs.MapTaskReruns+fs.ReduceReruns {
			t.Fatalf("speculative wins+losses = %d, want %d reruns", wins, fs.MapTaskReruns+fs.ReduceReruns)
		}
	} else if wins != 0 {
		t.Fatalf("non-speculative run reports %d speculative outcomes", wins)
	}
}

func TestFailureParityUndirected(t *testing.T) {
	g, err := gen.ChungLu(400, 2500, 2.2, 21)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Undirected(g, 0.5, Config{Mappers: 4, Reducers: 4}, core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	for pi, plan := range faultPlans() {
		for ci, cfg := range failureConfigs(t) {
			cfg.Failures = plan
			got, err := Undirected(g, 0.5, cfg, core.Opts{})
			if err != nil {
				t.Fatalf("plan %d cfg %d: %v", pi, ci, err)
			}
			checkFaultCounts(t, got.Faults, plan)
			if !reflect.DeepEqual(stripFaults(got), stripFaults(want)) {
				t.Fatalf("plan %d cfg %d: recovered run differs from undisturbed run", pi, ci)
			}
		}
	}
}

func TestFailureParityAtLeastK(t *testing.T) {
	g, err := gen.ChungLu(300, 1800, 2.2, 23)
	if err != nil {
		t.Fatal(err)
	}
	want, err := AtLeastK(g, 30, 0.5, Config{Mappers: 4, Reducers: 4}, core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	for pi, plan := range faultPlans() {
		for ci, cfg := range failureConfigs(t) {
			cfg.Failures = plan
			got, err := AtLeastK(g, 30, 0.5, cfg, core.Opts{})
			if err != nil {
				t.Fatalf("plan %d cfg %d: %v", pi, ci, err)
			}
			checkFaultCounts(t, got.Faults, plan)
			if !reflect.DeepEqual(stripFaults(got), stripFaults(want)) {
				t.Fatalf("plan %d cfg %d: recovered run differs from undisturbed run", pi, ci)
			}
		}
	}
}

func TestFailureParityDirected(t *testing.T) {
	g, err := gen.ChungLuDirected(300, 1800, 2.2, 29)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Directed(g, 1, 0.5, Config{Mappers: 4, Reducers: 4}, core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	for pi, plan := range faultPlans() {
		for ci, cfg := range failureConfigs(t) {
			cfg.Failures = plan
			got, err := Directed(g, 1, 0.5, cfg, core.Opts{})
			if err != nil {
				t.Fatalf("plan %d cfg %d: %v", pi, ci, err)
			}
			checkFaultCounts(t, got.Faults, plan)
			if got.Density != want.Density || got.Passes != want.Passes ||
				!reflect.DeepEqual(got.S, want.S) || !reflect.DeepEqual(got.T, want.T) {
				t.Fatalf("plan %d cfg %d: recovered directed run differs from undisturbed run", pi, ci)
			}
		}
	}
}

// TestSpeculativeRecovery is the -race smoke for the speculative path:
// heavy rate-based loss with speculation across all three drivers, so
// the backup-vs-original race runs many times under the race detector.
func TestSpeculativeRecovery(t *testing.T) {
	plan := &FailurePlan{Seed: 7, MapRate: 0.5, ReduceRate: 0.5, Speculate: true}
	cfg := Config{Mappers: 8, Reducers: 8, Failures: plan}

	g, err := gen.ChungLu(300, 1800, 2.2, 31)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Undirected(g, 0.5, Config{Mappers: 4, Reducers: 4}, core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Undirected(g, 0.5, cfg, core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	checkFaultCounts(t, got.Faults, plan)
	if !reflect.DeepEqual(stripFaults(got), stripFaults(want)) {
		t.Fatal("speculative run differs from undisturbed run")
	}

	dg, err := gen.ChungLuDirected(200, 1200, 2.2, 37)
	if err != nil {
		t.Fatal(err)
	}
	dwant, err := Directed(dg, 1, 0.5, Config{Mappers: 4, Reducers: 4}, core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	dgot, err := Directed(dg, 1, 0.5, cfg, core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	checkFaultCounts(t, dgot.Faults, plan)
	if dgot.Density != dwant.Density || !reflect.DeepEqual(dgot.S, dwant.S) || !reflect.DeepEqual(dgot.T, dwant.T) {
		t.Fatal("speculative directed run differs from undisturbed run")
	}
}

func TestFailurePlanValidate(t *testing.T) {
	bad := []Config{
		{Failures: &FailurePlan{MapRate: 1.5}},
		{Failures: &FailurePlan{ReduceRate: -0.1}},
		{Failures: &FailurePlan{CrashAfterRound: -1}},
		{Failures: &FailurePlan{Faults: []Fault{{Kind: FaultMap, Target: NumMapShards}}}},
		{Failures: &FailurePlan{Faults: []Fault{{Kind: FaultReduce, Target: -1}}}},
		{Machines: 2, Failures: &FailurePlan{Faults: []Fault{{Kind: FaultMachine, Target: 2}}}},
		{Failures: &FailurePlan{Faults: []Fault{{Kind: FaultKind(9)}}}},
		{CheckpointEvery: -1},
		{CheckpointEvery: 1}, // no CheckpointDir
	}
	for i, cfg := range bad {
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("config %d: invalid configuration accepted", i)
		}
	}
}
