package mapreduce

// The simulated failure model. A real cluster loses map tasks, reduce
// tasks, and whole machines as a matter of course; the engine's
// recovery story mirrors the classic MapReduce design: a lost task is
// re-executed from its durable input (map shards re-read their input
// range, reduce partitions re-fetch the surviving shard buckets), and a
// straggling task is raced against a speculative backup copy with
// first-result-wins. Because every task is a pure function of its
// input split, every recovery path reproduces the lost output exactly
// and results stay bit-identical to an undisturbed run.
//
// Failures are injected from a FailurePlan rather than from a random
// timer so the failure schedule itself is deterministic: explicit
// Faults pin (round, task) pairs, and the seeded rates derive a
// reproducible pseudo-random schedule from (Seed, round, job, task)
// alone — never from timing or worker identity.

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"
)

// ErrSimulatedCrash is returned by a driver whose FailurePlan requested
// a crash (CrashAfterRound): the run aborts after that round's work —
// and its checkpoint, when checkpointing is enabled — exactly as if the
// coordinator process died. A subsequent run with the same
// CheckpointDir resumes from the persisted manifest.
var ErrSimulatedCrash = errors.New("mapreduce: simulated crash")

// FaultKind selects what a Fault takes down.
type FaultKind uint8

const (
	// FaultMap drops one map task: Target is a map shard in
	// [0, NumMapShards), or FirstSpilledShard for the task covering the
	// input's first spilled partition.
	FaultMap FaultKind = iota
	// FaultReduce drops one reduce task: Target is a shuffle partition
	// in [0, NumPartitions). The partition is recomputed from the
	// surviving shard buckets, like a reducer re-fetching map outputs.
	FaultReduce
	// FaultMachine drops a whole simulated machine: Target is a machine
	// index in [0, Machines). Every map task scheduled on it (shards
	// s with s % Machines == Target) and every reduce partition it owns
	// (see Engine.machineOf) are lost and re-executed.
	FaultMachine
)

// FirstSpilledShard is the FaultMap target that resolves, per job, to
// the map shard covering the first record of the input's first spilled
// partition — no task is dropped when nothing is spilled. A plan of
// {Faults: [{Kind: FaultMap, Target: FirstSpilledShard}]} loses that
// task in every job of every round: the classic straggler.
const FirstSpilledShard = -1

// Fault is one injected failure.
type Fault struct {
	// Round is the 1-based driver pass the fault strikes; 0 strikes
	// every round. Within the round it applies to every job.
	Round int
	// Kind selects map task, reduce partition, or machine loss.
	Kind FaultKind
	// Target is the shard, partition, or machine index (see FaultKind).
	Target int
}

// FailurePlan is a deterministic failure schedule for a driver run,
// installed via Config.Failures. The zero plan injects nothing.
//
// Faults are explicit (round, task) losses; Seed with MapRate /
// ReduceRate adds a reproducible pseudo-random schedule on top — each
// (round, job, task) triple is dropped with the given probability,
// derived from the seed alone, so the same plan always kills the same
// tasks regardless of cluster shape or timing.
type FailurePlan struct {
	// Faults lists explicit task and machine losses.
	Faults []Fault
	// Seed keys the rate-based schedule below.
	Seed int64
	// MapRate is the per-(round, job, shard) probability in [0, 1] that
	// a map task is dropped.
	MapRate float64
	// ReduceRate is the per-(round, job, partition) probability in
	// [0, 1] that a reduce task is dropped.
	ReduceRate float64
	// Speculate recovers each lost task by racing a speculative backup
	// execution against the (delayed) original — first result wins, the
	// loser is discarded — instead of a sequential re-run. Both copies
	// compute the same pure function of the task's input, so the winner
	// is bit-identical either way; wins and losses are counted in
	// FaultStats.
	Speculate bool
	// CrashAfterRound, when > 0, aborts the driver with
	// ErrSimulatedCrash after that round completes (checkpoint
	// included) — the hook the checkpoint/restart tests kill jobs with.
	CrashAfterRound int
}

// Validate checks the plan against the cluster's fixed geometry and the
// normalized machine count.
func (p *FailurePlan) Validate(machines int) error {
	if p == nil {
		return nil
	}
	if p.MapRate < 0 || p.MapRate > 1 || p.ReduceRate < 0 || p.ReduceRate > 1 {
		return fmt.Errorf("mapreduce: failure rates must be in [0,1], got map=%v reduce=%v", p.MapRate, p.ReduceRate)
	}
	if p.CrashAfterRound < 0 {
		return fmt.Errorf("mapreduce: negative CrashAfterRound %d", p.CrashAfterRound)
	}
	for i, f := range p.Faults {
		if f.Round < 0 {
			return fmt.Errorf("mapreduce: fault %d: negative round %d", i, f.Round)
		}
		switch f.Kind {
		case FaultMap:
			if f.Target < FirstSpilledShard || f.Target >= NumMapShards {
				return fmt.Errorf("mapreduce: fault %d: map shard %d out of range [0,%d)", i, f.Target, NumMapShards)
			}
		case FaultReduce:
			if f.Target < 0 || f.Target >= NumPartitions {
				return fmt.Errorf("mapreduce: fault %d: reduce partition %d out of range [0,%d)", i, f.Target, NumPartitions)
			}
		case FaultMachine:
			if f.Target < 0 || f.Target >= machines {
				return fmt.Errorf("mapreduce: fault %d: machine %d out of range [0,%d)", i, f.Target, machines)
			}
		default:
			return fmt.Errorf("mapreduce: fault %d: unknown kind %d", i, f.Kind)
		}
	}
	return nil
}

// active reports whether the plan injects anything at the given round.
func (p *FailurePlan) active(round int) bool {
	if p == nil {
		return false
	}
	if p.MapRate > 0 || p.ReduceRate > 0 {
		return true
	}
	for _, f := range p.Faults {
		if f.Round == 0 || f.Round == round {
			return true
		}
	}
	return false
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-distributed 64-bit mixer for the seeded schedule.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// drops reports whether the seeded schedule kills task t of the given
// kind in (round, job). The decision is a pure function of
// (Seed, round, job, kind, t).
func (p *FailurePlan) drops(rate float64, round, job int, kind FaultKind, t int) bool {
	if rate <= 0 {
		return false
	}
	h := splitmix64(uint64(p.Seed) ^
		splitmix64(uint64(round)<<32|uint64(uint16(job))<<16|uint64(uint8(kind))<<8) ^
		splitmix64(uint64(t)+0x51ed2701))
	return float64(h>>11)/(1<<53) < rate
}

// machinesDown returns the machines lost in the given round, ascending.
func (p *FailurePlan) machinesDown(round int) []int {
	var down []int
	for _, f := range p.Faults {
		if f.Kind == FaultMachine && (f.Round == 0 || f.Round == round) {
			down = append(down, f.Target)
		}
	}
	slices.Sort(down)
	return slices.Compact(down)
}

// mapTargets resolves the plan to the set of map shards lost by one job
// (ascending, deduplicated). resolveSpilled maps FirstSpilledShard onto
// a concrete shard for this job's input, reporting false when nothing
// is spilled.
func (p *FailurePlan) mapTargets(round, job, machines int, resolveSpilled func() (int, bool)) []int {
	var targets []int
	for _, f := range p.Faults {
		if f.Round != 0 && f.Round != round {
			continue
		}
		switch f.Kind {
		case FaultMap:
			if f.Target == FirstSpilledShard {
				if s, ok := resolveSpilled(); ok {
					targets = append(targets, s)
				}
				continue
			}
			targets = append(targets, f.Target)
		case FaultMachine:
			// Map tasks are dealt to machines round-robin by shard index.
			for s := f.Target; s < NumMapShards; s += machines {
				targets = append(targets, s)
			}
		}
	}
	if p.MapRate > 0 {
		for s := 0; s < NumMapShards; s++ {
			if p.drops(p.MapRate, round, job, FaultMap, s) {
				targets = append(targets, s)
			}
		}
	}
	slices.Sort(targets)
	return slices.Compact(targets)
}

// reduceTargets resolves the plan to the set of reduce partitions lost
// by one job (ascending, deduplicated). machineOf attributes partitions
// to machines exactly as the shuffle does.
func (p *FailurePlan) reduceTargets(round, job int, machineOf func(int) int) []int {
	var targets []int
	down := p.machinesDown(round)
	for _, f := range p.Faults {
		if f.Kind == FaultReduce && (f.Round == 0 || f.Round == round) {
			targets = append(targets, f.Target)
		}
	}
	if len(down) > 0 {
		for pi := 0; pi < NumPartitions; pi++ {
			if slices.Contains(down, machineOf(pi)) {
				targets = append(targets, pi)
			}
		}
	}
	if p.ReduceRate > 0 {
		for pi := 0; pi < NumPartitions; pi++ {
			if p.drops(p.ReduceRate, round, job, FaultReduce, pi) {
				targets = append(targets, pi)
			}
		}
	}
	slices.Sort(targets)
	return slices.Compact(targets)
}

// FaultStats counts the engine's recovery events. All counters are
// bit-identical across cluster shapes for the same plan, except the
// speculative win/loss split, which depends on which racer finished
// first (their sum is deterministic).
type FaultStats struct {
	// MapTaskReruns counts map tasks dropped and re-executed.
	MapTaskReruns int64 `json:"mapTaskReruns"`
	// ReduceReruns counts reduce partitions dropped and re-executed.
	ReduceReruns int64 `json:"reduceReruns"`
	// SpeculativeWins counts recoveries where the speculative backup
	// beat the delayed original; SpeculativeLosses the reverse.
	SpeculativeWins   int64 `json:"speculativeWins"`
	SpeculativeLosses int64 `json:"speculativeLosses"`
	// MachineFailures counts machine-loss events, once per job the lost
	// machine disrupted.
	MachineFailures int64 `json:"machineFailures"`
	// CheckpointsWritten counts round-level checkpoints persisted;
	// CheckpointBytes their total on-disk size.
	CheckpointsWritten int64 `json:"checkpointsWritten"`
	CheckpointBytes    int64 `json:"checkpointBytes"`
	// ResumedFromRound is the round the driver resumed from (0 for a
	// fresh run).
	ResumedFromRound int `json:"resumedFromRound"`
}

// merge folds o into s.
func (s *FaultStats) merge(o FaultStats) {
	s.MapTaskReruns += o.MapTaskReruns
	s.ReduceReruns += o.ReduceReruns
	s.SpeculativeWins += o.SpeculativeWins
	s.SpeculativeLosses += o.SpeculativeLosses
	s.MachineFailures += o.MachineFailures
	s.CheckpointsWritten += o.CheckpointsWritten
	s.CheckpointBytes += o.CheckpointBytes
}

// faultCounters is the engine's atomic view of FaultStats.
type faultCounters struct {
	mapReruns       atomic.Int64
	reduceReruns    atomic.Int64
	specWins        atomic.Int64
	specLosses      atomic.Int64
	machineFailures atomic.Int64
	checkpoints     atomic.Int64
	checkpointBytes atomic.Int64
}

func (c *faultCounters) snapshot() FaultStats {
	return FaultStats{
		MapTaskReruns:      c.mapReruns.Load(),
		ReduceReruns:       c.reduceReruns.Load(),
		SpeculativeWins:    c.specWins.Load(),
		SpeculativeLosses:  c.specLosses.Load(),
		MachineFailures:    c.machineFailures.Load(),
		CheckpointsWritten: c.checkpoints.Load(),
		CheckpointBytes:    c.checkpointBytes.Load(),
	}
}

// speculativeDelay is the handicap the "original" copy of a straggling
// task carries in the speculative race — long enough that the backup
// usually wins, short enough to be invisible in test wall-clock.
const speculativeDelay = 100 * time.Microsecond

// raceRecover recovers one lost task under speculation: a backup
// execution races the delayed original, the first result is used, and
// the loser is drained before returning (so no goroutine outlives the
// job — the loser may not read shared state after RunJob returns). Both
// copies compute the same pure function of the task's durable input, so
// either winner yields a bit-identical job.
func raceRecover[T any](e *Engine, compute func() T) T {
	type result struct {
		v      T
		backup bool
	}
	ch := make(chan result, 2)
	go func() {
		time.Sleep(speculativeDelay)
		ch <- result{compute(), false}
	}()
	go func() {
		ch <- result{compute(), true}
	}()
	first := <-ch
	<-ch
	if first.backup {
		e.faults.specWins.Add(1)
	} else {
		e.faults.specLosses.Add(1)
	}
	return first.v
}
