package densestream

import (
	"densestream/internal/core"
	"densestream/internal/kcore"
	"densestream/internal/mapreduce"
)

// PassStat is one entry of Solution.Trace.
type PassStat = core.PassStat

// DirectedResult is one directed run at a fixed ratio c; it is the
// type of SweepResult.Best.
type DirectedResult = core.DirectedResult

// DirectedPassStat is one entry of Solution.DirectedTrace.
type DirectedPassStat = core.DirectedPassStat

// SweepResult aggregates ObjectiveDirectedSweep over all attempted
// ratios c; Solve returns it in Solution.Sweep.
type SweepResult = core.SweepResult

// SweepPoint is the outcome for a single c in a sweep.
type SweepPoint = core.SweepPoint

// BestCore returns the densest d-core of the graph (a 2-approximation
// closely related to ObjectiveGreedy) together with its density. Cores
// are defined by degree counts, so BestCore ignores edge weights: the
// density it maximizes and returns is edges over nodes, on a weighted
// graph too.
func BestCore(g *UndirectedGraph) ([]int32, float64, error) {
	return kcore.BestCore(g)
}

// MRConfig controls the simulated MapReduce cluster shape: Mappers and
// Reducers are worker slots per machine, Machines the simulated machine
// count (per-machine shuffle volume is reported in the round traces),
// and Combine enables per-shard combiners in the degree jobs.
// SpillBytes is the resident-memory budget per edge dataset — past it,
// partitions spill to per-partition files on disk (under SpillDir) and
// are read back transparently, so the MapReduce backend covers edge
// sets larger than memory with bit-identical results; 0 keeps
// everything resident. Zero fields mean "unset" and take their
// defaults; negative fields are rejected (see its Normalize method).
// Pass it through WithMapReduceConfig.
type MRConfig = mapreduce.Config

// MRMachineStats is the shuffle volume one simulated machine received.
type MRMachineStats = mapreduce.MachineStats

// MRRoundStat is one entry of Solution.MRRounds.
type MRRoundStat = mapreduce.RoundStat

// MRDirectedRoundStat is one entry of Solution.MRDirectedRounds.
type MRDirectedRoundStat = mapreduce.DirectedRoundStat

// MRFailurePlan is a deterministic failure schedule for the simulated
// cluster, installed via MRConfig.Failures: explicit task and machine
// losses plus seeded pseudo-random drop rates, optionally recovered by
// speculative execution, and a simulated coordinator crash for the
// checkpoint/restart path. Every recovery leaves results bit-identical.
type MRFailurePlan = mapreduce.FailurePlan

// MRFault is one injected failure of an MRFailurePlan.
type MRFault = mapreduce.Fault

// MRFaultKind selects what an MRFault takes down.
type MRFaultKind = mapreduce.FaultKind

// The injectable fault kinds, plus MRFirstSpilledShard: the MRFaultMap
// target that resolves, per job, to the map task covering the input's
// first spilled partition.
const (
	MRFaultMap          = mapreduce.FaultMap
	MRFaultReduce       = mapreduce.FaultReduce
	MRFaultMachine      = mapreduce.FaultMachine
	MRFirstSpilledShard = mapreduce.FirstSpilledShard
)

// MRFaultStats counts a MapReduce run's fault-tolerance events: task
// reruns, speculative wins/losses, machine failures, checkpoints
// written, and the round a resumed run restarted from. Carried in
// Solution.MRFaults.
type MRFaultStats = mapreduce.FaultStats

// ErrSimulatedCrash is returned by a MapReduce solve whose failure plan
// requested a coordinator crash (MRFailurePlan.CrashAfterRound); a
// subsequent solve with the same MRConfig.CheckpointDir resumes from
// the persisted round checkpoint.
var ErrSimulatedCrash = mapreduce.ErrSimulatedCrash
