package mapreduce

import (
	"fmt"
	"time"

	"densestream/internal/core"
	"densestream/internal/graph"
)

// RoundStat records one pass of the MapReduce peeling driver: the state
// of the distributed edge set as scanned at the start of the round, plus
// the cost of the round's jobs (the Figure 6.7 series). Wall and
// PerMachine describe the run's cluster shape, not the algorithm: all
// other fields are bit-identical for every (Mappers, Reducers,
// Machines) configuration.
type RoundStat struct {
	Pass         int            `json:"pass"`
	Nodes        int            `json:"nodes"`
	Edges        int64          `json:"edges"`
	Density      float64        `json:"density"`
	Removed      int            `json:"removed"`
	Wall         time.Duration  `json:"wall"`         // wall-clock of the round's MR jobs (ns)
	Shuffle      int64          `json:"shuffle"`      // records crossing map→reduce in this round
	ShuffleBytes int64          `json:"shuffleBytes"` // the same in bytes
	PerMachine   []MachineStats `json:"perMachine"`   // shuffle volume per simulated machine
}

// MRResult is the output of the MapReduce drivers.
type MRResult struct {
	Set     []int32
	Density float64
	Passes  int
	Rounds  []RoundStat
	// SpilledBytes totals the bytes the run wrote to spill files under
	// the Config.SpillBytes budget (0 for a fully resident run).
	SpilledBytes int64
	// Faults aggregates every fault-tolerance event of the run:
	// injected task loss, speculative re-execution, and checkpointing.
	// Zero when the run saw no failure plan and no checkpointing.
	Faults FaultStats
}

// AsPassStat projects a round onto the shared per-pass stat shape; the
// cluster-only fields (Wall, Shuffle, PerMachine) are dropped. Used for
// progress hooks and partial traces, which are uniform across the
// peeling, streaming, and MapReduce runtimes.
func (r RoundStat) AsPassStat() core.PassStat {
	return core.PassStat{Pass: r.Pass, Nodes: r.Nodes, Edges: r.Edges, Density: r.Density, Removed: r.Removed}
}

// roundTrace converts a round trace into the shared PassStat shape for
// a core.PartialError.
func roundTrace(rounds []RoundStat) []core.PassStat {
	out := make([]core.PassStat, len(rounds))
	for i, r := range rounds {
		out[i] = r.AsPassStat()
	}
	return out
}

// edgeDataset uploads a graph's edge list onto the cluster once; the
// peeling drivers keep it on the cluster — each round's filter jobs
// produce the next round's partitioned dataset, and only the
// O(removed) markers enter a round from the driver. With a spill
// budget the upload itself lands over-budget partitions on disk, so
// the edge set is out-of-core from the first round.
func edgeDataset(e *Engine, g *graph.Undirected) (*Dataset[int32, int32], error) {
	recs := make([]Pair[int32, int32], 0, g.NumEdges())
	g.Edges(func(u, v int32, _ float64) bool {
		recs = append(recs, Pair[int32, int32]{Key: u, Value: v})
		return true
	})
	d := Shard(e, recs, PartitionInt32)
	if err := maybeSpill(e, d); err != nil {
		return nil, err
	}
	return d, nil
}

// Undirected runs Algorithm 1 as a sequence of MapReduce rounds, exactly
// following §5.2: per pass, one degree job, then two marker-join filter
// jobs that delete the below-threshold nodes and their incident edges.
// The driver itself keeps only O(n) state (the live set), playing the
// role of the cluster coordinator. The result matches core.Undirected
// and stream.Undirected exactly.
//
// o.Ctx and o.Progress interrupt the driver between rounds with a
// core.PartialError whose Trace carries the completed rounds (projected
// onto PassStat). o.Workers is ignored — cluster parallelism comes from
// cfg.
func Undirected(g *graph.Undirected, eps float64, cfg Config, o core.Opts) (*MRResult, error) {
	return peelUndirected(g, "undirected", core.ScanSpec{Eps: eps, Rule: core.CutRule}, cfg, o)
}

// AtLeastK runs Algorithm 2 (densest subgraph with at least k nodes) as
// MapReduce rounds: one degree job per pass, then the driver selects the
// ⌊ε/(1+ε)·|S|⌋ lowest-degree below-threshold nodes and removes them
// with the two marker-join filter jobs. Results match core.AtLeastK
// exactly. See Undirected for how o interrupts the run.
func AtLeastK(g *graph.Undirected, k int, eps float64, cfg Config, o core.Opts) (*MRResult, error) {
	return peelUndirected(g, "atleastk", core.ScanSpec{Eps: eps, Rule: core.QuotaRule, K: k}, cfg, o)
}

// peelUndirected drives an undirected objective through the core
// scan-peel policy over the MapReduce oracle; kind names the job in
// checkpoint manifests.
func peelUndirected(g *graph.Undirected, kind string, spec core.ScanSpec, cfg Config, o core.Opts) (*MRResult, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	if g.Weighted() {
		return nil, fmt.Errorf("mapreduce: %s needs an unweighted graph", kind)
	}
	defer e.Cleanup()
	n := g.NumNodes()
	spec.Nodes = n
	spec.Initial = core.PassStat{Nodes: n, Edges: g.NumEdges(), Density: g.Density()}
	m := &peelOracle{
		e:      e,
		ck:     newCheckpointer(e, kind, n, g.NumEdges(), spec.Eps, 0, spec.K),
		n:      n,
		upload: func() (*Dataset[int32, int32], error) { return edgeDataset(e, g) },
	}
	r, err := core.ScanPeel(spec, m, o)
	if err != nil {
		return nil, err
	}
	m.ck.clear()
	return &MRResult{Set: r.Set, Density: r.Density, Passes: r.Passes, Rounds: m.rounds, SpilledBytes: e.SpilledBytes(), Faults: e.FaultStats()}, nil
}

// peelOracle is the MapReduce degree oracle of the core scan-peel
// policy (§5.2). The live edge set stays on the cluster as a Dataset,
// always exactly E(S) (or E(S,T), kept source-keyed). Measure runs one
// degree job into a dense degree slice reused across rounds; Commit
// runs the marker-join filter jobs that delete the removed nodes'
// edges, records the round's cluster stats, writes the checkpoint, and
// plays the failure plan's crash.
type peelOracle struct {
	e        *Engine
	ck       *checkpointer
	n        int
	directed bool
	upload   func() (*Dataset[int32, int32], error)

	edges *Dataset[int32, int32]
	deg   []int32
	rd    *Round
	side  byte

	rounds  []RoundStat         // undirected runs
	drounds []DirectedRoundStat // directed runs
}

// Start implements core.ScanOracle: it resumes from the committed
// checkpoint when there is one and uploads the edge set otherwise.
func (m *peelOracle) Start() (*core.ScanSnapshot, error) {
	m.deg = make([]int32, m.n)
	man, restored, err := m.ck.resume()
	if err != nil {
		return nil, err
	}
	if man == nil {
		m.edges, err = m.upload()
		return nil, err
	}
	m.edges, m.rounds, m.drounds = restored, man.Rounds, man.DirectedRounds
	snap := &core.ScanSnapshot{Pass: man.Round, BestPass: man.BestPass, BestDensity: man.BestDensity}
	if m.directed {
		snap.RemovedAt, snap.RemovedAtT = man.RemovedAtS, man.RemovedAtT
		snap.DirectedTrace = directedRoundTrace(man.DirectedRounds)
	} else {
		snap.RemovedAt, snap.Trace = man.RemovedAt, roundTrace(man.Rounds)
	}
	return snap, nil
}

// Measure implements core.ScanOracle: one degree job over the resident
// edges, keyed on both endpoints (undirected) or on the peeled side —
// out-degrees for S, in-degrees for T by keying each edge on its
// destination in the map phase instead of re-orienting the dataset.
// Nodes with no degree record are isolated and read as degree 0.
func (m *peelOracle) Measure(pass int, _, _ []bool, side byte) (int64, float64, error) {
	m.rd, m.side = m.e.StartRound(), side
	degs, _, err := degreeJob(m.rd, m.edges, side == 0, side == 'T')
	if err != nil {
		return 0, 0, fmt.Errorf("mapreduce: pass %d degree job: %w", pass, err)
	}
	clear(m.deg)
	if err := degs.Each(func(u, d int32) { m.deg[u] = d }); err != nil {
		return 0, 0, fmt.Errorf("mapreduce: pass %d degrees: %w", pass, err)
	}
	degs.Discard()
	edges := int64(m.edges.Len())
	return edges, float64(edges), nil
}

// Degree implements core.ScanOracle.
func (m *peelOracle) Degree(u int32) float64 { return float64(m.deg[u]) }

// Commit implements core.ScanOracle.
func (m *peelOracle) Commit(snap *core.ScanSnapshot) error {
	pass, removedAt := snap.Pass, snap.RemovedAt
	if m.side == 'T' {
		removedAt = snap.RemovedAtT
	}
	var markers []Pair[int32, int32]
	for u, p := range removedAt {
		if int(p) == pass {
			markers = append(markers, Pair[int32, int32]{Key: int32(u), Value: mark})
		}
	}
	if err := m.filter(pass, markers); err != nil {
		return err
	}
	st := m.rd.Stats()
	if m.directed {
		t := snap.DirectedTrace[len(snap.DirectedTrace)-1]
		m.drounds = append(m.drounds, DirectedRoundStat{
			Pass: pass, SizeS: t.SizeS, SizeT: t.SizeT, Edges: t.Edges, Density: t.Density,
			Removed: t.RemovedS + t.RemovedT, PeeledSide: t.PeeledSide, Wall: m.rd.Wall(),
			Shuffle: st.ShuffleRecords, ShuffleBytes: st.ShuffleBytes, PerMachine: st.PerMachine,
		})
	} else {
		t := snap.Trace[len(snap.Trace)-1]
		m.rounds = append(m.rounds, RoundStat{
			Pass: pass, Nodes: t.Nodes, Edges: t.Edges, Density: t.Density,
			Removed: t.Removed, Wall: m.rd.Wall(),
			Shuffle: st.ShuffleRecords, ShuffleBytes: st.ShuffleBytes, PerMachine: st.PerMachine,
		})
	}
	if err := m.ck.write(pass, m.edges, func(man *ckptManifest) {
		man.BestPass, man.BestDensity = snap.BestPass, snap.BestDensity
		if m.directed {
			man.RemovedAtS, man.RemovedAtT, man.DirectedRounds = snap.RemovedAt, snap.RemovedAtT, m.drounds
		} else {
			man.RemovedAt, man.Rounds = snap.RemovedAt, m.rounds
		}
	}); err != nil {
		return err
	}
	return m.e.simulateCrash(pass)
}

// filter drops the marked nodes' edges from the resident dataset.
// Undirected edges are pivoted on their first and then their second
// endpoint. A directed pass needs one join: peeling T, the map phase
// pivots each edge on its destination and the reducer pivots survivors
// back, so the dataset keeps its source-keyed orientation. Replaced
// datasets discard their spill files immediately, keeping disk usage
// at the live working set.
func (m *peelOracle) filter(pass int, markers []Pair[int32, int32]) error {
	if m.directed {
		flip := m.side == 'T'
		next, _, err := filterJob(m.rd, m.edges, markers, flip, flip)
		if err != nil {
			return fmt.Errorf("mapreduce: directed pass %d filter: %w", pass, err)
		}
		m.edges.Discard()
		m.edges = next
		return nil
	}
	half, _, err := filterJob(m.rd, m.edges, markers, false, true)
	if err != nil {
		return fmt.Errorf("mapreduce: pass %d filter 1: %w", pass, err)
	}
	m.edges.Discard()
	m.edges, _, err = filterJob(m.rd, half, markers, false, false)
	if err != nil {
		return fmt.Errorf("mapreduce: pass %d filter 2: %w", pass, err)
	}
	half.Discard()
	return nil
}
