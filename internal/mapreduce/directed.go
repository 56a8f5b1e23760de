package mapreduce

import (
	"time"

	"densestream/internal/core"
	"densestream/internal/graph"
)

// DirectedRoundStat records one pass of the directed MR driver. As with
// RoundStat, only Wall and PerMachine depend on the cluster shape.
type DirectedRoundStat struct {
	Pass         int            `json:"pass"`
	SizeS        int            `json:"sizeS"`
	SizeT        int            `json:"sizeT"`
	Edges        int64          `json:"edges"`
	Density      float64        `json:"density"`
	Removed      int            `json:"removed"`
	PeeledSide   byte           `json:"peeledSide"`
	Wall         time.Duration  `json:"wall"`
	Shuffle      int64          `json:"shuffle"`
	ShuffleBytes int64          `json:"shuffleBytes"`
	PerMachine   []MachineStats `json:"perMachine"`
}

// MRDirectedResult is the output of the directed MapReduce driver.
type MRDirectedResult struct {
	S, T    []int32
	Density float64
	Passes  int
	Rounds  []DirectedRoundStat
	// SpilledBytes totals the bytes the run wrote to spill files under
	// the Config.SpillBytes budget (0 for a fully resident run).
	SpilledBytes int64
	// Faults aggregates every fault-tolerance event of the run; see
	// MRResult.Faults.
	Faults FaultStats
}

// AsDirectedPassStat projects a directed round onto the shared directed
// per-pass stat shape, dropping the cluster-only fields.
func (r DirectedRoundStat) AsDirectedPassStat() core.DirectedPassStat {
	st := core.DirectedPassStat{
		Pass: r.Pass, SizeS: r.SizeS, SizeT: r.SizeT,
		Edges: r.Edges, Density: r.Density, PeeledSide: r.PeeledSide,
	}
	if r.PeeledSide == 'S' {
		st.RemovedS = r.Removed
	} else {
		st.RemovedT = r.Removed
	}
	return st
}

func directedRoundTrace(rounds []DirectedRoundStat) []core.DirectedPassStat {
	out := make([]core.DirectedPassStat, len(rounds))
	for i, r := range rounds {
		out[i] = r.AsDirectedPassStat()
	}
	return out
}

// Directed runs Algorithm 3 as MapReduce rounds for a fixed ratio c. The
// resident edge dataset always contains exactly E(S, T), kept in
// source-keyed orientation; per pass one degree job computes out-degrees
// (peeling S) or in-degrees (peeling T, keying by the destination in the
// map phase instead of re-orienting the dataset), and one marker-join
// filter deletes the removed side's edges. The result matches
// core.Directed exactly. See Undirected for how o interrupts the run;
// the partial trace is carried in DirectedTrace.
func Directed(g *graph.Directed, c, eps float64, cfg Config, o core.Opts) (*MRDirectedResult, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	defer e.Cleanup()
	n := g.NumNodes()
	spec := core.ScanSpec{Nodes: n, Eps: eps, C: c}
	if n > 0 {
		// The first progress call sees ρ = |E| / √(n·n).
		spec.Initial = core.PassStat{Nodes: 2 * n, Edges: g.NumEdges(), Density: float64(g.NumEdges()) / float64(n)}
	}
	m := &peelOracle{
		e:        e,
		ck:       newCheckpointer(e, "directed", n, g.NumEdges(), eps, c, 0),
		n:        n,
		directed: true,
		upload: func() (*Dataset[int32, int32], error) {
			// Key = source (in S), value = destination (in T).
			recs := make([]Pair[int32, int32], 0, g.NumEdges())
			g.Edges(func(u, v int32) bool {
				recs = append(recs, Pair[int32, int32]{Key: u, Value: v})
				return true
			})
			d := Shard(e, recs, PartitionInt32)
			return d, maybeSpill(e, d)
		},
	}
	r, err := core.ScanPeelDirected(spec, m, o)
	if err != nil {
		return nil, err
	}
	m.ck.clear()
	return &MRDirectedResult{S: r.S, T: r.T, Density: r.Density, Passes: r.Passes, Rounds: m.drounds, SpilledBytes: e.SpilledBytes(), Faults: e.FaultStats()}, nil
}
