package densestream

import (
	"context"
	"fmt"
	"io"

	"densestream/internal/charikar"
	"densestream/internal/core"
	"densestream/internal/dynamic"
	"densestream/internal/flow"
	"densestream/internal/mapreduce"
	"densestream/internal/sketch"
	"densestream/internal/stream"
)

// Solution is the uniform result envelope of Solve. The first block is
// filled for every request; the remaining fields are backend- or
// objective-specific and documented per field. For the same Problem,
// every exact backend fills the common block bit-identically, except
// for a Path input, whose node ids depend on the backend (see
// Problem.Path).
//
// The JSON tags are the stable wire contract: the densestd daemon
// returns exactly json.Marshal(Solution), so an HTTP solve is
// bit-identical to an in-process one (the MapReduce round stats carry
// wall-clock fields that vary run to run; everything else is
// deterministic).
type Solution struct {
	Objective Objective `json:"objective"` // echo of the request
	Backend   Backend   `json:"backend"`   // echo of the request

	// Set is S̃ for the undirected objectives (Exact and Greedy
	// included); nil for the directed ones, which fill S and T.
	Set []int32 `json:"set,omitempty"`
	// S and T are the directed pair (directed objectives only).
	S []int32 `json:"s,omitempty"`
	T []int32 `json:"t,omitempty"`
	// Density is ρ(S̃), or ρ(S̃, T̃) = |E(S̃,T̃)|/√(|S̃||T̃|) for the
	// directed objectives.
	Density float64 `json:"density"`
	// Passes counts passes over the edges (flow calls for Exact, peels
	// for Greedy).
	Passes int `json:"passes"`
	// Trace is the per-pass trace of the undirected objectives. The
	// peeling backend records the initial state as Trace[0]; the
	// streaming and MapReduce backends record one entry per pass, each
	// describing the subgraph as scanned at the start of the pass. For
	// BackendMapReduce it is the MRRounds trace projected onto PassStat;
	// empty for Exact and Greedy.
	Trace []PassStat `json:"trace,omitempty"`
	// DirectedTrace is the directed analogue of Trace.
	DirectedTrace []DirectedPassStat `json:"directedTrace,omitempty"`

	// Sweep holds every attempted c of ObjectiveDirectedSweep (the
	// best run's S/T/Density also populate the common block).
	Sweep *SweepResult `json:"sweep,omitempty"`
	// MRRounds / MRDirectedRounds carry the per-round cluster
	// statistics of BackendMapReduce — shuffle records and bytes, wall
	// clock, and the per-machine attribution.
	MRRounds         []MRRoundStat         `json:"mrRounds,omitempty"`
	MRDirectedRounds []MRDirectedRoundStat `json:"mrDirectedRounds,omitempty"`
	// MRFaults reports BackendMapReduce's fault-tolerance events —
	// injected task loss recovered by re-execution or speculation, and
	// round-level checkpointing. Omitted when the run saw none.
	MRFaults *MRFaultStats `json:"mrFaults,omitempty"`
	// SketchMemoryWords is the Count-Sketch state size in 64-bit words
	// (BackendStreamSketched only) — compare against NumNodes for the
	// paper's Table 4 memory ratio.
	SketchMemoryWords int `json:"sketchMemoryWords,omitempty"`
	// ExactNumer/ExactDenom give ObjectiveExact's density as an exact
	// rational.
	ExactNumer int64 `json:"exactNumer,omitempty"`
	ExactDenom int64 `json:"exactDenom,omitempty"`
	// Dynamic carries the maintainer counters of ObjectiveSlidingWindow:
	// how many edges the replay inserted and expired, and how much work
	// the lazy re-peeling saved (Epochs vs Updates).
	Dynamic *MaintainerStats `json:"dynamic,omitempty"`
	// Stats reports the solve's out-of-core I/O volume.
	Stats SolveStats `json:"stats"`
}

// SolveStats is the I/O the solve performed against the out-of-core
// edge layer. Both fields are 0 for fully in-memory runs.
type SolveStats struct {
	// BytesScanned counts bytes read from an on-disk edge-list input by
	// the streaming backends: the node-count discovery scan plus every
	// pass of every shard that reads the input. It counts the text lines
	// (comments and resync skips included) and the binary blocks
	// actually read; a binary block a pass skips, because an earlier
	// pass found no live edge in it, counts nothing. Once a pass's live
	// edges fit one counter lane (n edges, n/2 on a weighted scan; never
	// on BackendStreamSketched), the solve holds them in memory, and
	// the passes after it read no input bytes, so passes over the input
	// number at most Passes. The skips and the held pass depend on the
	// input alone, so the count is the same at every worker count.
	BytesScanned int64 `json:"bytesScanned"`
	// BytesSpilled counts bytes the MapReduce backend wrote to spill
	// files under the MRConfig.SpillBytes budget.
	BytesSpilled int64 `json:"bytesSpilled"`
}

// Solve executes one densest-subgraph Problem and returns the uniform
// Solution envelope. It is the package's one entry point for every
// algorithm on every backend: the Problem declares what to compute
// (objective + parameters), on which input, and with which execution
// model, while Options configure how it runs (workers, cluster shape,
// sketch shape, progress).
//
// ctx bounds the computation: cancellation or a deadline aborts the
// solve within one pass on every backend, returning a *PartialError
// that wraps ctx.Err() and carries the per-pass trace accumulated so
// far. WithProgress installs a per-pass hook that can observe the same
// trace entries and stop the run (the error then wraps ErrStopped). A
// nil ctx is treated as context.Background().
func Solve(ctx context.Context, p Problem, opts ...Option) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	o := applyOptions(opts)
	ex := core.Opts{Workers: o.Workers, Ctx: ctx, Progress: o.Progress}
	if ctx == nil {
		ex.Ctx = context.Background()
	}
	sol := &Solution{Objective: p.Objective, Backend: p.Backend}

	var err error
	switch {
	case p.Objective == ObjectiveSlidingWindow:
		err = solveWindow(sol, p, o, ex)
	case p.Backend == BackendStream || p.Backend == BackendStreamSketched:
		err = solveStream(sol, p, o, ex)
	default:
		// In-memory backends: materialize a Path input once, through
		// the sharded file loader (workers tokenize byte-range shards;
		// the result is bit-identical to a sequential parse).
		if p.Path != "" {
			if err := p.loadGraph(o.Workers); err != nil {
				return nil, err
			}
		}
		if p.directedObjective() {
			err = solveDirected(sol, p, o, ex)
		} else {
			err = solveUndirected(sol, p, o, ex)
		}
	}
	if err != nil {
		return nil, err
	}
	return sol, nil
}

// loadGraph parses p.Path into the in-memory input field matching the
// objective, using the sharded file loader.
func (p *Problem) loadGraph(workers int) error {
	if p.directedObjective() {
		g, _, err := ReadDirectedFile(p.Path, workers)
		if err != nil {
			return err
		}
		p.Directed = g
		return nil
	}
	// Parse weights for the objectives that consume them (Greedy uses
	// weighted degrees whenever the graph carries weights; a missing
	// third column defaults to unit weight).
	weighted := p.Objective == ObjectiveWeighted || p.Objective == ObjectiveGreedy
	g, _, err := ReadUndirectedFile(p.Path, weighted, workers)
	if err != nil {
		return err
	}
	p.Graph = g
	return nil
}

// solveUndirected dispatches the undirected objectives on the
// in-memory backends (Peel and MapReduce).
func solveUndirected(sol *Solution, p Problem, o Options, ex core.Opts) error {
	if p.Backend == BackendMapReduce {
		switch p.Objective {
		case ObjectiveUndirected:
			r, err := mapreduce.Undirected(p.Graph, p.Eps, o.MapReduce, ex)
			if err != nil {
				return err
			}
			sol.fillMR(r)
		case ObjectiveAtLeastK:
			r, err := mapreduce.AtLeastK(p.Graph, p.K, p.Eps, o.MapReduce, ex)
			if err != nil {
				return err
			}
			sol.fillMR(r)
		}
		return nil
	}
	switch p.Objective {
	case ObjectiveUndirected:
		r, err := core.Undirected(p.Graph, p.Eps, ex)
		if err != nil {
			return err
		}
		sol.fillResult(r)
	case ObjectiveWeighted:
		r, err := core.UndirectedWeighted(p.Graph, p.Eps, ex)
		if err != nil {
			return err
		}
		sol.fillResult(r)
	case ObjectiveAtLeastK:
		r, err := core.AtLeastK(p.Graph, p.K, p.Eps, ex)
		if err != nil {
			return err
		}
		sol.fillResult(r)
	case ObjectiveExact:
		if err := ex.Begin(); err != nil {
			return err
		}
		r, err := flow.ExactDensest(ex.Ctx, p.Graph)
		if err != nil {
			return wrapCtxErr(err, ex)
		}
		sol.Set, sol.Density, sol.Passes = r.Set, r.Density, r.FlowCalls
		sol.ExactNumer, sol.ExactDenom = r.Numer, r.Denom
	case ObjectiveGreedy:
		if err := ex.Begin(); err != nil {
			return err
		}
		var r *charikar.Result
		var err error
		if p.Graph.Weighted() {
			r, err = charikar.DensestWeighted(ex.Ctx, p.Graph)
		} else {
			r, err = charikar.Densest(ex.Ctx, p.Graph)
		}
		if err != nil {
			return wrapCtxErr(err, ex)
		}
		sol.Set, sol.Density, sol.Passes = r.Set, r.Density, r.Peels
	}
	return nil
}

// wrapCtxErr turns a mid-run cancellation of the Exact or Greedy
// solvers into the uniform *PartialError shape every other backend
// returns (they have no per-pass trace to carry).
func wrapCtxErr(err error, ex core.Opts) error {
	if ex.Ctx != nil {
		if ctxErr := ex.Ctx.Err(); ctxErr != nil && err == ctxErr {
			return &core.PartialError{Err: err}
		}
	}
	return err
}

// solveDirected dispatches the directed objectives on the in-memory
// backends.
func solveDirected(sol *Solution, p Problem, o Options, ex core.Opts) error {
	if p.Backend == BackendMapReduce {
		r, err := mapreduce.Directed(p.Directed, p.C, p.Eps, o.MapReduce, ex)
		if err != nil {
			return err
		}
		sol.S, sol.T, sol.Density, sol.Passes = r.S, r.T, r.Density, r.Passes
		sol.MRDirectedRounds = r.Rounds
		sol.Stats.BytesSpilled = r.SpilledBytes
		sol.setMRFaults(r.Faults)
		sol.DirectedTrace = make([]DirectedPassStat, len(r.Rounds))
		for i, rd := range r.Rounds {
			sol.DirectedTrace[i] = rd.AsDirectedPassStat()
		}
		return nil
	}
	switch p.Objective {
	case ObjectiveDirected:
		r, err := core.Directed(p.Directed, p.C, p.Eps, ex)
		if err != nil {
			return err
		}
		sol.fillDirected(r)
	case ObjectiveDirectedSweep:
		sw, err := core.DirectedSweep(p.Directed, p.Delta, p.Eps, ex)
		if err != nil {
			return err
		}
		sol.Sweep = sw
		sol.fillDirected(sw.Best)
		sol.Passes = sw.Best.Passes
	}
	return nil
}

// solveWindow replays a timestamped edge stream through a sliding-
// window Maintainer (ObjectiveSlidingWindow): each edge is inserted at
// its timestamp and the watermark advances with the stream, expiring
// old buckets as it goes. The final Flush is an epoch boundary, so the
// answer is bit-identical to a from-scratch peel of the edges still
// live at end of stream.
func solveWindow(sol *Solution, p Problem, o Options, ex core.Opts) error {
	if err := ex.Begin(); err != nil {
		return err
	}
	ws := p.WeightedEdges
	if ws == nil {
		f, err := stream.OpenWeightedFileStream(p.Path)
		if err != nil {
			return err
		}
		defer f.Close()
		ws = f
	}
	m, err := dynamic.New(dynamic.Config{
		NumNodes: ws.NumNodes(),
		Eps:      p.Eps,
		Window:   p.Window,
		Buckets:  p.Buckets,
		Workers:  o.Workers,
	})
	if err != nil {
		return err
	}
	if err := ws.Reset(); err != nil {
		return err
	}
	for i := 0; ; i++ {
		e, err := ws.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		ts := int64(e.Weight)
		if float64(ts) != e.Weight || ts < 1 {
			return fmt.Errorf("densestream: SlidingWindow edge (%d,%d) needs a positive integer timestamp in the weight column, got %v", e.U, e.V, e.Weight)
		}
		if err := m.InsertAt(e.U, e.V, ts); err != nil {
			return err
		}
		if err := m.Advance(ts); err != nil {
			return err
		}
		if i%(1<<12) == 0 {
			if err := ex.Ctx.Err(); err != nil {
				return &core.PartialError{Err: err}
			}
		}
	}
	r, err := m.Flush()
	if err != nil {
		return err
	}
	sol.fillResult(r)
	stats := m.Stats()
	sol.Dynamic = &stats
	recordScan(sol, ws)
	return nil
}

// solveStream dispatches the streaming backends, opening (and closing)
// file streams when the input is a Path.
func solveStream(sol *Solution, p Problem, o Options, ex core.Opts) error {
	if p.Objective == ObjectiveWeighted {
		ws := p.WeightedEdges
		if ws == nil && p.Graph != nil {
			ws = stream.FromUndirectedWeighted(p.Graph)
		}
		if ws == nil {
			f, err := stream.OpenWeightedFileStream(p.Path)
			if err != nil {
				return err
			}
			defer f.Close()
			ws = f
		}
		r, err := stream.UndirectedWeighted(ws, p.Eps, ex)
		if err != nil {
			return err
		}
		sol.fillResult(r)
		recordScan(sol, ws)
		return nil
	}

	es := p.Edges
	switch {
	case es == nil && p.Graph != nil:
		es = stream.FromUndirected(p.Graph)
	case es == nil && p.Directed != nil:
		es = stream.FromDirected(p.Directed)
	case es == nil:
		f, err := stream.OpenFileStream(p.Path)
		if err != nil {
			return err
		}
		defer f.Close()
		es = f
	}

	switch p.Objective {
	case ObjectiveUndirected:
		if p.Backend == BackendStreamSketched {
			cfg := o.Sketch
			if cfg == (SketchConfig{}) {
				cfg = defaultSketch(es.NumNodes())
			}
			// The sketch is linear, so the sharded scan folds to exactly
			// the sequential sketch state: one lane per scan worker,
			// bit-identical Solutions at any worker count and for both
			// disk formats.
			sk, err := sketch.NewStriped(cfg.Tables, cfg.Buckets, cfg.Seed, stream.SketchScanLanes(o.Workers))
			if err != nil {
				return err
			}
			r, err := stream.UndirectedSketched(es, p.Eps, sk, ex)
			if err != nil {
				return err
			}
			sol.fillResult(r)
			sol.SketchMemoryWords = sk.MemoryWords()
			recordScan(sol, es)
			return nil
		}
		r, err := stream.Undirected(es, p.Eps, ex)
		if err != nil {
			return err
		}
		sol.fillResult(r)
	case ObjectiveAtLeastK:
		r, err := stream.AtLeastK(es, p.K, p.Eps, ex)
		if err != nil {
			return err
		}
		sol.fillResult(r)
	case ObjectiveDirected:
		r, err := stream.Directed(es, p.C, p.Eps, ex)
		if err != nil {
			return err
		}
		sol.fillDirected(r)
	case ObjectiveDirectedSweep:
		sw, err := stream.DirectedSweep(es, p.Delta, p.Eps, ex)
		if err != nil {
			return err
		}
		sol.Sweep = sw
		sol.fillDirected(sw.Best)
		sol.Passes = sw.Best.Passes
	}
	recordScan(sol, es)
	return nil
}

// recordScan copies a file-backed stream's cumulative disk-read
// counter into the solution's stats; in-memory streams report nothing.
func recordScan(sol *Solution, s any) {
	if br, ok := s.(interface{ BytesScanned() int64 }); ok {
		sol.Stats.BytesScanned = br.BytesScanned()
	}
}

func (s *Solution) fillResult(r *core.Result) {
	s.Set, s.Density, s.Passes, s.Trace = r.Set, r.Density, r.Passes, r.Trace
}

func (s *Solution) fillDirected(r *DirectedResult) {
	s.S, s.T, s.Density, s.Passes, s.DirectedTrace = r.S, r.T, r.Density, r.Passes, r.Trace
}

func (s *Solution) fillMR(r *mapreduce.MRResult) {
	s.Set, s.Density, s.Passes = r.Set, r.Density, r.Passes
	s.MRRounds = r.Rounds
	s.Stats.BytesSpilled = r.SpilledBytes
	s.setMRFaults(r.Faults)
	s.Trace = make([]PassStat, len(r.Rounds))
	for i, rd := range r.Rounds {
		s.Trace[i] = rd.AsPassStat()
	}
}

// setMRFaults attaches a MapReduce run's fault-tolerance counters to the
// solution; an all-zero record (no failure plan, no checkpointing) stays
// off the wire.
func (s *Solution) setMRFaults(fs MRFaultStats) {
	if fs != (MRFaultStats{}) {
		s.MRFaults = &fs
	}
}

// defaultSketch is the sketch shape used when no WithSketch option was
// given (matching the densest CLI): the paper's 5 tables, n/20 buckets
// (at least 16), seed 1. An explicitly configured SketchConfig is used
// verbatim — including Seed 0, which is a valid seed — and validated by
// the sketch constructor.
func defaultSketch(n int) SketchConfig {
	buckets := n / 20
	if buckets < 16 {
		buckets = 16
	}
	return SketchConfig{Tables: 5, Buckets: buckets, Seed: 1}
}
