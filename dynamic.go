package densestream

import (
	"densestream/internal/core"
	"densestream/internal/dynamic"
)

// MaintainerConfig shapes a Maintainer — the incremental counterpart of
// a Problem{Objective: ObjectiveUndirected, Backend: BackendPeel, Eps}
// request over a mutating edge set.
type MaintainerConfig struct {
	// NumNodes fixes the node universe [0, NumNodes). Required.
	NumNodes int
	// Eps is the peeling slack ε ≥ 0 of each epoch's re-peel; the
	// maintained solution is a (2+2ε)-approximation at every epoch
	// boundary.
	Eps float64
	// DriftEps is the between-epochs slack ε′ ≥ Eps (0 means Eps): the
	// maintainer re-peels only when it can no longer certify the
	// maintained solution (2+2ε′)-approximate from the last epoch plus
	// the density drift bound. Larger values mean fewer re-peels.
	DriftEps float64
	// Window, when > 0, makes the maintainer sliding-window: edges
	// expire once the Advance watermark passes their timestamp by more
	// than Window (quantized to Buckets batches per window).
	Window int64
	// Buckets is the window expiry quantization (default 16).
	Buckets int
	// Workers is the re-peel worker count (<= 0 means GOMAXPROCS);
	// results are bit-identical for every value.
	Workers int
}

// MaintainerStats are the maintainer's counters and gauges; see the
// internal/dynamic package for field semantics.
type MaintainerStats = dynamic.Stats

// Maintainer owns a mutable edge multiset and maintains an approximate
// densest subgraph over it incrementally: Insert/Delete/Advance mutate
// the live edge set in O(1) amortized, and Current returns the
// maintained solution, re-peeling lazily — only when the drift-bound
// certificate breaks — from the previous epoch's compacted CSR
// checkpoint rather than from scratch.
//
// Contract: at every epoch boundary (a re-peel, or an explicit Flush)
// the returned Solution is bit-identical to
//
//	Solve(ctx, Problem{Eps: cfg.Eps, Graph: <live edges>}, WithWorkers(cfg.Workers))
//
// on the same live edge set; between boundaries it is a certified
// (2+2·DriftEps)-approximation. All methods are safe for concurrent
// use.
type Maintainer struct {
	m   *dynamic.Maintainer
	eps float64
}

// NewMaintainer returns a Maintainer over an initially empty graph on
// cfg.NumNodes nodes.
func NewMaintainer(cfg MaintainerConfig) (*Maintainer, error) {
	m, err := dynamic.New(dynamic.Config{
		NumNodes: cfg.NumNodes,
		Eps:      cfg.Eps,
		DriftEps: cfg.DriftEps,
		Window:   cfg.Window,
		Buckets:  cfg.Buckets,
		Workers:  cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	return &Maintainer{m: m, eps: cfg.Eps}, nil
}

// Insert adds one instance of the undirected edge {u, v}. Parallel
// inserts of the same edge stack as a multiset; the edge stays live
// until every instance is deleted or expired. On a windowed maintainer
// the edge is stamped with the current watermark; use InsertAt to
// supply event time.
func (m *Maintainer) Insert(u, v int32) error { return m.m.Insert(u, v) }

// InsertAt adds one instance of {u, v} stamped with event time ts.
// Without a Window the timestamp is ignored; with one, the edge joins
// its time bucket (or is dropped if that bucket already expired).
func (m *Maintainer) InsertAt(u, v int32, ts int64) error { return m.m.InsertAt(u, v, ts) }

// Delete removes one instance of {u, v} (the oldest, on a windowed
// maintainer). Deleting an absent edge is an error.
func (m *Maintainer) Delete(u, v int32) error { return m.m.Delete(u, v) }

// Advance moves the window watermark to now (monotone) and expires
// every whole bucket that has left the window — the amortized O(1)
// batch-delete path. No-op without a Window.
func (m *Maintainer) Advance(now int64) error { return m.m.Advance(now) }

// Current returns the maintained solution, re-peeling first only if the
// drift trigger has fired (or nothing has been computed yet).
func (m *Maintainer) Current() (*Solution, error) {
	r, err := m.m.Current()
	if err != nil {
		return nil, err
	}
	return m.wrap(r), nil
}

// Flush forces an epoch boundary — the returned Solution reflects the
// live edge set exactly, as a from-scratch Solve would.
func (m *Maintainer) Flush() (*Solution, error) {
	r, err := m.m.Flush()
	if err != nil {
		return nil, err
	}
	return m.wrap(r), nil
}

func (m *Maintainer) wrap(r *core.Result) *Solution {
	sol := &Solution{Objective: ObjectiveUndirected, Backend: BackendPeel}
	sol.fillResult(r)
	return sol
}

// Epoch returns the number of re-peels performed so far.
func (m *Maintainer) Epoch() int64 { return m.m.Epoch() }

// Stale reports whether the next Current will re-peel.
func (m *Maintainer) Stale() bool { return m.m.Stale() }

// Stats returns a snapshot of the maintainer's counters and gauges.
func (m *Maintainer) Stats() MaintainerStats { return m.m.Stats() }

// Edges returns the distinct live edge set with U < V, (U,V)-sorted —
// exactly the edges a from-scratch Solve at this instant would see.
func (m *Maintainer) Edges() []StreamEdge {
	ge := m.m.Edges()
	out := make([]StreamEdge, len(ge))
	for i, e := range ge {
		out[i] = StreamEdge{U: e.U, V: e.V}
	}
	return out
}
