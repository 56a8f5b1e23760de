package densestream

import (
	"fmt"
	"math"
	"strings"
)

// Objective selects what a Solve call computes: which of the paper's
// algorithms (or baselines) runs, and therefore which Problem parameters
// and Solution fields are meaningful.
type Objective int

const (
	// ObjectiveUndirected is Algorithm 1: the (2+2ε)-approximate
	// densest subgraph of an undirected graph. Uses Eps.
	ObjectiveUndirected Objective = iota
	// ObjectiveWeighted is Algorithm 1 over weighted degrees (unit
	// weights are accepted). Uses Eps.
	ObjectiveWeighted
	// ObjectiveAtLeastK is Algorithm 2: the densest subgraph with at
	// least K nodes, a (3+3ε)-approximation. Uses Eps and K.
	ObjectiveAtLeastK
	// ObjectiveDirected is Algorithm 3 for a fixed side ratio
	// c = |S*|/|T*|. Uses Eps and C.
	ObjectiveDirected
	// ObjectiveDirectedSweep runs Algorithm 3 for c = Delta^j covering
	// [1/n, n] and keeps the best pair. Uses Eps and Delta.
	ObjectiveDirectedSweep
	// ObjectiveExact is Goldberg's flow-based exact solver — ground
	// truth at moderate scale. No parameters.
	ObjectiveExact
	// ObjectiveGreedy is Charikar's one-node-at-a-time greedy
	// 2-approximation baseline (weighted graphs use weighted degrees).
	// No parameters.
	ObjectiveGreedy
	// ObjectiveSlidingWindow replays a timestamped edge stream through
	// an incremental Maintainer with a sliding window: an edge is live
	// while the newest timestamp seen is within Window of its own, and
	// the answer is Algorithm 1's (2+2ε)-approximation over the edges
	// still live at end of stream. The input is WeightedEdges or a Path
	// whose weight column carries the (positive integer) timestamps.
	// Uses Eps, Window, and Buckets.
	ObjectiveSlidingWindow
)

// objectiveNames is the wire vocabulary of Objective, indexed by value.
// These strings are the documented public contract: String, MarshalText,
// and UnmarshalText all speak them, so a JSON Problem names its
// objective "Undirected", "AtLeastK", ... exactly as go doc does.
var objectiveNames = [...]string{
	ObjectiveUndirected:    "Undirected",
	ObjectiveWeighted:      "Weighted",
	ObjectiveAtLeastK:      "AtLeastK",
	ObjectiveDirected:      "Directed",
	ObjectiveDirectedSweep: "DirectedSweep",
	ObjectiveExact:         "Exact",
	ObjectiveGreedy:        "Greedy",
	ObjectiveSlidingWindow: "SlidingWindow",
}

// String implements fmt.Stringer.
func (o Objective) String() string {
	if o >= 0 && int(o) < len(objectiveNames) {
		return objectiveNames[o]
	}
	return fmt.Sprintf("Objective(%d)", int(o))
}

// MarshalText implements encoding.TextMarshaler: an Objective appears
// on the wire as its String name ("Undirected", "AtLeastK", ...), so a
// JSON Problem or Solution is self-describing. Out-of-range values are
// an error, never a number.
func (o Objective) MarshalText() ([]byte, error) {
	if o < 0 || int(o) >= len(objectiveNames) {
		return nil, fmt.Errorf("densestream: cannot marshal unknown Objective(%d)", int(o))
	}
	return []byte(objectiveNames[o]), nil
}

// UnmarshalText implements encoding.TextUnmarshaler, accepting the
// String names case-insensitively ("atleastk" and "AtLeastK" both
// parse). Unknown names list the valid vocabulary in the error.
func (o *Objective) UnmarshalText(text []byte) error {
	for i, name := range objectiveNames {
		if strings.EqualFold(string(text), name) {
			*o = Objective(i)
			return nil
		}
	}
	return fmt.Errorf("densestream: unknown objective %q (valid: %s)", text, strings.Join(objectiveNames[:], ", "))
}

// Backend selects which execution model runs the objective. Every
// backend computes the same answer for the same Problem (bit-identical
// Set/Density/Passes; only the backend-specific Solution stats differ),
// except BackendStreamSketched, which trades exactness for sublinear
// counter memory, and except for a Path input, whose node ids depend on
// the backend (see Problem.Path).
type Backend int

const (
	// BackendPeel is the in-memory sharded peeling engine — the fastest
	// path when the graph fits in RAM. Honors WithWorkers.
	BackendPeel Backend = iota
	// BackendStream re-scans an edge stream once per pass holding O(n)
	// node state (semi-streaming). Both in-memory and file streams
	// shard their per-pass scans across WithWorkers workers (files as
	// byte ranges with line-boundary resync), with bit-identical
	// results at every worker count.
	BackendStream
	// BackendStreamSketched is BackendStream with a Count-Sketch degree
	// oracle (§5.1) replacing the O(n) exact counter; configure it with
	// WithSketch. Only ObjectiveUndirected supports it.
	BackendStreamSketched
	// BackendMapReduce runs the peeling rounds on the simulated
	// MapReduce cluster (§5.2); configure the cluster shape with
	// WithMapReduceConfig.
	BackendMapReduce
)

// backendNames is the wire vocabulary of Backend; see objectiveNames.
var backendNames = [...]string{
	BackendPeel:           "Peel",
	BackendStream:         "Stream",
	BackendStreamSketched: "StreamSketched",
	BackendMapReduce:      "MapReduce",
}

// String implements fmt.Stringer.
func (b Backend) String() string {
	if b >= 0 && int(b) < len(backendNames) {
		return backendNames[b]
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// MarshalText implements encoding.TextMarshaler; see
// Objective.MarshalText.
func (b Backend) MarshalText() ([]byte, error) {
	if b < 0 || int(b) >= len(backendNames) {
		return nil, fmt.Errorf("densestream: cannot marshal unknown Backend(%d)", int(b))
	}
	return []byte(backendNames[b]), nil
}

// UnmarshalText implements encoding.TextUnmarshaler, accepting the
// String names case-insensitively.
func (b *Backend) UnmarshalText(text []byte) error {
	for i, name := range backendNames {
		if strings.EqualFold(string(text), name) {
			*b = Backend(i)
			return nil
		}
	}
	return fmt.Errorf("densestream: unknown backend %q (valid: %s)", text, strings.Join(backendNames[:], ", "))
}

// Problem declares one densest-subgraph computation: the objective and
// its parameters, the input, and the backend that should execute it.
// The zero value of Objective and Backend is the common case
// (ObjectiveUndirected on BackendPeel), so
//
//	Solve(ctx, Problem{Graph: g, Eps: 0.5})
//
// is the minimal complete request. Exactly one input field must be set;
// parameters not used by the objective are ignored.
//
// A Problem is JSON-serializable and the tagged fields are the stable
// wire contract — the densestd daemon accepts exactly this shape (plus
// a graph-registry reference in place of the in-process input fields,
// which do not travel):
//
//	{"objective": "AtLeastK", "backend": "Peel", "eps": 0.5, "k": 100}
type Problem struct {
	Objective Objective `json:"objective"`
	Backend   Backend   `json:"backend"`

	// Eps is the peeling slack ε ≥ 0 of Algorithms 1–3 (ignored by
	// Exact and Greedy).
	Eps float64 `json:"eps,omitempty"`
	// K is the minimum subgraph size of ObjectiveAtLeastK.
	K int `json:"k,omitempty"`
	// C is the fixed side ratio |S|/|T| of ObjectiveDirected.
	C float64 `json:"c,omitempty"`
	// Delta is the ratio step (> 1) of ObjectiveDirectedSweep.
	Delta float64 `json:"delta,omitempty"`
	// Window is the sliding-window width of ObjectiveSlidingWindow, in
	// the timestamp units of the input's weight column.
	Window int64 `json:"window,omitempty"`
	// Buckets is ObjectiveSlidingWindow's expiry quantization: the
	// window is cut into this many time buckets and edges expire in
	// whole-bucket batches. 0 means 16.
	Buckets int `json:"buckets,omitempty"`

	// Graph is an in-memory undirected input (undirected objectives).
	Graph *UndirectedGraph `json:"-"`
	// Directed is an in-memory directed input (directed objectives).
	Directed *DirectedGraph `json:"-"`
	// Edges is an edge-stream input: undirected for the undirected
	// objectives, U→V for the directed ones. Stream backends scan it
	// pass by pass; it is invalid for in-memory backends.
	Edges EdgeStream `json:"-"`
	// WeightedEdges is a weighted edge-stream input for
	// ObjectiveWeighted on BackendStream.
	WeightedEdges WeightedEdgeStream `json:"-"`
	// Path is an edge-list file input. Stream backends re-read it every
	// pass (true external-memory streaming; requires dense integer
	// ids) until one pass's live edges fit one counter lane (n edges,
	// n/2 weighted; never on BackendStreamSketched), then hold those in
	// memory and read the file no more, so a file truncated after that
	// pass no longer fails the solve. In-memory backends load it once
	// with the sharded ReadUndirectedFile/ReadDirectedFile (arbitrary
	// labels).
	//
	// The two routes number nodes differently, so backends need not
	// agree on a Path. A stream backend's nodes are the file's ids
	// 0..max id, isolated ids included. An in-memory backend's Set (or
	// S and T) holds the ids that ReadUndirectedFile or ReadDirectedFile
	// assigns: labels interned in first-seen order, with no isolated
	// ids; that loader's LabelMap maps them back to labels. On the file
	// "5 6\n6 7\n5 7\n0 1\n" at Eps 0.5, BackendPeel and
	// BackendMapReduce return Set [0 1 2 3 4] at density 0.8, while
	// BackendStream returns [5 6 7] at density 1.
	Path string `json:"path,omitempty"`
}

// directedObjective reports whether the objective peels an (S, T) pair.
func (p Problem) directedObjective() bool {
	return p.Objective == ObjectiveDirected || p.Objective == ObjectiveDirectedSweep
}

// Validate checks that the Problem is well-formed: exactly one input is
// set, the input and backend match the objective, and the parameters
// the objective consumes are in range. Every error names the Problem
// field at fault, so a server can forward it verbatim as a 400-level
// response body. Solve calls Validate before dispatching; calling it
// directly is useful to reject a request before queueing it.
//
// Graph-dependent constraints (such as K not exceeding the node count)
// are still enforced by the algorithms, which see the input.
func (p Problem) Validate() error {
	if err := p.validateRouting(); err != nil {
		return err
	}
	return p.validateParams()
}

// validateParams checks the parameter fields the objective consumes.
func (p Problem) validateParams() error {
	switch p.Objective {
	case ObjectiveUndirected, ObjectiveWeighted, ObjectiveAtLeastK, ObjectiveDirected, ObjectiveDirectedSweep, ObjectiveSlidingWindow:
		if p.Eps < 0 || math.IsNaN(p.Eps) || math.IsInf(p.Eps, 0) {
			return fmt.Errorf("densestream: Problem.Eps must be a finite value >= 0 for objective %s, got %v", p.Objective, p.Eps)
		}
	}
	switch p.Objective {
	case ObjectiveAtLeastK:
		if p.K < 1 {
			return fmt.Errorf("densestream: Problem.K must be >= 1 for objective AtLeastK, got %d", p.K)
		}
	case ObjectiveDirected:
		if !(p.C > 0) || math.IsInf(p.C, 0) || math.IsNaN(p.C) {
			return fmt.Errorf("densestream: Problem.C must be a finite value > 0 for objective Directed, got %v", p.C)
		}
	case ObjectiveDirectedSweep:
		if !(p.Delta > 1) || math.IsInf(p.Delta, 0) || math.IsNaN(p.Delta) {
			return fmt.Errorf("densestream: Problem.Delta must be a finite value > 1 for objective DirectedSweep, got %v", p.Delta)
		}
	case ObjectiveSlidingWindow:
		if p.Window < 1 {
			return fmt.Errorf("densestream: Problem.Window must be >= 1 for objective SlidingWindow, got %d", p.Window)
		}
		if p.Buckets < 0 {
			return fmt.Errorf("densestream: Problem.Buckets must be >= 0 for objective SlidingWindow, got %d", p.Buckets)
		}
	}
	return nil
}

// validateRouting checks the routing of the Problem — that exactly one
// input is set, that it matches the objective, and that the backend
// supports the objective.
func (p Problem) validateRouting() error {
	inputs := 0
	for _, set := range []bool{p.Graph != nil, p.Directed != nil, p.Edges != nil, p.WeightedEdges != nil, p.Path != ""} {
		if set {
			inputs++
		}
	}
	if inputs != 1 {
		return fmt.Errorf("densestream: Problem needs exactly one input (Graph, Directed, Edges, WeightedEdges, or Path), got %d", inputs)
	}

	switch p.Objective {
	case ObjectiveUndirected, ObjectiveWeighted, ObjectiveAtLeastK, ObjectiveExact, ObjectiveGreedy:
		if p.Directed != nil {
			return fmt.Errorf("densestream: objective %s needs an undirected input, got Directed", p.Objective)
		}
		if p.WeightedEdges != nil && p.Objective != ObjectiveWeighted {
			return fmt.Errorf("densestream: objective %s does not accept WeightedEdges", p.Objective)
		}
		if p.Edges != nil && p.Objective == ObjectiveWeighted {
			return fmt.Errorf("densestream: ObjectiveWeighted needs WeightedEdges (or a Graph/Path), not Edges")
		}
	case ObjectiveDirected, ObjectiveDirectedSweep:
		if p.Graph != nil || p.WeightedEdges != nil {
			return fmt.Errorf("densestream: objective %s needs a directed input (Directed, Edges, or Path)", p.Objective)
		}
	case ObjectiveSlidingWindow:
		if p.WeightedEdges == nil && p.Path == "" {
			return fmt.Errorf("densestream: ObjectiveSlidingWindow needs timestamped edges: WeightedEdges or a Path with the timestamp in the weight column")
		}
	default:
		return fmt.Errorf("densestream: unknown objective %s", p.Objective)
	}

	switch p.Backend {
	case BackendPeel:
		// SlidingWindow's input is a timestamped stream by nature, but
		// the replay peels in memory — it is a BackendPeel objective.
		if p.Objective != ObjectiveSlidingWindow && (p.Edges != nil || p.WeightedEdges != nil) {
			return fmt.Errorf("densestream: BackendPeel needs an in-memory graph or a Path, not an edge stream")
		}
	case BackendStream:
		switch p.Objective {
		case ObjectiveExact, ObjectiveGreedy, ObjectiveSlidingWindow:
			return fmt.Errorf("densestream: objective %s runs on BackendPeel only", p.Objective)
		}
	case BackendStreamSketched:
		if p.Objective != ObjectiveUndirected {
			return fmt.Errorf("densestream: BackendStreamSketched supports ObjectiveUndirected only, got %s", p.Objective)
		}
		if p.WeightedEdges != nil {
			return fmt.Errorf("densestream: BackendStreamSketched does not accept WeightedEdges")
		}
	case BackendMapReduce:
		switch p.Objective {
		case ObjectiveUndirected, ObjectiveAtLeastK, ObjectiveDirected:
		default:
			return fmt.Errorf("densestream: BackendMapReduce supports Undirected, AtLeastK, and Directed, got %s", p.Objective)
		}
		if p.Edges != nil || p.WeightedEdges != nil {
			return fmt.Errorf("densestream: BackendMapReduce needs an in-memory graph or a Path, not an edge stream")
		}
	default:
		return fmt.Errorf("densestream: unknown backend %s", p.Backend)
	}
	return nil
}
