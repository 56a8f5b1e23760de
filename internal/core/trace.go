// Package core implements the paper's three peeling algorithms:
//
//   - Algorithm 1: (2+2ε)-approximate densest subgraph in undirected
//     graphs, removing every node of degree ≤ 2(1+ε)·ρ(S) per pass.
//   - Algorithm 2: (3+3ε)-approximate densest-at-least-k subgraph,
//     removing only the ε/(1+ε)·|S| lowest-degree candidates per pass.
//   - Algorithm 3: (2+2ε)-approximate directed densest subgraph for a
//     known side ratio c, plus the powers-of-δ sweep over c.
//
// All algorithms are implemented over O(n) node state (alive flags plus
// degree counters). The runtimes that learn degrees by re-reading the
// edges — internal/stream and internal/mapreduce — share their per-pass
// logic through ScanPeel and ScanPeelDirected and supply only a degree
// oracle; the in-memory engines keep degrees current by decrements and
// run their own loops, one for Algorithms 1 and 2. Every runtime cuts
// Algorithm 2's quota as one (degree, id) key selected in linear time.
// Tests assert exact agreement between them.
package core

// PassStat records the state of the remaining graph after one pass of a
// peeling algorithm; index 0 is the initial state before any removal.
// The JSON tags are part of the public Solution wire contract.
type PassStat struct {
	Pass    int     `json:"pass"`    // 0 for the initial state, then 1, 2, ...
	Nodes   int     `json:"nodes"`   // |S| after this pass (undirected), or |S|+|T| (directed)
	Edges   int64   `json:"edges"`   // |E(S)| or |E(S,T)| after this pass
	Density float64 `json:"density"` // ρ after this pass
	Removed int     `json:"removed"` // nodes removed in this pass
}

// DirectedPassStat records the state after one pass of Algorithm 3.
type DirectedPassStat struct {
	Pass       int     `json:"pass"`
	SizeS      int     `json:"sizeS"`
	SizeT      int     `json:"sizeT"`
	Edges      int64   `json:"edges"` // |E(S,T)|
	Density    float64 `json:"density"`
	RemovedS   int     `json:"removedS"`
	RemovedT   int     `json:"removedT"`
	PeeledSide byte    `json:"peeledSide"` // 'S' or 'T' ('-' for the initial state)
}
