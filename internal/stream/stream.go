// Package stream implements the semi-streaming model of the paper: node
// state fits in memory (O(n) words) while edges live on an external
// stream that can only be re-scanned pass by pass.
//
// EdgeStream abstracts the edge source; implementations cover in-memory
// slices (tests, benchmarks), frozen graphs, and edge-list files on disk
// (true external streaming). Every objective here (Algorithms 1–3, the
// weighted and sketched variants, the δ-sweep) is the core scan-peel
// policy over one degree oracle: a scan that re-streams the edges once
// per pass, split across workers through the stream's shards, into an
// O(n) striped counter. Shards are edgeio.BlockReaders, read a block at
// a time, and a binary file's blocks that an earlier pass found without
// a live edge are not read again. A stream that does not implement
// Sharded is scanned as a single shard through its own Reset and Next.
// Once one pass's live edges fit one counter lane of memory, the scan
// holds them and the rest of the run reads no input, so the paper's
// pass complexity bounds the passes over the input from above: the
// algorithm's passes are exactly the paper's, and the input passes are
// at most that many.
package stream

import (
	"fmt"
	"io"

	"densestream/internal/edgeio"
	"densestream/internal/graph"
)

// Edge is one streamed edge. For undirected streams the order of U and V
// is arbitrary; for directed streams the edge points U → V. It is the
// edgeio record type, so streams and the out-of-core I/O layer share
// edges without conversion.
type Edge = edgeio.Edge

// EdgeStream is a re-scannable stream of edges over nodes 0..NumNodes()-1.
// A full scan is: Reset, then Next until io.EOF.
type EdgeStream interface {
	// NumNodes returns the number of nodes (known ahead of time in the
	// semi-streaming model).
	NumNodes() int
	// Reset rewinds the stream for a new pass.
	Reset() error
	// Next returns the next edge of the current pass, or io.EOF.
	Next() (Edge, error)
}

// Sharded is a stream (an EdgeStream or a WeightedEdgeStream) whose
// edges can be partitioned into independent shards so one pass can be
// scanned by several workers at once. BlockShards(k) returns between 1
// and k shards that together yield exactly the edges of one full scan,
// a block at a time and with the weight column on a weighted stream,
// each safe to drive from its own goroutine. The decomposition must
// depend only on the data and k — never on the worker count — because
// the weighted scan folds per-shard float partials in shard order and
// promises bit-identical results for every worker count. The streaming
// scan uses it when available and reads a stream that does not
// implement it as one shard.
type Sharded interface {
	NumNodes() int
	BlockShards(k int) []edgeio.BlockReader
}

// SliceStream streams a fixed slice of edges. It implements EdgeStream
// and Sharded.
type SliceStream struct {
	n      int
	src    edgeio.SliceSource
	pos    int
	shards []edgeio.BlockReader // memoized per shardK; repositioned by Reset each pass
	shardK int
}

// NewSliceStream returns a stream over the given edges on n nodes.
func NewSliceStream(n int, edges []Edge) (*SliceStream, error) {
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("%w: edge (%d,%d) with n=%d", graph.ErrNodeRange, e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("%w: node %d", graph.ErrSelfLoop, e.U)
		}
	}
	return &SliceStream{n: n, src: edgeio.SliceSource{Edges: edges}}, nil
}

// NumNodes implements EdgeStream.
func (s *SliceStream) NumNodes() int { return s.n }

// Reset implements EdgeStream.
func (s *SliceStream) Reset() error { s.pos = 0; return nil }

// Next implements EdgeStream.
func (s *SliceStream) Next() (Edge, error) {
	if s.pos >= len(s.src.Edges) {
		return Edge{}, io.EOF
	}
	e := s.src.Edges[s.pos]
	s.pos++
	return e, nil
}

// BlockShards implements Sharded: the edge slice is split into up to k
// contiguous ranges through the edgeio resident source, so in-memory
// and on-disk scans use one decomposition rule. The shard set is
// memoized per k, so the per-pass calls of the scan reuse the same
// cursors.
func (s *SliceStream) BlockShards(k int) []edgeio.BlockReader {
	k = max(k, 1)
	if s.shards == nil || s.shardK != k {
		s.shards, s.shardK = s.src.BlockShards(k), k
	}
	return s.shards
}

// FromUndirected adapts a frozen undirected graph into a stream that
// yields each edge once.
func FromUndirected(g *graph.Undirected) *SliceStream {
	edges := make([]Edge, 0, g.NumEdges())
	g.Edges(func(u, v int32, _ float64) bool {
		edges = append(edges, Edge{U: u, V: v})
		return true
	})
	return &SliceStream{n: g.NumNodes(), src: edgeio.SliceSource{Edges: edges}}
}

// FromDirected adapts a frozen directed graph into a stream of directed
// edges.
func FromDirected(g *graph.Directed) *SliceStream {
	edges := make([]Edge, 0, g.NumEdges())
	g.Edges(func(u, v int32) bool {
		edges = append(edges, Edge{U: u, V: v})
		return true
	})
	return &SliceStream{n: g.NumNodes(), src: edgeio.SliceSource{Edges: edges}}
}

// nextBlockEdges is the block size nextBlocks reads a stream in.
const nextBlockEdges = 1024

// nextBlocks is the one shard of a stream that does not implement
// Sharded: it reads the stream through its own Reset and Next,
// nextBlockEdges edges per unnumbered block, and keeps weights only for
// a WeightedEdgeStream. Block returns io.EOF once the stream is
// drained, and hands out the edges read before an error ahead of the
// error itself, so a scan meets bad edges and errors in stream order.
type nextBlocks struct {
	reset   func() error
	next    func() (Edge, float64, error)
	edges   []Edge
	weights []float64 // weighted streams only
	err     error
}

// newNextBlocks returns the nextBlocks of es, an EdgeStream or a
// WeightedEdgeStream.
func newNextBlocks(es rescannable) *nextBlocks {
	a := &nextBlocks{reset: es.Reset, edges: make([]Edge, 0, nextBlockEdges)}
	switch es := es.(type) {
	case EdgeStream:
		a.next = func() (Edge, float64, error) {
			e, err := es.Next()
			return e, 1, err
		}
	case WeightedEdgeStream:
		a.weights = make([]float64, 0, nextBlockEdges)
		a.next = func() (Edge, float64, error) {
			e, err := es.Next()
			return Edge{U: e.U, V: e.V}, e.Weight, err
		}
	}
	return a
}

// Reset rewinds the stream for a new pass.
func (a *nextBlocks) Reset() error {
	a.err = nil
	return a.reset()
}

// Blocks reports an unnumbered range; the stream ends with io.EOF.
func (a *nextBlocks) Blocks() (lo, hi int) { return 0, edgeio.Unnumbered }

// Block reads the stream's next block, whatever the number asked for.
func (a *nextBlocks) Block(int) ([]Edge, []float64, error) {
	edges, weights := a.edges[:0], a.weights[:0]
	for a.err == nil && len(edges) < cap(edges) {
		var e Edge
		var w float64
		if e, w, a.err = a.next(); a.err == nil {
			edges = append(edges, e)
			if a.weights != nil {
				weights = append(weights, w)
			}
		}
	}
	if len(edges) == 0 {
		return nil, nil, a.err
	}
	return edges, weights, nil
}
