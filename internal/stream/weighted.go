package stream

import (
	"fmt"
	"io"
	"math"

	"densestream/internal/edgeio"
	"densestream/internal/graph"
)

// WeightedEdge is one streamed weighted edge (the edgeio record type,
// shared with the out-of-core I/O layer).
type WeightedEdge = edgeio.WeightedEdge

// WeightedEdgeStream is the weighted analogue of EdgeStream, used by the
// weighted variant of Algorithm 1 (the paper notes the algorithm and
// analysis "easily generalize" to weighted graphs; the Lemma 6 lower
// bound instance needs them).
type WeightedEdgeStream interface {
	NumNodes() int
	Reset() error
	Next() (WeightedEdge, error)
}

// WeightedSliceStream streams a fixed slice of weighted edges.
type WeightedSliceStream struct {
	n     int
	edges []WeightedEdge
	pos   int
}

// NewWeightedSliceStream returns a stream over weighted edges on n nodes.
func NewWeightedSliceStream(n int, edges []WeightedEdge) (*WeightedSliceStream, error) {
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("%w: edge (%d,%d) with n=%d", graph.ErrNodeRange, e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("%w: node %d", graph.ErrSelfLoop, e.U)
		}
		if e.Weight <= 0 || math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) {
			return nil, fmt.Errorf("%w: %v", graph.ErrBadWeight, e.Weight)
		}
	}
	return &WeightedSliceStream{n: n, edges: edges}, nil
}

// ShardedWeightedStream is the weighted analogue of ShardedStream:
// WeightedShards(k) returns at most k streams that together yield
// exactly the edges of one full scan, each safe to drive from its own
// goroutine. The decomposition must depend only on the data and k —
// never on the worker count — because the weighted scan folds
// per-shard float partials in shard order and promises bit-identical
// results for every worker count.
type ShardedWeightedStream interface {
	WeightedEdgeStream
	WeightedShards(k int) []WeightedEdgeStream
}

// NumNodes implements WeightedEdgeStream.
func (s *WeightedSliceStream) NumNodes() int { return s.n }

// WeightedShards implements ShardedWeightedStream via the edgeio
// resident source.
func (s *WeightedSliceStream) WeightedShards(k int) []WeightedEdgeStream {
	src := edgeio.WeightedSliceSource{Edges: s.edges}
	readers := src.WeightedShards(k)
	out := make([]WeightedEdgeStream, len(readers))
	for i, r := range readers {
		out[i] = &weightedReaderStream{n: s.n, r: r}
	}
	return out
}

// Reset implements WeightedEdgeStream.
func (s *WeightedSliceStream) Reset() error { s.pos = 0; return nil }

// Next implements WeightedEdgeStream.
func (s *WeightedSliceStream) Next() (WeightedEdge, error) {
	if s.pos >= len(s.edges) {
		return WeightedEdge{}, io.EOF
	}
	e := s.edges[s.pos]
	s.pos++
	return e, nil
}

// FromUndirectedWeighted adapts a frozen graph (weighted or not) into a
// weighted edge stream.
func FromUndirectedWeighted(g *graph.Undirected) *WeightedSliceStream {
	edges := make([]WeightedEdge, 0, g.NumEdges())
	g.Edges(func(u, v int32, w float64) bool {
		edges = append(edges, WeightedEdge{U: u, V: v, Weight: w})
		return true
	})
	return &WeightedSliceStream{n: g.NumNodes(), edges: edges}
}
