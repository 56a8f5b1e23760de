package stream

import (
	"fmt"
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

// WeightedSliceStream streams a fixed slice of weighted edges: a
// SliceStream over a weighted resident source, whose Next adds each
// edge's weight. It implements WeightedEdgeStream and Sharded.
type WeightedSliceStream struct {
	SliceStream
}

// NewWeightedSliceStream returns a stream over weighted edges on n
// nodes, holding its own copy of them.
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
	s := newWeightedSliceStream(n, len(edges))
	for _, e := range edges {
		s.add(e.U, e.V, e.Weight)
	}
	return s, nil
}

// FromUndirectedWeighted adapts a frozen graph (weighted or not) into a
// weighted edge stream.
func FromUndirectedWeighted(g *graph.Undirected) *WeightedSliceStream {
	s := newWeightedSliceStream(g.NumNodes(), int(g.NumEdges()))
	g.Edges(func(u, v int32, w float64) bool {
		s.add(u, v, w)
		return true
	})
	return s
}

// newWeightedSliceStream returns an empty stream on n nodes with room
// for m edges.
func newWeightedSliceStream(n, m int) *WeightedSliceStream {
	return &WeightedSliceStream{SliceStream{n: n, src: edgeio.SliceSource{
		Edges:   make([]Edge, 0, m),
		Weights: make([]float64, 0, m),
	}}}
}

// add appends one weighted edge.
func (s *WeightedSliceStream) add(u, v int32, w float64) {
	s.src.Edges = append(s.src.Edges, Edge{U: u, V: v})
	s.src.Weights = append(s.src.Weights, w)
}

// Next implements WeightedEdgeStream.
func (s *WeightedSliceStream) Next() (WeightedEdge, error) {
	e, err := s.SliceStream.Next()
	if err != nil {
		return WeightedEdge{}, err
	}
	return WeightedEdge{U: e.U, V: e.V, Weight: s.src.Weights[s.pos-1]}, nil
}
