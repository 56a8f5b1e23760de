package densestream

import (
	"context"

	"densestream/internal/stream"
)

// EdgeStream is a re-scannable stream of edges: Reset begins a pass, Next
// yields edges until io.EOF. Implementations include in-memory slices,
// frozen graphs, and edge-list files on disk.
type EdgeStream = stream.EdgeStream

// StreamEdge is one streamed edge (directed U→V for directed streams).
type StreamEdge = stream.Edge

// NewSliceStream returns an EdgeStream over an in-memory edge slice.
func NewSliceStream(n int, edges []StreamEdge) (EdgeStream, error) {
	return stream.NewSliceStream(n, edges)
}

// StreamGraph adapts a frozen undirected graph into an EdgeStream.
func StreamGraph(g *UndirectedGraph) EdgeStream { return stream.FromUndirected(g) }

// StreamDirectedGraph adapts a frozen directed graph into an EdgeStream.
func StreamDirectedGraph(g *DirectedGraph) EdgeStream { return stream.FromDirected(g) }

// FileStream streams edges from an edge-list file on disk, re-reading it
// on every pass — true external-memory streaming.
type FileStream = stream.FileStream

// OpenFileStream opens an edge-list file ("u v" per line, dense integer
// ids) as an EdgeStream. Close it when done.
func OpenFileStream(path string) (*FileStream, error) {
	return stream.OpenFileStream(path)
}

// Streaming runs Algorithm 1 against an edge stream holding only O(n)
// node state; results are identical to Undirected on the same graph.
// When the stream is shardable (in-memory and file streams are) each
// pass's edge scan splits across workers with per-worker counter lanes
// — results stay identical for every worker count.
//
// Deprecated: use the Solve front door:
//
//	Solve(ctx, Problem{Objective: ObjectiveUndirected, Backend: BackendStream, Eps: eps, Edges: es})
func Streaming(es EdgeStream, eps float64, opts ...Option) (*Result, error) {
	sol, err := Solve(context.Background(), Problem{Objective: ObjectiveUndirected, Backend: BackendStream, Eps: eps, Edges: es}, opts...)
	if err != nil {
		return nil, err
	}
	return sol.asResult(), nil
}

// SketchConfig shapes the Count-Sketch degree oracle of §5.1: Tables
// independent hash tables (the paper uses 5) of Buckets counters each.
// Memory is Tables×Buckets words instead of one word per node. An
// entirely zero value selects the defaults (5 tables, n/20 buckets with
// a floor of 16, seed 1); a partially filled one is used verbatim. Pass
// it through WithSketch.
type SketchConfig struct {
	Tables  int
	Buckets int
	Seed    int64
}

// StreamingSketched runs Algorithm 1 with Count-Sketch degree estimation
// instead of the exact degree array, trading a little accuracy for a
// memory footprint independent of n (§5.1). Returns the result and the
// counter memory in 64-bit words (for comparison against n).
//
// Deprecated: use the Solve front door; the counter memory is reported
// in Solution.SketchMemoryWords:
//
//	Solve(ctx, Problem{Objective: ObjectiveUndirected, Backend: BackendStreamSketched, Eps: eps, Edges: es}, WithSketch(cfg))
func StreamingSketched(es EdgeStream, eps float64, cfg SketchConfig) (*Result, int, error) {
	sol, err := Solve(context.Background(),
		Problem{Objective: ObjectiveUndirected, Backend: BackendStreamSketched, Eps: eps, Edges: es},
		WithSketch(cfg))
	if err != nil {
		return nil, 0, err
	}
	return sol.asResult(), sol.SketchMemoryWords, nil
}

// WeightedEdgeStream is a re-scannable stream of weighted edges.
type WeightedEdgeStream = stream.WeightedEdgeStream

// WeightedStreamEdge is one streamed weighted edge.
type WeightedStreamEdge = stream.WeightedEdge

// StreamWeightedGraph adapts a frozen (weighted or unweighted) graph into
// a weighted edge stream.
func StreamWeightedGraph(g *UndirectedGraph) WeightedEdgeStream {
	return stream.FromUndirectedWeighted(g)
}

// NewWeightedSliceStream wraps a fixed slice of weighted edges on n
// nodes as a re-scannable WeightedEdgeStream — for ObjectiveWeighted
// the third column is an edge weight, for ObjectiveSlidingWindow a
// positive integer timestamp.
func NewWeightedSliceStream(n int, edges []WeightedStreamEdge) (WeightedEdgeStream, error) {
	return stream.NewWeightedSliceStream(n, edges)
}

// WeightedFileStream streams weighted edges ("u v w" lines; weight
// defaults to 1) from a file on disk, re-reading it every pass.
type WeightedFileStream = stream.WeightedFileStream

// OpenWeightedFileStream opens a weighted edge-list file as a
// WeightedEdgeStream. Close it when done.
func OpenWeightedFileStream(path string) (*WeightedFileStream, error) {
	return stream.OpenWeightedFileStream(path)
}

// StreamingWeighted runs the weighted Algorithm 1 against a weighted edge
// stream with O(n) state; results match UndirectedWeighted on the same
// graph. Shardable weighted streams (slices and files) scan each pass
// through a fixed float-lane decomposition, so results are
// bit-identical for every WithWorkers count.
//
// Deprecated: use the Solve front door:
//
//	Solve(ctx, Problem{Objective: ObjectiveWeighted, Backend: BackendStream, Eps: eps, WeightedEdges: es})
func StreamingWeighted(es WeightedEdgeStream, eps float64, opts ...Option) (*Result, error) {
	sol, err := Solve(context.Background(), Problem{Objective: ObjectiveWeighted, Backend: BackendStream, Eps: eps, WeightedEdges: es}, opts...)
	if err != nil {
		return nil, err
	}
	return sol.asResult(), nil
}

// StreamingAtLeastK runs Algorithm 2 against an edge stream holding only
// O(n) node state; results are identical to AtLeastK on the same graph.
// Shardable streams scan each pass across WithWorkers workers.
//
// Deprecated: use the Solve front door:
//
//	Solve(ctx, Problem{Objective: ObjectiveAtLeastK, Backend: BackendStream, Eps: eps, K: k, Edges: es})
func StreamingAtLeastK(es EdgeStream, k int, eps float64, opts ...Option) (*Result, error) {
	sol, err := Solve(context.Background(), Problem{Objective: ObjectiveAtLeastK, Backend: BackendStream, K: k, Eps: eps, Edges: es}, opts...)
	if err != nil {
		return nil, err
	}
	return sol.asResult(), nil
}

// StreamingDirected runs Algorithm 3 against a directed edge stream for a
// fixed ratio c; results are identical to Directed on the same graph.
// Shardable streams scan each pass across workers, as in Streaming.
//
// Deprecated: use the Solve front door:
//
//	Solve(ctx, Problem{Objective: ObjectiveDirected, Backend: BackendStream, Eps: eps, C: c, Edges: es})
func StreamingDirected(es EdgeStream, c, eps float64, opts ...Option) (*DirectedResult, error) {
	sol, err := Solve(context.Background(), Problem{Objective: ObjectiveDirected, Backend: BackendStream, C: c, Eps: eps, Edges: es}, opts...)
	if err != nil {
		return nil, err
	}
	return sol.asDirectedResult(), nil
}
