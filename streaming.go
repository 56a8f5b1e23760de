package densestream

import "densestream/internal/stream"

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
// on every pass — true external-memory streaming — until one pass's
// live edges fit one counter lane (n edges, n/2 weighted; never on
// BackendStreamSketched). The solve then holds those edges in memory
// and reads the file no more, so a file truncated after that pass no
// longer fails it, and BytesScanned stops growing.
type FileStream = stream.FileStream

// OpenFileStream opens an edge-list file ("u v" per line, dense integer
// ids) as an EdgeStream. Close it when done.
func OpenFileStream(path string) (*FileStream, error) {
	return stream.OpenFileStream(path)
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
