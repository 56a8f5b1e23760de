package densestream

import (
	"io"

	"densestream/internal/graph"
)

// Re-exported graph types. The implementation lives in an internal
// package; these aliases are the supported public surface.

// UndirectedGraph is a frozen undirected graph in CSR form.
type UndirectedGraph = graph.Undirected

// DirectedGraph is a frozen directed graph with out- and in-adjacency.
type DirectedGraph = graph.Directed

// GraphBuilder accumulates undirected edges; call Freeze to obtain the
// immutable UndirectedGraph.
type GraphBuilder = graph.Builder

// DirectedGraphBuilder accumulates directed edges.
type DirectedGraphBuilder = graph.DirectedBuilder

// LabelMap records the mapping between external node labels and the dense
// ids used internally, as produced by the Read functions. Canonical
// decimal labels ("0", "17", not "07" or "+7") are stored as integers
// and formatted on demand by Label; other labels are stored as strings.
type LabelMap = graph.LabelMap

// GraphStats summarizes basic structural parameters of a graph.
type GraphStats = graph.Stats

// NewBuilder returns a builder for an undirected graph on n nodes
// (ids 0..n-1). Parallel edges are merged at Freeze, and a merged edge's
// weight is the sum of its copies' weights taken in insertion order;
// self loops are rejected.
func NewBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// NewDirectedBuilder returns a builder for a directed graph on n nodes.
func NewDirectedBuilder(n int) *DirectedGraphBuilder { return graph.NewDirectedBuilder(n) }

// ReadUndirected parses a SNAP-style edge list ("u v" or "u v w" per
// line; '#'/'%' comments). Labels are remapped to dense ids in first-seen
// order; the LabelMap recovers the original labels.
func ReadUndirected(r io.Reader, weighted bool) (*UndirectedGraph, *LabelMap, error) {
	return graph.ReadUndirected(r, weighted)
}

// ReadDirected parses a directed edge list ("src dst" per line).
func ReadDirected(r io.Reader) (*DirectedGraph, *LabelMap, error) {
	return graph.ReadDirected(r)
}

// ReadUndirectedFile is ReadUndirected for a file on disk, with the
// line scan and tokenizing sharded across workers (byte-range shards
// with line-boundary resync; block ranges for binary files), allocating
// nothing per line. Output is bit-identical to ReadUndirected
// on the same bytes for every worker count; workers <= 0 means
// GOMAXPROCS. Solve uses it for every Problem with a Path input. The
// format is sniffed from the magic bytes: both text edge lists and
// binary columnar files (see WriteUndirectedBinary) load here, and a
// text file and its binary conversion freeze into bit-identical
// graphs.
func ReadUndirectedFile(path string, weighted bool, workers int) (*UndirectedGraph, *LabelMap, error) {
	return graph.ReadUndirectedFile(path, weighted, workers)
}

// ReadDirectedFile is ReadDirected with the sharded file scan; see
// ReadUndirectedFile.
func ReadDirectedFile(path string, workers int) (*DirectedGraph, *LabelMap, error) {
	return graph.ReadDirectedFile(path, workers)
}

// WriteUndirected emits g as a text edge list using dense ids.
func WriteUndirected(w io.Writer, g *UndirectedGraph) error {
	return graph.WriteUndirected(w, g)
}

// WriteDirected emits g as a text edge list using dense ids.
func WriteDirected(w io.Writer, g *DirectedGraph) error {
	return graph.WriteDirected(w, g)
}

// WriteUndirectedBinary emits g as a binary columnar edge file at
// path (the compact format the out-of-core backends scan without
// parsing; the weight column is present iff g is weighted). Files it
// writes load through ReadUndirectedFile, Problem.Path, and the disk
// streams interchangeably with text edge lists.
func WriteUndirectedBinary(path string, g *UndirectedGraph) error {
	return graph.WriteUndirectedBinary(path, g)
}

// WriteDirectedBinary is WriteUndirectedBinary for directed graphs.
func WriteDirectedBinary(path string, g *DirectedGraph) error {
	return graph.WriteDirectedBinary(path, g)
}

// Stats computes structural statistics for an undirected graph.
func Stats(g *UndirectedGraph) GraphStats { return graph.UndirectedStats(g) }

// StatsDirected computes structural statistics for a directed graph.
func StatsDirected(g *DirectedGraph) GraphStats { return graph.DirectedStats(g) }
