package edgeio

import "io"

// SliceSource is the memory-resident edge source: a fixed edge slice,
// optionally with one weight per edge, sharded into contiguous ranges.
// The range decomposition depends only on the edge count and k.
type SliceSource struct {
	Edges   []Edge
	Weights []float64 // nil, or len(Edges) weights
}

// BlockShards cuts the edges into 1..k contiguous ranges, each read as
// unnumbered blocks of up to sliceBlockEdges edges. Blocks are
// sub-slices of Edges and Weights: nothing is copied.
func (s *SliceSource) BlockShards(k int) []BlockReader {
	bounds := sliceBounds(len(s.Edges), k)
	backing := make([]sliceShard, len(bounds))
	out := make([]BlockReader, len(bounds))
	for i, b := range bounds {
		backing[i].edges = s.Edges[b[0]:b[1]]
		if s.Weights != nil {
			backing[i].weights = s.Weights[b[0]:b[1]]
		}
		out[i] = &backing[i]
	}
	return out
}

// sliceBounds cuts [0, n) into min(k, max(n,1)) contiguous half-open
// ranges, the same decomposition for every worker count.
func sliceBounds(n, k int) [][2]int {
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	out := make([][2]int, k)
	for i := range out {
		out[i] = [2]int{n * i / k, n * (i + 1) / k}
	}
	return out
}

// sliceBlockEdges is the most edges one resident block holds, so a scan
// polls for cancellation as often over slices as over text.
const sliceBlockEdges = 1024

// sliceShard is one resident range, read in unnumbered blocks.
type sliceShard struct {
	edges   []Edge
	weights []float64
	pos     int
}

// Reset implements BlockReader.
func (r *sliceShard) Reset() error { r.pos = 0; return nil }

// Blocks implements BlockReader: resident blocks are unnumbered.
func (r *sliceShard) Blocks() (lo, hi int) { return 0, Unnumbered }

// Block implements BlockReader, handing out the next sub-slice.
func (r *sliceShard) Block(int) ([]Edge, []float64, error) {
	if r.pos >= len(r.edges) {
		return nil, nil, io.EOF
	}
	lo, hi := r.pos, min(r.pos+sliceBlockEdges, len(r.edges))
	r.pos = hi
	if r.weights == nil {
		return r.edges[lo:hi:hi], nil, nil
	}
	return r.edges[lo:hi:hi], r.weights[lo:hi:hi], nil
}
