package graph

import (
	"fmt"
	"math"

	"densestream/internal/edgeio"
	"densestream/internal/par"
)

// Binary columnar graph files ("BSG1", see internal/edgeio) are the
// second on-disk format of the loaders. Node ids in a binary file are
// already dense integers; they enter the same fold as the text
// loader's numeric labels, as the integer keys of their decimal
// labels. A text file and its binary conversion therefore freeze into
// bit-identical graphs with identical LabelMaps (and so bit-identical
// Solutions on every in-memory backend).

// readBinary decodes a BSG1 file's block shards across workers, a
// whole block at a time. The weight column is decoded only when
// weighted is true, matching ReadUndirectedFile's contract for text
// files. A failing shard re-runs the decode as one shard, so the edge
// index an error names counts from the start of the file.
func readBinary(path string, weighted bool, workers int) ([]*edgeTokens, error) {
	src, err := edgeio.OpenBinarySource(path)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	defer src.Close()
	parts, err := decodeBinary(src, weighted, workers)
	if err != nil && workers != 1 {
		parts, err = decodeBinary(src, weighted, 1)
	}
	return parts, err
}

func decodeBinary(src *edgeio.BinaryFileSource, weighted bool, workers int) ([]*edgeTokens, error) {
	shards := src.BlockShards(par.Clamp(workers), weighted)
	return tokenizeShards(len(shards), workers, weighted, func(s int, t *edgeTokens) error {
		sh := shards[s]
		defer sh.Close()
		lo, hi := sh.Blocks()
		first := 0 // shard-relative index of the block's first edge
		for b := lo; b < hi; b++ {
			edges, weights, err := sh.Block(b)
			if err != nil {
				return fmt.Errorf("graph: %w", err)
			}
			for j, e := range edges {
				if e.U < 0 || e.V < 0 {
					return fmt.Errorf("graph: %s: edge %d (%d,%d): negative node id", src.Path(), first+j, e.U, e.V)
				}
				if e.U == e.V {
					continue // self loop: ignored by the density model
				}
				w := 1.0
				if weights != nil {
					w = weights[j]
					if !(w > 0) || math.IsNaN(w) || math.IsInf(w, 0) {
						return fmt.Errorf("graph: %s: edge %d (%d,%d): %w (got %v)", src.Path(), first+j, e.U, e.V, ErrBadWeight, w)
					}
				}
				u, v := uint64(e.U), uint64(e.V)
				t.numEnd = max(t.numEnd, u+1, v+1)
				t.push(u, v, w)
			}
			first += len(edges)
		}
		return nil
	})
}

// WriteUndirectedBinary emits the graph as a binary columnar file at
// path (dense ids; the weight column is present iff the graph is
// weighted). The binary peer of WriteUndirected.
func WriteUndirectedBinary(path string, g *Undirected) error {
	w, err := edgeio.CreateBinary(path, g.Weighted())
	if err != nil {
		return err
	}
	g.Edges(func(u, v int32, wt float64) bool {
		w.AppendWeighted(edgeio.WeightedEdge{U: u, V: v, Weight: wt})
		return true
	})
	return w.Close()
}

// WriteDirectedBinary emits the directed graph as a binary columnar
// file at path. The binary peer of WriteDirected.
func WriteDirectedBinary(path string, g *Directed) error {
	w, err := edgeio.CreateBinary(path, false)
	if err != nil {
		return err
	}
	g.Edges(func(u, v int32) bool {
		w.Append(edgeio.Edge{U: u, V: v})
		return true
	})
	return w.Close()
}
