// Package edgeio is the out-of-core edge I/O layer: one block contract,
// BlockReader, serving memory-resident edges, byte-range shards of
// edge-list files on disk, and binary BSG1 files (graph inputs and the
// MapReduce engine's spill runs alike) — so the peeling runtimes can
// scan edge sets that never fit in one machine's memory through a
// single interface.
//
// A shard hands out its edges a block at a time, with a weight column
// when the shard was made to read weights (BlockShards(k, weights)) and
// the data has one. Every shard is re-scannable (Reset begins a new
// pass) and every sharding is a function of the data alone — byte
// ranges depend only on the file size and the shard count, block
// ranges only on the block count, slice ranges only on the edge count
// — so shard-parallel scans feed deterministic merges no matter how
// many workers drive them.
//
// File sharding uses line-boundary resync: shard i covers the byte
// range [lo, hi) of the file and owns exactly the lines whose first
// byte lands in (lo, hi] (the first shard also owns the line at offset
// 0). A shard that starts mid-line skips forward to the next line
// start; a shard whose last line crosses hi reads it to completion.
// Every line is therefore parsed by exactly one shard, for any shard
// count, with CRLF line endings and a missing trailing newline handled
// the same way the sequential parsers handle them.
package edgeio

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Edge is one unweighted edge over dense int32 node ids.
type Edge struct {
	U, V int32
}

// WeightedEdge is one weighted edge; Weight is finite and > 0.
type WeightedEdge struct {
	U, V   int32
	Weight float64
}

// Reader is one shard's sequential cursor over edges, without weights.
// A full scan of a shard is Reset, then Next until io.EOF; Reset may be
// called again for another pass.
type Reader interface {
	Reset() error
	Next() (Edge, error)
}

// Unnumbered is the end of the block range a shard without stable block
// numbers reports.
const Unnumbered = math.MaxInt

// BlockReader is one shard read a block at a time. A full scan is
// Reset, then Block(i) for each i in the range Blocks reports, in
// order. Block returns the block's edges and, when the shard reads
// weights and the data has them, its weights (nil otherwise); both stay
// valid until the shard's next read.
//
// A shard with numbered blocks (a BSG1 shard) holds the same edges
// under the same number in every pass, so a scan may skip a block by
// number. A shard without stable numbers (text, slices, adapted
// streams) reports the range [0, Unnumbered), ignores Block's argument
// and ends with io.EOF. It hands out the edges it read before an error
// ahead of the error itself, so a scan meets edges and errors in
// stream order.
type BlockReader interface {
	Reset() error
	Blocks() (lo, hi int)
	Block(i int) ([]Edge, []float64, error)
}

// parseEdgeFields is ParseEdgeLine's string fallback, built on
// strings.Fields and strconv: the reference its fast path must match.
func parseEdgeFields(text string, weights bool) (e Edge, w float64, skip bool, err error) {
	text = strings.TrimSpace(text)
	if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, "%") {
		return Edge{}, 0, true, nil
	}
	fields := strings.Fields(text)
	if len(fields) < 2 {
		return Edge{}, 0, false, fmt.Errorf("want at least 2 fields, got %d", len(fields))
	}
	u, uerr := strconv.ParseInt(fields[0], 10, 32)
	v, verr := strconv.ParseInt(fields[1], 10, 32)
	if uerr != nil || verr != nil || u < 0 || v < 0 {
		return Edge{}, 0, false, fmt.Errorf("bad node ids %q %q", fields[0], fields[1])
	}
	w = 1
	if weights && len(fields) >= 3 {
		var werr error
		w, werr = strconv.ParseFloat(fields[2], 64)
		if werr != nil || w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return Edge{}, 0, false, fmt.Errorf("bad weight %q", fields[2])
		}
	}
	if u == v {
		return Edge{}, 0, true, nil
	}
	return Edge{U: int32(u), V: int32(v)}, w, false, nil
}

// isASCIISpace reports whether c is one of the ASCII whitespace bytes
// strings.Fields splits on. Lines containing any other separator (or
// non-UTF-8 bytes) take the string fallback below, which reproduces the
// Fields semantics exactly.
func isASCIISpace(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	}
	return false
}

// skipASCIISpace returns the first index >= i of a non-space byte.
func skipASCIISpace(b []byte, i int) int {
	for i < len(b) && isASCIISpace(b[i]) {
		i++
	}
	return i
}

// parseNodeID parses a run of decimal digits starting at i, bounded to
// int32. ok is false (triggering the string fallback) on an empty run,
// overflow, or a leading sign — the slow path accepts "+5" and rejects
// negatives with the canonical error text.
func parseNodeID(b []byte, i int) (id int32, end int, ok bool) {
	start := i
	var n int64
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		n = n*10 + int64(b[i]-'0')
		if n > math.MaxInt32 {
			return 0, i, false
		}
		i++
	}
	if i == start {
		return 0, i, false
	}
	return int32(n), i, true
}

// ParseEdgeLine parses one raw text line of the "u v [w]" edge-list
// format, the one grammar of every dense-id text input: the file
// shards and densestd's text bodies and files. It returns the edge and
// its weight. skip is true for lines that carry no edge: blank lines,
// '#'/'%' comments, and self loops (ignored by the density model, as
// in every parser of this repository). Without weights any field past
// the second is ignored and the weight is 1; with weights a third
// column must be finite and > 0 — checked before the self-loop skip —
// and a missing one means 1. The line may end in '\r' (CRLF input).
//
// The fast path handles the common "digits space digits [weight]"
// shape without allocating (the weight still goes through
// strconv.ParseFloat for exact parsing semantics; its argument does not
// escape, so the conversion stays off the heap for ordinary weight
// tokens). Anything unusual — signs, overflow, malformed fields, exotic
// whitespace, a rejected weight — falls back to parseEdgeFields so
// semantics and error text stay identical.
func ParseEdgeLine(b []byte, weights bool) (e Edge, w float64, skip bool, err error) {
	i := skipASCIISpace(b, 0)
	if i == len(b) || b[i] == '#' || b[i] == '%' {
		return Edge{}, 0, true, nil
	}
	u, i, ok := parseNodeID(b, i)
	if !ok {
		return parseEdgeFields(string(b), weights)
	}
	j := skipASCIISpace(b, i)
	if j == i || j == len(b) {
		// No separator after the first field, or only one field.
		return parseEdgeFields(string(b), weights)
	}
	v, j, ok := parseNodeID(b, j)
	if !ok || (j < len(b) && !isASCIISpace(b[j])) {
		return parseEdgeFields(string(b), weights)
	}
	// Without weights any further fields are ignored, as
	// strings.Fields-based parsing ignores them.
	w = 1
	if k := skipASCIISpace(b, j); weights && k < len(b) {
		end := k
		for end < len(b) && !isASCIISpace(b[end]) {
			end++
		}
		var werr error
		if w, werr = strconv.ParseFloat(string(b[k:end]), 64); werr != nil || w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return parseEdgeFields(string(b), weights)
		}
	}
	if u == v {
		return Edge{}, 0, true, nil
	}
	return Edge{U: u, V: v}, w, false, nil
}

// MaxNodeID scans r fully and reports the maximum node id seen (-1 for
// an empty source) — the node-count discovery pass of the file-backed
// streams, which assume dense ids 0..max.
func MaxNodeID(r BlockReader) (int32, error) {
	if err := r.Reset(); err != nil {
		return -1, err
	}
	maxID := int32(-1)
	lo, hi := r.Blocks()
	for b := lo; b < hi; b++ {
		edges, _, err := r.Block(b)
		if err == io.EOF {
			break
		}
		if err != nil {
			return -1, err
		}
		for _, e := range edges {
			maxID = max(maxID, e.U, e.V)
		}
	}
	return maxID, nil
}
