package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Edge-list text format, compatible with SNAP dumps:
//
//	# comment
//	<src> <dst> [weight]
//
// Node labels are arbitrary non-negative integers or strings; they are
// remapped to dense ids in first-seen order. Fields are separated by
// whitespace, exactly as strings.Fields splits them.
//
// Every loader runs the same three steps. A tokenizer turns lines (or
// BSG1 records, see io_binary.go) into label keys without allocating
// per line; one shard of input yields one edgeTokens part. A fold then
// interns the parts' keys in input order through a LabelMap and writes
// each edge into one slice sized to the edge count, and the builder
// freezes that slice. Sharding only decides how the parts are cut, so
// every loader of the same edge sequence yields the same graph.

// ParseError describes a malformed line in an edge-list input.
type ParseError struct {
	Line int
	Text string
	Err  error
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("graph: line %d %q: %v", e.Line, e.Text, e.Err)
}

func (e *ParseError) Unwrap() error { return e.Err }

// maxLineBytes is the longest line the text readers accept; the
// sequential scanner fails on a line of this length or more.
const maxLineBytes = 1 << 22

// A label key of edgeTokens is a numeric label's value (below
// strLabel), or strLabel | length<<keyLenShift | offset for a string
// label whose bytes sit at arena[offset:offset+length]. Lines are
// shorter than maxLineBytes, so the length always fits.
const (
	keyLenShift = 40
	keyLenMask  = 1<<(63-keyLenShift) - 1
	keyOffMask  = 1<<keyLenShift - 1
)

// edgeTokens is one shard of tokenized input, in input order: per edge
// the label keys of its endpoints and, in a weighted scan, the bits of
// its weight.
type edgeTokens struct {
	weighted bool
	// The keys fill blocks that are never copied: full holds the filled
	// ones in order, keys the one being filled.
	full  [][]uint64
	keys  []uint64
	edges int
	arena []byte
	// numEnd is one past the largest numeric label key (0 when there
	// is none); it sizes the fold's dense table.
	numEnd uint64
	// badWeight is the first NaN or +Inf weight among the kept edges.
	// The builder rejects such weights only once the whole input has
	// parsed, so a malformed line anywhere still wins.
	badWeight error
}

func (t *edgeTokens) stride() int {
	if t.weighted {
		return 3
	}
	return 2
}

// maxKeyBlock caps a key block at 1.5 MiB. Every block size is a
// multiple of both strides, so an edge never straddles two blocks.
const maxKeyBlock = 3 << 16

// push appends one edge. A full block stays where it is and the next
// one doubles in size up to maxKeyBlock, so a shard's keys are written
// once, never copied by slice growth.
func (t *edgeTokens) push(u, v uint64, w float64) {
	if len(t.keys)+t.stride() > cap(t.keys) {
		size := 3 << 9
		if cap(t.keys) > 0 {
			t.full = append(t.full, t.keys)
			size = min(2*cap(t.keys), maxKeyBlock)
		}
		t.keys = make([]uint64, 0, size)
	}
	t.keys = append(t.keys, u, v)
	if t.weighted {
		t.keys = append(t.keys, math.Float64bits(w))
	}
	t.edges++
}

// key classifies one label field and returns its key.
func (t *edgeTokens) key(field []byte) uint64 {
	if x, ok := numericLabel(field); ok {
		t.numEnd = max(t.numEnd, x+1)
		return x
	}
	k := strLabel | uint64(len(field))<<keyLenShift | uint64(len(t.arena))
	t.arena = append(t.arena, field...)
	return k
}

// asciiSpace marks the ASCII bytes strings.Fields splits on.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// asciiFields cuts the first len(f) fields of line into f and returns
// how many it found. ok is false when a byte ≥ 0x80 turns up before
// the fields are complete: that line may hold Unicode spaces.
func asciiFields(line []byte, f [][]byte) (n int, ok bool) {
	i := 0
	for n < len(f) {
		for i < len(line) && asciiSpace[line[i]] {
			i++
		}
		if i == len(line) {
			break
		}
		start := i
		for i < len(line) && !asciiSpace[line[i]] {
			if line[i] >= utf8.RuneSelf {
				return 0, false
			}
			i++
		}
		f[n] = line[start:i]
		n++
	}
	return n, true
}

// addLine tokenizes one line of the text format. Blank lines, '#'/'%'
// comments and self loops (which the density model ignores, and real
// SNAP dumps contain) add nothing. The error carries no line number;
// the sequential reader adds it.
func (t *edgeTokens) addLine(line []byte) error {
	var f [3][]byte
	fields := f[:t.stride()]
	n, ok := asciiFields(line, fields)
	if !ok {
		all := strings.Fields(string(line))
		n = min(len(all), len(fields))
		for i := range n {
			fields[i] = []byte(all[i])
		}
	}
	if n == 0 || f[0][0] == '#' || f[0][0] == '%' {
		return nil
	}
	if n < 2 {
		return fmt.Errorf("want at least 2 fields, got %d", n)
	}
	w := 1.0
	if n == 3 {
		var err error
		if w, err = strconv.ParseFloat(string(f[2]), 64); err != nil {
			return fmt.Errorf("bad weight: %v", err)
		}
		if w <= 0 {
			return ErrBadWeight
		}
	}
	if bytes.Equal(f[0], f[1]) {
		return nil
	}
	if t.badWeight == nil && (math.IsNaN(w) || math.IsInf(w, 1)) {
		t.badWeight = fmt.Errorf("%w: %v", ErrBadWeight, w)
	}
	t.push(t.key(f[0]), t.key(f[1]), w)
	return nil
}

// tokenizeText tokenizes a whole text edge list as one part, reporting
// a malformed line as a *ParseError with its line number.
func tokenizeText(r io.Reader, weighted bool) ([]*edgeTokens, error) {
	t := &edgeTokens{weighted: weighted}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), maxLineBytes)
	for lineNo := 1; sc.Scan(); lineNo++ {
		if err := t.addLine(sc.Bytes()); err != nil {
			return nil, &ParseError{Line: lineNo, Text: strings.TrimSpace(sc.Text()), Err: err}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return []*edgeTokens{t}, nil
}

// fold interns the parts' label keys in order — first seen, first
// numbered — and writes every edge into one slice sized to the edge
// count. Undirected edges are stored with U < V, as Builder.AddEdge
// stores them.
//
// Numeric labels below twice the edge count plus a little slack — room
// for every label of a file that numbers its nodes densely, since m
// edges name at most 2m nodes — intern through a dense table; larger
// ones go to a map, so a file holding the id 2^62 costs no more memory
// than its edge count warrants.
func fold(parts []*edgeTokens, undirected bool) ([]Edge, *LabelMap, error) {
	m := 0
	var numEnd uint64
	for _, t := range parts {
		if t.badWeight != nil {
			return nil, nil, t.badWeight
		}
		m += t.edges
		numEnd = max(numEnd, t.numEnd)
	}
	dense := min(numEnd, uint64(2*m+1024))
	lm := &LabelMap{
		dense:  make([]int32, dense),
		labels: make([]uint64, 0, min(dense, uint64(2*m))),
	}
	edges := make([]Edge, m)
	i := 0
	for _, t := range parts {
		stride := t.stride()
		for _, keys := range append(t.full, t.keys) {
			for k := 0; k < len(keys); k += stride {
				u, v := lm.keyID(keys[k], t.arena), lm.keyID(keys[k+1], t.arena)
				if undirected && u > v {
					u, v = v, u
				}
				w := 1.0
				if stride == 3 {
					w = math.Float64frombits(keys[k+2])
				}
				edges[i] = Edge{U: u, V: v, Weight: w}
				i++
			}
		}
	}
	return edges, lm, nil
}

// buildUndirected folds parts into a frozen undirected graph. It is
// weighted when the load was and kept at least one edge, exactly as a
// Builder fed AddWeightedEdge calls.
func buildUndirected(parts []*edgeTokens, weighted bool) (*Undirected, *LabelMap, error) {
	edges, lm, err := fold(parts, true)
	if err != nil {
		return nil, nil, err
	}
	b := &Builder{n: lm.Len(), edges: edges, weighted: weighted && len(edges) > 0}
	g, err := b.Freeze()
	if err != nil {
		return nil, nil, err
	}
	return g, lm, nil
}

// buildDirected folds parts into a frozen directed graph.
func buildDirected(parts []*edgeTokens) (*Directed, *LabelMap, error) {
	edges, lm, err := fold(parts, false)
	if err != nil {
		return nil, nil, err
	}
	b := &DirectedBuilder{n: lm.Len(), edges: edges}
	g, err := b.Freeze()
	if err != nil {
		return nil, nil, err
	}
	return g, lm, nil
}

// ReadUndirected parses an undirected edge list. If weighted is true a
// third column is interpreted as the edge weight.
func ReadUndirected(r io.Reader, weighted bool) (*Undirected, *LabelMap, error) {
	parts, err := tokenizeText(r, weighted)
	if err != nil {
		return nil, nil, err
	}
	return buildUndirected(parts, weighted)
}

// ReadDirected parses a directed edge list (src dst per line).
func ReadDirected(r io.Reader) (*Directed, *LabelMap, error) {
	parts, err := tokenizeText(r, false)
	if err != nil {
		return nil, nil, err
	}
	return buildDirected(parts)
}

// WriteUndirected emits the graph in the text edge-list format (one "u v"
// or "u v w" line per edge, u < v) using dense ids as labels.
func WriteUndirected(w io.Writer, g *Undirected) error {
	bw := bufio.NewWriter(w)
	var werr error
	g.Edges(func(u, v int32, wt float64) bool {
		if g.Weighted() {
			_, werr = fmt.Fprintf(bw, "%d\t%d\t%g\n", u, v, wt)
		} else {
			_, werr = fmt.Fprintf(bw, "%d\t%d\n", u, v)
		}
		return werr == nil
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// WriteDirected emits the directed graph in the text edge-list format.
func WriteDirected(w io.Writer, g *Directed) error {
	bw := bufio.NewWriter(w)
	var werr error
	g.Edges(func(u, v int32) bool {
		_, werr = fmt.Fprintf(bw, "%d\t%d\n", u, v)
		return werr == nil
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}
