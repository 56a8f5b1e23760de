package edgeio

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// parseResult is what one read of a text file yields: its edges, their
// weight bits when weights were read, and the first error's text.
type parseResult struct {
	edges []Edge
	wbits []uint64
	err   string
}

// textLine is one raw line as the sequential reader splits a file: the
// bytes before its '\n' and the offset it starts at.
type textLine struct {
	text []byte
	off  int64
}

// splitLines splits data as FileShard.NextLine does: at each '\n',
// which is dropped, keeping a final line that has no '\n'.
func splitLines(data []byte) []textLine {
	var lines []textLine
	for off := 0; off < len(data); {
		end := bytes.IndexByte(data[off:], '\n')
		if end < 0 {
			return append(lines, textLine{data[off:], int64(off)})
		}
		lines = append(lines, textLine{data[off : off+end], int64(off)})
		off += end + 1
	}
	return lines
}

// refParse is the reference read of the file at path: every line
// through the string parser, in order, up to the first error.
func refParse(path string, lines []textLine, weights bool) parseResult {
	var res parseResult
	for _, ln := range lines {
		e, w, skip, err := parseEdgeLine(string(ln.text), weights)
		if err != nil {
			res.err = fmt.Sprintf("edgeio: %s offset %d: %v", path, ln.off, err)
			break
		}
		if !skip {
			res.edges = append(res.edges, e)
			if weights {
				res.wbits = append(res.wbits, math.Float64bits(w))
			}
		}
	}
	return res
}

// blockParse reads the blocks of src's k shards in shard order, up to
// the first error.
func blockParse(src *FileSource, k int, weights bool) parseResult {
	var res parseResult
	for _, sh := range src.BlockShards(k, weights) {
		err := sh.Reset()
		for err == nil {
			var edges []Edge
			var ws []float64
			edges, ws, err = sh.Block(0)
			res.edges = append(res.edges, edges...)
			for _, w := range ws {
				res.wbits = append(res.wbits, math.Float64bits(w))
			}
		}
		sh.Close()
		if err != io.EOF {
			res.err = err.Error()
			break
		}
	}
	return res
}

// FuzzFileShard writes arbitrary bytes as a file and reads it through
// the text shards. With and without weights and at 1, 2, 3 and 5
// shards, the blocks read in shard order must give the reference
// parse's edges, weights and first error, and for every line the byte
// parser must agree with the string parser. The checked-in corpus
// under testdata/fuzz/FuzzFileShard holds CRLF endings and a missing
// final newline, comments, signs and 20-digit ids, bad weights and
// 1e400, and a line longer than the 64 KiB read buffer.
func FuzzFileShard(f *testing.F) {
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "f.txt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := OpenFileSource(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := splitLines(data)
		for _, weights := range []bool{false, true} {
			want := refParse(path, lines, weights)
			for _, k := range []int{1, 2, 3, 5} {
				if got := blockParse(src, k, weights); !reflect.DeepEqual(got, want) {
					t.Fatalf("weights=%v k=%d: blocks read\n%+v\nreference\n%+v", weights, k, got, want)
				}
			}
			for _, ln := range lines {
				e, w, skip, err := parseEdgeLineBytes(ln.text, weights)
				re, rw, rskip, rerr := parseEdgeLine(string(ln.text), weights)
				if e != re || math.Float64bits(w) != math.Float64bits(rw) || skip != rskip || fmt.Sprint(err) != fmt.Sprint(rerr) {
					t.Fatalf("weights=%v line %q: bytes parser (%v, %v, %v, %v), string parser (%v, %v, %v, %v)",
						weights, ln.text, e, w, skip, err, re, rw, rskip, rerr)
				}
			}
		}
	})
}
