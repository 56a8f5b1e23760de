package edgeio

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// scanResult is everything one full scan of a source yields, edge at a
// time and block at a time with weights: the edges and weight bits in
// shard order, and the first error of each. Weights are compared as
// bits, so a NaN in the file compares equal.
type scanResult struct {
	edges  []Edge
	wedges []Edge
	wbits  []uint64
	err    string
	werr   string
}

// scanSource drains k shards of src in shard order through Next and
// through Block with weights, stopping each at its first error.
func scanSource(src *BinaryFileSource, k int) scanResult {
	var res scanResult
	for _, sh := range src.Shards(k) {
		err := drainTo(sh, &res.edges)
		closeIf(sh)
		if err != nil {
			res.err = err.Error()
			break
		}
	}
	for _, sh := range src.BlockShards(k, true) {
		wedges, err := drainBlocks(sh)
		sh.Close()
		for _, e := range wedges {
			res.wedges = append(res.wedges, Edge{U: e.U, V: e.V})
			res.wbits = append(res.wbits, math.Float64bits(e.Weight))
		}
		if err != nil {
			res.werr = err.Error()
			break
		}
	}
	return res
}

func drainTo(r Reader, out *[]Edge) error {
	if err := r.Reset(); err != nil {
		return err
	}
	for {
		e, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		*out = append(*out, e)
	}
}

func closeIf(r any) {
	if c, ok := r.(io.Closer); ok {
		c.Close()
	}
}

// blockResult is one block decoded with its weights.
type blockResult struct {
	edges []Edge
	wbits []uint64
	err   string
}

func newBlockResult(edges []Edge, weights []float64, err error) blockResult {
	if err != nil {
		return blockResult{err: err.Error()}
	}
	res := blockResult{edges: append([]Edge{}, edges...), wbits: []uint64{}}
	for _, w := range weights {
		res.wbits = append(res.wbits, math.Float64bits(w))
	}
	return res
}

// FuzzBinarySource feeds arbitrary bytes to the BSG1 source. It must
// refuse to open the file or scan it, at 1 and 3 shards, to the same
// edges and weights or the same error. Every block must decode exactly
// as the reference decoder decodes it, and nothing may panic. The
// checked-in corpus under testdata/fuzz/FuzzBinarySource holds fixed,
// varint and weighted files, truncations, and an index whose edge
// count cannot fit its block.
func FuzzBinarySource(f *testing.F) {
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "f.bsg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := OpenBinarySource(path)
		if err != nil {
			return
		}
		first := scanSource(src, 1)
		if got := scanSource(src, 3); !reflect.DeepEqual(got, first) {
			t.Fatalf("scan at 3 shards differs from 1 shard:\n%+v\n%+v", got, first)
		}
		m := src.meta
		var weights []float64
		if m.weighted {
			weights = make([]float64, m.maxCount)
		}
		sh := src.BlockShards(1, true)[0]
		defer sh.Close()
		for i, ref := range m.index {
			raw := data[ref.off:m.blockEnd(i)]
			want := newBlockResult(m.refDecodeBlock(i, raw, make([]Edge, m.maxCount), weights))
			if got := newBlockResult(sh.Block(i)); !reflect.DeepEqual(got, want) {
				t.Fatalf("block %d differs from the reference decoder:\ngot  %+v\nwant %+v", i, got, want)
			}
		}
	})
}
