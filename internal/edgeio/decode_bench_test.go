package edgeio_test

import (
	"path/filepath"
	"testing"

	"densestream/internal/edgeio"
	"densestream/internal/gen"
	"densestream/internal/graph"
)

// BenchmarkDecodeBlock decodes every block of a delta-varint file
// shaped like the stream-disk workload's (a Chung–Lu graph, n=200K,
// about 0.93M edges, written in CSR order) out of a memory mapping, so
// no I/O is timed. It reports ns/edge for the shard's decoder and for
// the reference decoder it replaced.
func BenchmarkDecodeBlock(b *testing.B) {
	g, err := gen.ChungLu(200_000, 1_000_000, 2.2, 1)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "cl.bsg")
	if err := graph.WriteUndirectedBinary(path, g); err != nil {
		b.Fatal(err)
	}
	src, err := edgeio.OpenMmapSource(path)
	if err != nil {
		b.Skipf("mmap unavailable: %v", err)
	}
	defer src.Close()
	for _, dec := range []struct {
		name  string
		block func(sh *edgeio.BinaryShard, i int) ([]edgeio.Edge, []float64, error)
	}{
		{"decoder=shard", (*edgeio.BinaryShard).Block},
		{"decoder=reference", edgeio.RefBlock},
	} {
		b.Run(dec.name, func(b *testing.B) {
			sh := src.BlockShards(1, false)[0]
			defer sh.Close()
			lo, hi := sh.Blocks()
			edges := 0
			for b.Loop() {
				for i := lo; i < hi; i++ {
					blk, _, err := dec.block(sh, i)
					if err != nil {
						b.Fatal(err)
					}
					edges += len(blk)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(edges), "ns/edge")
		})
	}
}
