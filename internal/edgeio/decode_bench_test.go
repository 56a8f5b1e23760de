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
// about 0.93M edges, written in CSR order) out of the file's bytes in
// memory, so no I/O is timed. It reports ns/edge for the source's
// decoder and for the reference decoder it replaced.
func BenchmarkDecodeBlock(b *testing.B) {
	g, err := gen.ChungLu(200_000, 1_000_000, 2.2, 1)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "cl.bsg")
	if err := graph.WriteUndirectedBinary(path, g); err != nil {
		b.Fatal(err)
	}
	for _, dec := range []struct {
		name string
		ref  bool
	}{{"decoder=shard", false}, {"decoder=reference", true}} {
		b.Run(dec.name, func(b *testing.B) {
			decode, blocks, err := edgeio.BlockDecoder(path, dec.ref)
			if err != nil {
				b.Fatal(err)
			}
			edges := 0
			for b.Loop() {
				for i := 0; i < blocks; i++ {
					n, err := decode(i)
					if err != nil {
						b.Fatal(err)
					}
					edges += n
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(edges), "ns/edge")
		})
	}
}
