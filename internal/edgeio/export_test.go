package edgeio

import "fmt"

// RefBlock is Block through the reference decoder, for
// BenchmarkDecodeBlock: it decodes block i of a mapped file's shard
// into the shard's buffers.
func RefBlock(sh *BinaryShard, i int) ([]Edge, []float64, error) {
	if !sh.src.mapped || sh.src.data == nil {
		return nil, nil, fmt.Errorf("edgeio: RefBlock needs an open mapped source")
	}
	m := sh.src.meta
	edges := pooled(&sh.edgeBox, &edgePool, m.maxCount)
	var weights []float64
	if sh.weights {
		weights = pooled(&sh.weightBox, &weightPool, m.maxCount)
	}
	return m.refDecodeBlock(i, sh.src.data[m.index[i].off:m.blockEnd(i)], edges, weights)
}
