package edgeio

import "os"

// BlockDecoder returns a decoder of the blocks of the BSG1 file at path,
// read into memory first, and the file's block count. The decoder runs
// the source's decoder or, with ref, the reference decoder, into one
// reused buffer and returns the block's edge count, so
// BenchmarkDecodeBlock times decoding without I/O.
func BlockDecoder(path string, ref bool) (func(i int) (int, error), int, error) {
	src, err := OpenBinarySource(path)
	if err != nil {
		return nil, 0, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	m := src.meta
	decode := m.decodeBlock
	if ref {
		decode = m.refDecodeBlock
	}
	edges := make([]Edge, m.maxCount)
	return func(i int) (int, error) {
		out, _, err := decode(i, data[m.index[i].off:m.blockEnd(i)], edges, nil)
		return len(out), err
	}, len(m.index), nil
}
